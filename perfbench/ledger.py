"""The benchmark's arithmetic: summary statistics, span self time, pool
idleness, the per-layer metric table and host-record comparison.

Everything here is a pure function of the raw samples the perfbench binary
prints, so perfbench/test_ledger.py can pin it without running a workload.
"""

import math
import statistics

CPU_SLUGS = [
    "broadwell", "skylake-client", "cascade-lake", "ice-lake-client",
    "ice-lake-server", "zen", "zen-2", "zen-3",
]
FIG2_SLUGS = ["broadwell", "skylake-client", "ice-lake-server", "zen"]
ATTACK_SPECS = [
    "spectre-v1", "spectre-v2", "spectre-rsb", "spectre-v2-smt", "meltdown",
    "mds", "mds-smt", "ssb", "lazyfp", "l1tf", "smother-spectre",
]

# A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def median(values):
    return statistics.median(values)


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def _rank(n, q):
    # round() keeps 99.9% of 10000 at rank 9990, not 9991.
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def samples_beyond(n, q):
    """How many of n samples lie above the nearest-rank q-th percentile."""
    return n - _rank(n, q)


def highest_percentile(n, candidates=(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)):
    """The highest candidate percentile with at least MIN_BEYOND samples
    beyond it, or None when n is too small for any."""
    for q in candidates:
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def tail_latency(values):
    """(value, q): the p99 when at least MIN_BEYOND samples lie beyond it,
    else the highest percentile that has them, else (fewer than
    MIN_BEYOND + 1 samples) the median."""
    n = len(values)
    q = 99.0 if samples_beyond(n, 99.0) >= MIN_BEYOND else (highest_percentile(n) or 50.0)
    return (percentile(values, q) if q != 50.0 else median(values)), q


def union_length(intervals):
    """Total length covered by a set of possibly overlapping [start, end)."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its children cover (overlapping children count once).

    spans: list of (name, start, end, parent_index, group).
    """
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        parent = span[3]
        if parent >= 0:
            children[parent].append(index)
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        clipped = []
        for child in children[index]:
            c_start, c_end = max(spans[child][1], start), min(spans[child][2], end)
            if c_end > c_start:
                clipped.append((c_start, c_end))
        result.append((end - start) - union_length(clipped))
    return result


def pool_idle_frac(wall, cell_durations, workers):
    """Share of the pool's capacity (workers x wall) that no cell used."""
    return 1.0 - sum(cell_durations) / (workers * wall)


def host_mismatches(a, b):
    """Keys on which two host records differ; empty means comparable."""
    keys = sorted(set(a) | set(b))
    return [key for key in keys if a.get(key) != b.get(key)]


def compare(base, new, bounds, better):
    """Compares two results written by run.py --out.

    Returns (comparable, lines). Results from hosts whose records differ are
    not comparable: their host timings measure different machines. A metric
    worse than its bound (a share of the base value) is marked REGRESSED.
    """
    mismatched = host_mismatches(base["host"], new["host"])
    if mismatched:
        return False, ["not comparable: host records differ on " + ", ".join(mismatched)]
    lines = []
    for name in sorted(set(base["metrics"]) & set(new["metrics"])):
        old, cur = base["metrics"][name]["value"], new["metrics"][name]["value"]
        change = (cur - old) / old if old else 0.0
        worse = change if better.get(name, "lower") == "lower" else -change
        verdict = ""
        if name in bounds:
            verdict = "REGRESSED" if worse > bounds[name] else "ok"
        lines.append(f"{name:40s} {old:14.6g} -> {cur:14.6g} {change:+8.2%} {verdict}".rstrip())
    return True, lines


class Spans:
    """Lookup helpers over the traced run's spans (times in ns)."""

    def __init__(self, spans):
        self.spans = spans
        self.self_ns = self_times(spans)

    def durations(self, name):
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def prefixed(self, prefix):
        return [end - start for n, start, end, _, _ in self.spans if n.startswith(prefix)]

    def one(self, name):
        found = self.durations(name)
        return found[0] if found else 0

    def index(self, name):
        for i, span in enumerate(self.spans):
            if span[0] == name:
                return i
        return None

    def children(self, index):
        return [s for s in self.spans if s[3] == index]

    def self_total(self, name):
        return sum(t for t, s in zip(self.self_ns, self.spans) if s[0] == name)


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _median_or_zero(values):
    return statistics.median(values) if values else 0.0


def layer_units():
    """Every per-layer metric and its unit, in report order."""
    units = {}
    for slug in CPU_SLUGS:
        units[f"uarch.construct_us.{slug}"] = "us"
    for slug in CPU_SLUGS:
        units[f"uarch.reset_us.{slug}"] = "us"
    units.update({
        "uarch.detailed_minstr_per_s": "Minstr/s",
        "uarch.trace_cache.hits": "count",
        "uarch.trace_cache.misses": "count",
        "uarch.trace_cache.hit_ratio": "ratio",
        "uarch.trace_cache.hit_ns": "ns",
        "uarch.trace_cache.decode_us": "us",
        "os.kernel_boot_us": "us",
        "workload.lebench.run_kernel_ms": "ms",
        "workload.lebench.calls": "count",
        "workload.lebench.sim_cycles_per_us": "cycles/us",
        "stats.samples": "count",
        "attack.suite_s": "s",
        "attack.trials": "count",
    })
    for spec in ATTACK_SPECS:
        units[f"attack.{spec}.trial_ms"] = "ms"
        units[f"attack.{spec}.self_s"] = "s"
    units.update({"core.basket_s": "s", "core.pareto_join_ms": "ms"})
    for slug in FIG2_SLUGS:
        units[f"core.fig2_cell_s.{slug}"] = "s"
    units.update({
        "difftest.generate_us": "us",
        "difftest.reference_us": "us",
        "difftest.cell_us": "us",
        "difftest.executions": "count",
        "difftest.retired_instrs": "count",
        "runner.cell_overhead_us": "us",
        "runner.pool_idle_frac": "ratio",
        "runner.journal_us": "us",
        "service.ping_rtt_us": "us",
        "service.overhead_ms": "ms",
        "trace.overhead_s": "s",
        "trace.coverage": "ratio",
    })
    return units


def layer_metrics(trace, jobs_par):
    """The per-layer metric table (name -> value) of one traced run, in
    layer_units() order."""
    spans = Spans(trace["spans"])
    counts = trace["counts"]
    us, ms, s = 1e-3, 1e-6, 1e-9  # ns -> unit
    m = {}
    for slug in CPU_SLUGS:
        m[f"uarch.construct_us.{slug}"] = _median_or_zero(spans.durations(f"uarch.construct/{slug}")) * us
        m[f"uarch.reset_us.{slug}"] = _median_or_zero(spans.durations(f"uarch.reset/{slug}")) * us
    run_ns = sum(spans.durations("uarch.run"))
    m["uarch.detailed_minstr_per_s"] = counts.get("uarch.run.retired", 0) / (run_ns * s) / 1e6 if run_ns else 0.0
    hits, misses = counts.get("trace_cache.hits", 0), counts.get("trace_cache.misses", 0)
    m["uarch.trace_cache.hits"] = hits
    m["uarch.trace_cache.misses"] = misses
    m["uarch.trace_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["uarch.trace_cache.hit_ns"] = _median_or_zero(spans.durations("uarch.trace_cache.hit"))
    m["uarch.trace_cache.decode_us"] = _median_or_zero(spans.durations("uarch.trace_cache.decode")) * us
    m["os.kernel_boot_us"] = _median_or_zero(spans.prefixed("os.kernel_boot/")) * us
    lebench = spans.durations("lebench.run_kernel")
    m["workload.lebench.run_kernel_ms"] = _mean(lebench) * ms
    m["workload.lebench.calls"] = counts.get("lebench.calls", 0)
    m["workload.lebench.sim_cycles_per_us"] = counts.get("lebench.sim_cycles", 0) / (sum(lebench) * us) if lebench else 0.0
    m["stats.samples"] = counts.get("stats.samples", 0)
    m["attack.suite_s"] = spans.one("attack.suite") * s
    m["attack.trials"] = counts.get("attack.trials", 0)
    for spec in ATTACK_SPECS:
        m[f"attack.{spec}.trial_ms"] = _mean(spans.durations(f"attack.trial/{spec}")) * ms
        m[f"attack.{spec}.self_s"] = spans.self_total(f"attack.trial/{spec}") * s
    m["core.basket_s"] = spans.one("core.basket") * s
    m["core.pareto_join_ms"] = (spans.one("pareto.build") - spans.one("attack.suite") - spans.one("core.basket")) * ms
    for slug in FIG2_SLUGS:
        m[f"core.fig2_cell_s.{slug}"] = spans.one(f"fig2.cell/{slug}") * s
    m["difftest.generate_us"] = _mean(spans.durations("difftest.generate")) * us
    m["difftest.reference_us"] = _mean(spans.durations("difftest.reference")) * us
    m["difftest.cell_us"] = _mean(spans.durations("difftest.cell")) * us
    m["difftest.executions"] = counts.get("difftest.executions", 0)
    m["difftest.retired_instrs"] = counts.get("difftest.retired_instrs", 0)
    noop_cells = counts.get("runner.noop_cells", 0)
    m["runner.cell_overhead_us"] = spans.one("runner.noop_sweep") * us / noop_cells if noop_cells else 0.0
    sweep = spans.index("fig2.sweep")
    if sweep is not None:
        cells = [end - start for _, start, end, _, _ in spans.children(sweep)]
        m["runner.pool_idle_frac"] = pool_idle_frac(spans.one("fig2.sweep"), cells, jobs_par)
    else:
        m["runner.pool_idle_frac"] = 0.0
    m["runner.journal_us"] = _mean(spans.durations("runner.journal")) * us
    m["service.ping_rtt_us"] = _median_or_zero(spans.durations("service.ping")) * us
    m["service.overhead_ms"] = (_median_or_zero(spans.durations("service.solo")) -
                                _median_or_zero(spans.durations("service.direct"))) * ms
    top = spans.index(trace["workload_span"])
    untraced = trace["untraced_wall_s"]
    if top is not None and untraced > 0:
        covered = union_length([(st, en) for _, st, en, _, _ in spans.children(top)])
        m["trace.overhead_s"] = spans.one(trace["workload_span"]) * s - untraced
        m["trace.coverage"] = covered * s / untraced
    else:
        m["trace.overhead_s"] = 0.0
        m["trace.coverage"] = 0.0
    return {name: m[name] for name in layer_units()}
