#!/usr/bin/env python3
"""spectrebench benchmark: build, run one workload, check it, print metrics.

    python3 perfbench/run.py --workload pareto --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --record          # re-record perfbench/expected.json

Run from the repository root. The first run configures and builds the
perfbench binary under .bench_build/ (the library sources come from src/).
The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1. Everything above it is for people: the host record, the start
state, and one line per metric with its unit and sample count.
perfbench/README.md explains every metric.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import ledger

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
SCRATCH = Path(".bench_build") / "run"  # relative: keeps socket paths short
GOLDEN = Path("tests") / "golden" / "pareto.json"
EXPECTED = HERE / "expected.json"
WORKLOADS = ("pareto", "fig2", "difftest", "serve")
VARIANTS = 8              # must match kVariants in perfbench.cc
SETUP_SAMPLES = 31        # fresh set-up-only processes timed for setup_s
RUN_TIMEOUT_S = 170       # the whole run, build excluded

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("wall_s_par", "s"), ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"), ("rtt_p50_ms", "ms"), ("rtt_p99_ms", "ms"), ("req_per_s", "1/s"),
]


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no spectrebench sources: {ROOT / 'src' / 'CMakeLists.txt'} is missing")
    if not (ROOT / GOLDEN).is_file():
        fail(f"no pareto golden at {ROOT / GOLDEN}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    (ROOT / SCRATCH).mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
            fail(f"build step failed: {' '.join(step)}", 1)
    return BUILD_DIR / "perfbench"


def run_binary(binary, workload, seed, jobs, deadline, trace=0, setup_only=False):
    """One perfbench process; its JSON document. Fails the run when the
    process fails or would end after `deadline` (time.monotonic())."""
    command = [str(binary), f"--workload={workload}", f"--seed={seed}", f"--jobs={jobs}",
               f"--trace={trace}", f"--golden={GOLDEN}", f"--scratch={SCRATCH}"]
    if setup_only:
        command.append("--setup-only")
    timeout = max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s", 1)
    if done.returncode != 0 or not done.stdout.strip():
        sys.stderr.write(done.stderr[-4000:])
        fail(f"{workload}: perfbench exited with code {done.returncode}", 1)
    return json.loads(done.stdout.strip().splitlines()[-1])


def host_record(raw):
    """Facts about the host that change host timings; results whose host
    records differ are not comparable (compare.py refuses them)."""
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    vulnerabilities = {}
    vuln_dir = Path("/sys/devices/system/cpu/vulnerabilities")
    if vuln_dir.is_dir():
        for entry in sorted(vuln_dir.iterdir()):
            try:
                vulnerabilities[entry.name] = entry.read_text().strip()
            except OSError:
                vulnerabilities[entry.name] = "unreadable"
    status = raw["speculation"]
    return {
        "cpu_model": cpu_model,
        "nproc": len(os.sched_getaffinity(0)),
        "cpus_allowed_list": status.get("Cpus_allowed_list", "unknown"),
        "build_type": raw["build_type"],
        "speculation_store_bypass": status.get("Speculation_Store_Bypass", "unknown"),
        "speculation_indirect_branch": status.get("SpeculationIndirectBranch", "unknown"),
        "vulnerabilities": vulnerabilities,
    }


class Gate:
    """Counts checked outputs; a result is correct only if none failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.notes = set()

    def add(self, checks):
        """Adds the checks a perfbench process made itself."""
        self.attempted += checks["attempted"]
        self.failed += checks["failed"]
        self.failures += checks["failures"]

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def check_recorded(raw, expected, gate):
    """Outputs must match the digests and exact counts recorded with the
    benchmark. Trace-cache hit/miss counts are mechanism, not output: a moved
    one is reported, not failed. They are compared at jobs=1 only: at jobs=P
    concurrent misses on one key race."""
    variant = str(raw["variant"])
    for output in raw["outputs"]:
        phase = output["phase"]
        workload = phase.split(".", 1)[1] if phase.startswith("traced.") else raw["workload"]
        key = "*" if workload == "pareto" else variant
        want = expected.get(workload, {}).get(key)
        if want is None:
            gate.expect(False, f"{workload}: no recorded output for variant {key}")
            continue
        if output["digest"] is not None:
            gate.expect(output["digest"] == want["digest"],
                        f"{workload} {phase}: output digest {output['digest']} != recorded {want['digest']}")
        for name, value in sorted(output["counts"].items()):
            gate.expect(want["counts"].get(name) == value,
                        f"{workload} {phase}: count {name} moved: {value} != recorded {want['counts'].get(name)}")
        if phase == "jobs=1":
            for name, value in sorted(output["mechanism"].items()):
                if want["mechanism"].get(name) != value:
                    gate.notes.add(f"{workload}: {name} moved to {value} "
                                   f"(recorded {want['mechanism'].get(name)})")


def measure(binary, args, jobs_par, deadline):
    """Fresh processes at jobs=1 and jobs=P, pair after pair, while another
    pair still fits in --seconds (at least one pair)."""
    pairs = []
    start = time.monotonic()
    last = 0.0
    while not pairs or time.monotonic() - start + last <= args.seconds:
        began = time.monotonic()
        pairs.append(tuple(run_binary(binary, args.workload, args.seed, jobs, deadline)
                           for jobs in (1, jobs_par)))
        last = time.monotonic() - began
    return pairs


def check_pairs(pairs, gate):
    """jobs=1 and jobs=P must produce byte-identical output."""
    for serial, parallel in pairs:
        for a, b in zip(serial["outputs"], parallel["outputs"]):
            gate.expect(a["digest"] == b["digest"] and a["counts"] == b["counts"],
                        f"{serial['workload']}: jobs=1 and jobs=P outputs differ")


def end_to_end(workload, pairs, setup_samples, jobs_par):
    """metric -> (value, unit, sample count, note)."""
    serial = [a for a, _ in pairs]
    parallel = [b for _, b in pairs]
    n = len(pairs)
    if workload == "serve":
        # Percentiles of each jobs=P process's requests, then the median over
        # processes: a load burst on the host moves one process's p99, not
        # the run's.
        per_run = [run["latency_ms"] for run in parallel]
        samples = sum(len(latencies) for latencies in per_run)
        median_latency = ledger.median([ledger.median(lat) for lat in per_run])
        tails = [ledger.tail_latency(lat) for lat in per_run]
        tail = ledger.median([value for value, _ in tails])
        q = min(q for _, q in tails)
        tail_note = f"median over {n} processes of the p{q:g} of each one's requests"
        median_note = f"median over {n} processes of each one's median request latency"
    else:
        # A batch workload has no request stream: its request is one whole
        # run, as a caller of the entry point waits for it at jobs=1.
        latencies = [run["wall_s"] * 1e3 for run in serial]
        samples = len(latencies)
        median_latency = ledger.median(latencies)
        tail, q = ledger.tail_latency(latencies)
        tail_note = f"p{q:g} of the jobs=1 run latencies"
        median_note = "median jobs=1 run latency"
    if q != 99.0:
        tail_note += f" (too few for a p99 with {ledger.MIN_BEYOND} samples beyond it)"
    values = {
        "setup_s": (ledger.median(setup_samples), len(setup_samples),
                    "median CPU time of fresh set-up processes"),
        "wall_s": (ledger.median([r["wall_s"] for r in serial]), n, "median, jobs=1"),
        "wall_s_par": (ledger.median([r["wall_s"] for r in parallel]), n, f"median, jobs={jobs_par}"),
        "cpu_s": (ledger.median([r["cpu_s"] for r in parallel]), n, "median user+sys, jobs=P"),
        "peak_rss_mb": (ledger.median([r["peak_rss_kb"] for r in parallel]) / 1024.0, n,
                        "median process peak, jobs=P"),
        "rtt_p50_ms": (median_latency, samples, median_note),
        "rtt_p99_ms": (tail, samples, tail_note),
        "req_per_s": (ledger.median([r["ops"] / r["wall_s"] if r["wall_s"] else 0.0
                                     for r in parallel]), n,
                      "median operations/s, jobs=P"),
    }
    return {name: (values[name][0], unit, *values[name][1:]) for name, unit in END_TO_END}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result, host record included, here")
    parser.add_argument("--record", action="store_true",
                        help="re-record the expected outputs of every workload variant")
    args = parser.parse_args()
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    binary = build()
    if args.record:
        record(binary)
        return 0

    deadline = time.monotonic() + RUN_TIMEOUT_S
    jobs_par = min(4, len(os.sched_getaffinity(0)))
    with open(EXPECTED) as f:
        expected = json.load(f)
    if args.trace:
        runs = [run_binary(binary, args.workload, args.seed, jobs_par, deadline, trace=1)]
    else:
        setup_samples = [run_binary(binary, args.workload, args.seed, jobs_par, deadline,
                                    setup_only=True)["setup_s"] for _ in range(SETUP_SAMPLES)]
        pairs = measure(binary, args, jobs_par, deadline)
        runs = [run for pair in pairs for run in pair]
    gate = Gate()
    for run in runs:
        gate.add(run["checks"])
        check_recorded(run, expected, gate)
    if not args.trace:
        check_pairs(pairs, gate)

    host = host_record(runs[0])
    print(f"perfbench {args.workload} seed={args.seed} variant={runs[0]['variant']} "
          f"seconds={args.seconds} trace={args.trace} jobs=1 and P={jobs_par}")
    print("host " + json.dumps(host, sort_keys=True))
    print("start state: " + runs[0]["start_state"])
    metrics = {}
    if args.trace:
        units = ledger.layer_units()
        for name, value in ledger.layer_metrics(runs[0]["trace"], jobs_par).items():
            metrics[name] = {"value": value, "unit": units[name]}
            print(f"{name:40s} {value:16.6f} {units[name]}")
    else:
        for name, (value, unit, n, note) in end_to_end(args.workload, pairs, setup_samples,
                                                       jobs_par).items():
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:12s} {value:14.6f} {unit:4s} n={n:<5d} {note}")
    fail_frac = gate.failed / gate.attempted if gate.attempted else 1.0
    print(f"fail_frac    {fail_frac:14.6f} ratio {gate.failed}/{gate.attempted} checks failed")
    for note in sorted(gate.notes):
        print("note: " + note)
    for failure in gate.failures[:20]:
        print("FAILED: " + failure)
    result = {"correct": gate.failed == 0 and gate.attempted > 0,
              "attempted": max(gate.attempted, 1), "failed": gate.failed, "metrics": metrics}
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                       "host": host, **result}, f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def record(binary):
    """Runs one repetition of every input variant and writes its output
    digest and counts to expected.json. Only for a deliberate change of
    what the workloads compute; a speed-up must leave this file alone."""
    expected = {}
    for workload in ("pareto", "fig2", "difftest"):
        keys = ["*"] if workload == "pareto" else [str(v) for v in range(VARIANTS)]
        for key in keys:
            raw = run_binary(binary, workload, 0 if key == "*" else int(key), 1, float("inf"))
            if raw["checks"]["failed"]:
                fail(f"{workload} variant {key}: {raw['checks']['failures']}", 1)
            output = raw["outputs"][0]
            expected.setdefault(workload, {})[key] = {
                "digest": output["digest"], "counts": output["counts"],
                "mechanism": output["mechanism"]}
            print(f"recorded {workload} variant {key}: {output['digest']}", file=sys.stderr)
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    sys.exit(main())
