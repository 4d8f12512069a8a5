#!/usr/bin/env bash
# Regenerates every golden fixture under tests/golden/ in one deterministic
# step. Run it after an intentional model or format change (a new mitigation
# knob, a new attack spec, a renderer change), then review the diff: a
# changed byte means a changed verdict or a changed overhead, never noise.
#
#   tools/regen_goldens.sh [build-dir]
#
# Covers, in dependency order:
#   * tests/golden/corpus_trace_hashes.txt — architectural refactor guard
#     (the CLI's `difftest --replay --arch-hashes` emitter; this one should
#     only ever change when the ISA, the corpus, or the DiffConfig panel
#     changes — NOT when mitigation costs move)
#   * tests/golden/pareto.json            — the security x overhead frontier
#   * tests/golden/counters.json          — cause-attribution counter matrix
#   * tests/golden/analyze.json           — analyze-report fixture
#   * tests/golden/sweep.json / sweep.csv — sweep emitter fixtures
#   * tests/golden/harden_grid.json       — the pass overhead matrix
#   * tests/golden/scorecard.txt          — the paper-claim scorecard
#   * tests/golden/harden_corpus.json / attacks.txt — `harden --json` over
#     the gadget corpus and the `attacks` table, as the CLI prints them
#
# Every generator is byte-deterministic for any --jobs, so the script runs
# them at full parallelism and the output is still reproducible.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"

if [[ ! -d "${build_dir}" ]]; then
  echo "regen_goldens: build directory ${build_dir} not found" >&2
  echo "  cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

cmake --build "${build_dir}" -j \
  --target spectrebench pareto_golden_test counters_golden_test \
           analyze_golden_test runner_test passes_test difftest_test \
           scorecard_golden_test cli_test

cd "${repo_root}"

echo "== arch hashes (refactor guard) =="
"${build_dir}/tools/spectrebench" difftest \
  --replay=tests/corpus/store-order-zen2.difftest --arch-hashes \
  > tests/golden/corpus_trace_hashes.txt

echo "== pareto.json =="
SPECBENCH_REGEN_GOLDEN=1 "${build_dir}/tests/pareto_golden_test" \
  --gtest_filter='ParetoGolden.JsonMatchesGoldenFileByteForByte'

echo "== counters.json =="
SPECBENCH_REGEN_GOLDEN=1 "${build_dir}/tests/counters_golden_test"

echo "== analyze.json =="
SPECBENCH_REGEN_GOLDEN=1 "${build_dir}/tests/analyze_golden_test"

echo "== sweep.json / sweep.csv =="
SPECBENCH_REGEN_GOLDEN=1 "${build_dir}/tests/runner_test" \
  --gtest_filter='SweepEmitters.*'

echo "== harden_grid.json =="
SPECBENCH_REGEN_GOLDEN=1 "${build_dir}/tests/passes_test" \
  --gtest_filter='HardenGrid.JsonMatchesGoldenFileByteForByte'

echo "== scorecard.txt =="
SPECBENCH_REGEN_GOLDEN=1 "${build_dir}/tests/scorecard_golden_test" \
  --gtest_filter='ScorecardGolden.CliOutputMatchesGoldenFileByteForByte'

echo "== harden_corpus.json / attacks.txt =="
SPECBENCH_REGEN_GOLDEN=1 "${build_dir}/tests/cli_test" --gtest_filter='CliGolden.*'

echo "== verify: everything agrees with the refreshed fixtures =="
"${build_dir}/tests/difftest_test" --gtest_filter='Corpus.ArchHashesMatchTheGoldenFile'
"${build_dir}/tests/pareto_golden_test"
"${build_dir}/tests/counters_golden_test"
"${build_dir}/tests/analyze_golden_test"
"${build_dir}/tests/runner_test" --gtest_filter='SweepEmitters.*'
"${build_dir}/tests/passes_test" --gtest_filter='HardenGrid.*'
"${build_dir}/tests/scorecard_golden_test"
"${build_dir}/tests/cli_test" --gtest_filter='CliGolden.*'

echo "regen_goldens: done — review the diff under tests/golden/"
git -C "${repo_root}" --no-pager diff --stat -- tests/golden || true
