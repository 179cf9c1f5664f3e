#!/usr/bin/env bash
# Tier-1 gate: the full build + test sweep (once under the default
# thread-per-rank scheduler, once with DAMPI_SCHED=coop so every test
# also runs on the cooperative fiber scheduler, once with
# DAMPI_MATCH=linear so every test also runs on the linear matching
# oracle, once with DAMPI_ENGINE_LOCK=global so every test also runs on
# the single-mutex engine baseline, once with DAMPI_POR=off so every
# test also runs on the unpruned cross-product walk), the resilience
# stage (resil-labelled tests, the verify_cli
# exit-code contract, a repeat-until-fail flake stage for the sched
# label, a livelock watchdog sweep across schedulers and
# jobs widths, and a SIGINT kill + --resume determinism smoke), a trace
# smoke test (a real workload exported with --trace
# must validate under trace_check), a DAMPI_TRACE=OFF configure+build
# check, a warn-only matcher perf smoke (bench_compare.py), a
# fault-sweep stage (sweep-labelled tests, the --sweep-faults exit-code
# contract, a SIGINT kill + --resume byte-identity smoke, and the
# bench_sweep worker-count determinism check), then the
# concurrent explorer tests again under ThreadSanitizer
# (-DDAMPI_SANITIZE=thread; only the
# `concurrency`/`obs`/`match`/`enginelock` labelled tests rerun there,
# so the TSan stage stays fast; coop fibers
# are unsupported under TSan and fall back to the thread scheduler,
# which is exactly the path TSan can check).
#
# Usage: scripts/tier1.sh [--skip-tsan]
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 2)"

cmake -B build -S .
cmake --build build -j "${jobs}"
(cd build && ctest --output-on-failure -j "${jobs}")

# The whole suite again under the cooperative scheduler: DAMPI_SCHED
# switches the default SchedOptions every engine picks up, so any test
# not pinning a scheduler reruns on coop fibers.
(cd build && DAMPI_SCHED=coop ctest --output-on-failure -j "${jobs}")
echo "tier1: coop-scheduler sweep OK"

# And again with the linear matcher: DAMPI_MATCH swaps the default
# matching structure, so every test not pinning one reruns on the
# O(queue) scan oracle. Any behavioural gap between the matchers shows
# up as a suite difference here.
(cd build && DAMPI_MATCH=linear ctest --output-on-failure -j "${jobs}")
echo "tier1: linear-matcher sweep OK"

# And with the global-mutex engine baseline: DAMPI_ENGINE_LOCK swaps the
# default engine concurrency control, so every test not pinning a lock
# mode reruns on the pre-sharding single-mutex path. Verdicts are
# identical across modes by contract.
(cd build && DAMPI_ENGINE_LOCK=global ctest --output-on-failure -j "${jobs}")
echo "tier1: global-engine-lock sweep OK"

# And with sleep-set pruning disabled: DAMPI_POR swaps the default
# partial-order reduction mode, so every test not pinning one reruns on
# the full cross-product walk. Bug sets and per-epoch outcome sets are
# identical across modes by contract (the default suite already runs
# --por sleep, which prunes nothing without vector clocks).
(cd build && DAMPI_POR=off ctest --output-on-failure -j "${jobs}")
echo "tier1: por-off sweep OK"

# Resilience tests on their own label, so the stage shows up by name in
# the log even though the default sweep above already ran them.
(cd build && ctest --output-on-failure -L resil -j "${jobs}")
echo "tier1: resil sweep OK"

# Exit-code contract: 0 clean, 1 bugs, 2 partial coverage (budget /
# interrupted / quarantined), 3 usage or internal error.
expect_exit() {
  local want="$1"
  shift
  local got=0
  "$@" > /dev/null 2>&1 || got=$?
  if [[ "${got}" != "${want}" ]]; then
    echo "tier1: FAIL: expected exit ${want}, got ${got}: $*" >&2
    exit 1
  fi
}
expect_exit 0 build/examples/verify_cli --program fig3-benign --procs 3
expect_exit 1 build/examples/verify_cli --program fig3 --procs 3
expect_exit 2 build/examples/verify_cli --program fig3-benign --procs 3 \
  --max-interleavings 1
expect_exit 3 build/examples/verify_cli --program no-such-program
# A decisions file naming a rank outside [0, --procs) is rejected before
# anything runs (it used to write past a per-rank table).
bad_replay="build/tier1-bad-replay.txt"
printf '# dampi-epoch-decisions v1\n9 0 1\n' > "${bad_replay}"
expect_exit 3 build/examples/verify_cli --program fig3-benign --procs 3 \
  --replay "${bad_replay}"
rm -f "${bad_replay}"
echo "tier1: exit-code contract OK"

# Flake stage: the scheduler tests must pass 20 times in a row, and
# TestAny.ReturnsLowestReadyIndex, which once raced an eager send under
# the thread scheduler, 500 times.
(cd build && ctest --output-on-failure -L sched --repeat until-fail:20 \
  -j "${jobs}")
(cd build && ctest --output-on-failure \
  -R '^TestAny\.ReturnsLowestReadyIndex$' --repeat until-fail:500)
echo "tier1: repeat (flake) stage OK"

# Watchdog end-to-end: the livelocked example must become a HANG verdict
# (exit 1) under both schedulers at every jobs width, well inside the
# deadline instead of wedging the campaign.
for sched in thread coop; do
  for w in 1 4; do
    out="$(timeout 60 build/examples/verify_cli --program livelock \
      --procs 2 --sched "${sched}" --jobs "${w}" --run-deadline 2 \
      --max-interleavings 4)" && rc=0 || rc=$?
    if [[ "${rc}" != 1 ]] || ! grep -q "HANG (watchdog)" <<< "${out}"; then
      echo "tier1: FAIL: livelock sched=${sched} jobs=${w} rc=${rc}" >&2
      exit 1
    fi
  done
done
echo "tier1: livelock watchdog sweep OK"

# Kill/resume smoke: SIGINT a checkpointing exploration mid-flight, then
# --resume it; the resumed campaign must report exactly what an
# uninterrupted one does (works even if the signal lands after the walk
# finished — then the resume is a no-op continuation).
ckpt="build/tier1-resume.ckpt"
rm -f "${ckpt}"
baseline_rc=0
baseline="$(build/examples/verify_cli --program matmult --procs 4 \
  --sched coop --max-interleavings 150)" || baseline_rc=$?
build/examples/verify_cli --program matmult --procs 4 --sched coop \
  --max-interleavings 150 --checkpoint "${ckpt}" \
  --checkpoint-interval 5 > /dev/null &
pid=$!
sleep 0.4
kill -INT "${pid}" 2> /dev/null || true
wait "${pid}" || true
resumed_rc=0
resumed="$(build/examples/verify_cli --program matmult --procs 4 \
  --sched coop --max-interleavings 150 --checkpoint "${ckpt}" \
  --resume)" || resumed_rc=$?
filter() { grep -E "interleavings explored|verdict" <<< "$1" | \
  sed 's/ (interrupted)//'; }
if [[ "${resumed_rc}" != "${baseline_rc}" ]] || \
   [[ "$(filter "${baseline}")" != "$(filter "${resumed}")" ]]; then
  echo "tier1: FAIL: resume mismatch (rc ${baseline_rc} vs ${resumed_rc})" >&2
  diff <(filter "${baseline}") <(filter "${resumed}") >&2 || true
  exit 1
fi
rm -f "${ckpt}"
echo "tier1: SIGINT kill/resume smoke OK"

# Distributed campaign stage. A 4-worker sharded campaign must report
# exactly what the 1-worker campaign does on every example — same exit
# code, same interleaving count, same verdict (coop scheduler: both
# sides fully deterministic).
for prog in fig3-benign fig3 fig4 wildcard-deadlock; do
  single_rc=0
  single="$(build/examples/verify_cli --program "${prog}" --sched coop \
    --workers 1)" || single_rc=$?
  multi_rc=0
  multi="$(build/examples/verify_cli --program "${prog}" --sched coop \
    --workers 4)" || multi_rc=$?
  if [[ "${multi_rc}" != "${single_rc}" ]] || \
     [[ "$(filter "${single}")" != "$(filter "${multi}")" ]]; then
    echo "tier1: FAIL: distributed mismatch on ${prog}" \
      "(rc ${single_rc} vs ${multi_rc})" >&2
    diff <(filter "${single}") <(filter "${multi}") >&2 || true
    exit 1
  fi
done
echo "tier1: distributed 4-worker sweep OK"

# Kill-a-worker smoke: SIGKILL a worker process mid-campaign; the
# coordinator must requeue its shard from the per-worker journal
# (<ckpt>.wN) and finish with the undisturbed campaign's exact result.
# (If the kill races past the campaign's end it degrades to a plain
# equality check, same stance as the SIGINT smoke above.)
dist_ckpt="build/tier1-dist.ckpt"
rm -f "${dist_ckpt}" "${dist_ckpt}".w*
expected_rc=0
expected="$(build/examples/verify_cli --program dist-fanout --procs 6 \
  --sched coop --max-interleavings 100000 --workers 2)" || expected_rc=$?
build/examples/verify_cli --program dist-fanout --procs 6 --sched coop \
  --max-interleavings 100000 --workers 2 --checkpoint "${dist_ckpt}" \
  > build/tier1-dist.out 2>&1 &
coord=$!
for _ in $(seq 1 100); do
  wpid="$(pgrep -n -f "verify_cli.*--worker-id" || true)"
  [[ -n "${wpid}" ]] && break
  kill -0 "${coord}" 2> /dev/null || break
  sleep 0.01
done
sleep 0.3
[[ -n "${wpid:-}" ]] && kill -KILL "${wpid}" 2> /dev/null || true
killed_rc=0
wait "${coord}" || killed_rc=$?
killed="$(cat build/tier1-dist.out)"
if [[ "${killed_rc}" != "${expected_rc}" ]] || \
   [[ "$(filter "${expected}")" != "$(filter "${killed}")" ]]; then
  echo "tier1: FAIL: kill-a-worker result mismatch" \
    "(rc ${expected_rc} vs ${killed_rc})" >&2
  diff <(filter "${expected}") <(filter "${killed}") >&2 || true
  exit 1
fi
rm -f "${dist_ckpt}" "${dist_ckpt}".w* build/tier1-dist.out
echo "tier1: distributed kill-a-worker smoke OK"

# Distributed tests on their own label, same visibility rationale as the
# resil stage.
(cd build && ctest --output-on-failure -L dist -j "${jobs}")
echo "tier1: dist sweep OK"

# Trace smoke test: a parallel exploration traced end to end must export
# a valid Chrome trace with a lane per rank (4), per worker (3), and the
# explorer lane. Exit 2 is expected: 200 interleavings do not finish
# matmult's decision space (partial coverage is the point of the smoke).
trace_out="build/tier1-trace.json"
trace_rc=0
build/examples/verify_cli --program matmult --procs 4 --jobs 4 \
  --max-interleavings 200 --trace "${trace_out}" > /dev/null || trace_rc=$?
if [[ "${trace_rc}" != 0 && "${trace_rc}" != 2 ]]; then
  echo "tier1: FAIL: trace smoke exited ${trace_rc}" >&2
  exit 1
fi
build/src/obs/trace_check "${trace_out}" --min-lanes 8
rm -f "${trace_out}"

# The tracer must also compile out cleanly.
cmake -B build-off -S . -DDAMPI_TRACE=OFF
cmake --build build-off -j "${jobs}" --target verify_cli trace_check
echo "tier1: DAMPI_TRACE=OFF build OK"

# Perf smoke: the indexed matcher (the default) must not lose to the
# linear oracle on the engine-path microbenchmarks. Warn-only — shared
# CI hosts are too noisy to gate on, but the table lands in the log.
if command -v python3 > /dev/null 2>&1; then
  python3 scripts/bench_compare.py --warn-only
  echo "tier1: matcher perf smoke OK"
else
  echo "tier1: python3 unavailable, skipping matcher perf smoke"
fi

# Lock-contention smoke: global mutex vs sharded engine lock. Warn-only
# for the same reason — and on a 1-core host the sharded curve is
# legitimately flat (the JSON records hw_threads for exactly that).
(cd build/bench && DAMPI_BENCH_QUICK=1 ./bench_contention > /dev/null)
if command -v python3 > /dev/null 2>&1; then
  python3 scripts/bench_compare.py \
    --contention build/bench/BENCH_contention.json --warn-only
fi
echo "tier1: lock-contention smoke OK"

# Distributed scaling smoke: the bench itself fails on any cross-width
# divergence; the compare step re-checks the JSON (warn-only for the
# speedup column — scaling is conditional on cores, equivalence is not).
DAMPI_BENCH_QUICK=1 DAMPI_BENCH_OUT=build/BENCH_distributed.json \
  build/bench/bench_distributed
if command -v python3 > /dev/null 2>&1; then
  python3 scripts/bench_compare.py \
    --distributed build/BENCH_distributed.json --warn-only
fi
echo "tier1: distributed scaling smoke OK"

# POR soundness smoke: the bench exits non-zero if --por sleep ever
# diverges from off (equivalence is the gate; the reduction ratio is
# informational and re-printed by the compare step).
DAMPI_BENCH_QUICK=1 DAMPI_BENCH_OUT=build/BENCH_por.json \
  build/bench/bench_por
if command -v python3 > /dev/null 2>&1; then
  python3 scripts/bench_compare.py --por build/BENCH_por.json --warn-only
fi
echo "tier1: POR soundness smoke OK"

# Fault-sweep tests on their own label, same visibility rationale as the
# resil and dist stages.
(cd build && ctest --output-on-failure -L sweep -j "${jobs}")
echo "tier1: sweep tests OK"

# Sweep exit-code contract: 0 = every injection tolerated (propagated or
# masked), 1 = a plan uncovered a deadlock/hang/latent bug, 3 = usage
# error (--fault conflicts with --sweep-faults; an out-of-range fault
# rank is rejected eagerly, before any exploration runs).
expect_exit 0 build/examples/verify_cli --program fig3-benign --procs 3 \
  --sched coop --sweep-faults --sweep-budget 8 --max-interleavings 16
expect_exit 1 build/examples/verify_cli --program wildcard-deadlock \
  --procs 3 --sched coop --sweep-faults --sweep-kinds delay \
  --sweep-budget 6 --max-interleavings 32
expect_exit 3 build/examples/verify_cli --program fig3-benign --procs 3 \
  --sweep-faults --fault abort@0:1
expect_exit 3 build/examples/verify_cli --program fig3-benign --procs 3 \
  --fault abort@5:1
echo "tier1: sweep exit-code contract OK"

# Sweep SIGINT kill + --resume smoke: interrupt a journalled sweep
# mid-flight, then --resume it. The resumed report must be byte-identical
# to an uninterrupted run's, and the journalled plans must not re-execute
# (resumed count == plans completed before the kill). Delay plans on
# matmult keep the sweep alive long enough (~0.9s) for the signal to
# land; if it races past the end anyway, the resume degrades to an
# idempotence check — 0 executed, all resumed — same stance as the
# checkpoint smoke above.
sweep_journal="build/tier1-sweep.journal"
sweep_ref="build/tier1-sweep-ref.json"
sweep_resumed="build/tier1-sweep-resumed.json"
rm -f "${sweep_journal}" "${sweep_ref}" "${sweep_resumed}"
sweep_cmd=(build/examples/verify_cli --program matmult --procs 4 \
  --sched coop --sweep-faults --sweep-kinds delay --sweep-budget 8 \
  --max-interleavings 1024)
ref_rc=0
"${sweep_cmd[@]}" --sweep-report "${sweep_ref}" > /dev/null || ref_rc=$?
"${sweep_cmd[@]}" --sweep-journal "${sweep_journal}" > /dev/null 2>&1 &
sweep_pid=$!
sleep 0.35
kill -INT "${sweep_pid}" 2> /dev/null || true
wait "${sweep_pid}" || true
journalled="$(grep -c '^plan ' "${sweep_journal}" 2> /dev/null || echo 0)"
resume_rc=0
resume_out="$("${sweep_cmd[@]}" --sweep-journal "${sweep_journal}" \
  --resume --sweep-report "${sweep_resumed}")" || resume_rc=$?
if [[ "${resume_rc}" != "${ref_rc}" ]] || \
   ! cmp -s "${sweep_ref}" "${sweep_resumed}"; then
  echo "tier1: FAIL: sweep resume mismatch (rc ${ref_rc} vs ${resume_rc})" >&2
  diff "${sweep_ref}" "${sweep_resumed}" >&2 || true
  exit 1
fi
if ! grep -q "${journalled} resumed" <<< "${resume_out}"; then
  echo "tier1: FAIL: sweep resume re-executed journalled plans" \
    "(expected ${journalled} resumed)" >&2
  grep "resumed" <<< "${resume_out}" >&2 || true
  exit 1
fi
rm -f "${sweep_journal}" "${sweep_ref}" "${sweep_resumed}"
echo "tier1: sweep SIGINT kill/resume smoke OK"

# Sweep throughput smoke: the bench fails on any report divergence across
# worker counts; the compare step re-checks the JSON (warn-only for the
# speedup column, equivalence is the gate).
DAMPI_BENCH_QUICK=1 DAMPI_BENCH_OUT=build/BENCH_sweep.json \
  build/bench/bench_sweep
if command -v python3 > /dev/null 2>&1; then
  python3 scripts/bench_compare.py --sweep build/BENCH_sweep.json --warn-only
fi
echo "tier1: sweep throughput smoke OK"

if [[ "${1:-}" == "--skip-tsan" ]]; then
  echo "tier1: skipping ThreadSanitizer stage"
  exit 0
fi

cmake -B build-tsan -S . -DDAMPI_SANITIZE=thread
cmake --build build-tsan -j "${jobs}" \
  --target test_explorer_parallel test_obs test_match_index \
           test_engine_lock test_por test_sweep
(cd build-tsan && ctest --output-on-failure \
  -L 'concurrency|obs|match|enginelock|por|sweep' -j "${jobs}")
echo "tier1: OK (including TSan concurrency + obs + match + enginelock + por + sweep stage)"
