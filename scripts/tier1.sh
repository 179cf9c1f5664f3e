#!/usr/bin/env bash
# Tier-1 gate: the full build + test sweep, twice: once on the default
# cooperative fiber scheduler and once with DAMPI_SCHED=thread so every
# test also runs on OS threads. The differential oracles (linear
# matcher, global engine lock, unpruned walk) get no sweep of their own;
# their labelled suites (match, enginelock, por) compare them against
# the defaults inside both sweeps. Then:
#  - the resilience stage: resil-labelled tests, the verify_cli
#    exit-code contract (including bad flag values and corrupt
#    checkpoints), a repeat-until-fail flake stage for the whole suite
#    on coop (3 times) and the sched, dist, alloc and enginelock labels,
#    a livelock watchdog sweep across both schedulers, and a
#    SIGINT kill + --resume determinism smoke;
#  - the distributed stage: 2-, 4- and 8-worker campaigns must match
#    the 1-worker one, kill-a-worker, and the dist label;
#  - a trace smoke test (a real workload exported with --trace must
#    validate under trace_check);
#  - a perf_ledger.py smoke on an inline two-pair fixture (wall-clock
#    speed itself is measured by perfbench/, not here);
#  - a fault-sweep stage: sweep-labelled tests, the --sweep-faults
#    exit-code contract, adlb's sweep report byte-identical at 1, 2, 4
#    and 8 workers with the same run count at 2, 4 and 8 and no more in
#    process (at most 1400 runs at 256 interleavings per plan: every
#    plan is a lane of one loop over shared replays), a flaky adlb
#    sweep that takes no retry backoff and counts the same retries at 1
#    and 2 workers (worker metrics reach the coordinator), and a SIGINT
#    kill + --resume byte-identity smoke in process and on 2 worker
#    processes;
#  - a gate keeping std::thread out of src/ but for the thread scheduler,
#    and a Release build of the whole tree (no tests);
#  - a ThreadSanitizer stage (-DDAMPI_SANITIZE=thread): the concurrency,
#    obs, match, enginelock, por, sweep and alloc labels with
#    DAMPI_SCHED=thread — the engine lock follows the scheduler, so the
#    locking itself (global and sharded), one replay context reused
#    across runs whose rank threads must happen after the previous run's,
#    and a piggybacked clock that its sender writes on the envelope and its
#    receiver reads after completion (alloc's RequestPathPin on threads),
#    are only exercised here and in the thread sweep — then the whole suite
#    on the default coop scheduler, whose fiber switches are annotated;
#  - an AddressSanitizer plus UndefinedBehaviorSanitizer stage
#    (-DDAMPI_SANITIZE=address,undefined), where recycled pool memory is
#    poisoned until it is handed out again: the whole suite on coop, the
#    alloc, match and sched labels with DAMPI_SCHED=thread, the dist
#    label repeated until it fails, up to 10 times, and the fuzz label
#    (mutated decision files, checkpoints, sweep journals and DMP1
#    payloads) up to 3 times.
#
# Usage: scripts/tier1.sh [--skip-tsan]
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 2)"

cmake -B build -S .
cmake --build build -j "${jobs}"
(cd build && ctest --output-on-failure -j "${jobs}")

# The whole suite again on OS threads: DAMPI_SCHED switches the default
# SchedOptions every engine picks up, so any test not pinning a
# scheduler reruns with one thread per rank and real preemption.
(cd build && DAMPI_SCHED=thread ctest --output-on-failure -j "${jobs}")
echo "tier1: thread-scheduler sweep OK"

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
# Every numeric flag takes exactly one number in range, --clock one of
# its two names; retired flags (the backend oracles, --jobs,
# --dist-socket) are unknown options even with a valid value.
for bad in "--procs 0" "--procs abc" "--clock bogus" "--k -3" "--jobs 2" \
  "--max-interleavings -1" "--sched-seed x" "--run-deadline abc" \
  "--retries -2" "--checkpoint-interval 0" "--match linear" \
  "--engine-lock global" "--por off" "--dist-socket /tmp/x" \
  "--procs 300000000"; do
  # shellcheck disable=SC2086  # split "--flag value" into two words
  expect_exit 3 build/examples/verify_cli --program fig3-benign ${bad}
done
# A trace capacity past 2^63 used to spin the tracer's power-of-two
# rounding forever; it is refused before anything is traced.
cap_trace="build/tier1-capacity.json"
expect_exit 3 timeout 10 build/examples/verify_cli --program fig3-benign \
  --trace "${cap_trace}" --trace-capacity 9223372036854775809
rm -f "${cap_trace}"
# A checkpoint frame naming a rank or source outside [0, --procs) is
# rejected at load: rank 9 used to abort (exit 134), an untried source
# of 99 used to report a false bug (exit 1).
bad_ckpt="build/tier1-bad.ckpt"
rm -f "${bad_ckpt}" "${bad_ckpt}.good"
build/examples/verify_cli --program matmult --procs 4 \
  --max-interleavings 10 --checkpoint "${bad_ckpt}.good" > /dev/null || true
awk '!done && $1 == "frame" { $2 = 9; done = 1 } 1' \
  "${bad_ckpt}.good" > "${bad_ckpt}"
expect_exit 3 build/examples/verify_cli --program matmult --procs 4 \
  --checkpoint "${bad_ckpt}" --resume
awk '!done && $1 == "frame" && $8 == "u" && $9 > 0 { $10 = 99; done = 1 } 1' \
  "${bad_ckpt}.good" > "${bad_ckpt}"
if cmp -s "${bad_ckpt}" "${bad_ckpt}.good"; then
  echo "tier1: FAIL: matmult checkpoint has no untried source to corrupt" >&2
  exit 1
fi
expect_exit 3 build/examples/verify_cli --program matmult --procs 4 \
  --checkpoint "${bad_ckpt}" --resume
# A count prefix larger than the tokens on its line used to size a vector
# and abort (exit 134); a sign on an unsigned counter used to wrap and
# resume (exit 0). Both are refused with a line-numbered diagnostic.
awk '{ print } $1 == "counters" { print "ffires 4000000000000000000" }' \
  "${bad_ckpt}.good" > "${bad_ckpt}"
expect_exit 3 build/examples/verify_cli --program matmult --procs 4 \
  --checkpoint "${bad_ckpt}" --resume
awk '$1 == "interleavings" { $2 = -1 } 1' "${bad_ckpt}.good" > "${bad_ckpt}"
expect_exit 3 build/examples/verify_cli --program matmult --procs 4 \
  --checkpoint "${bad_ckpt}" --resume
# A worker's shard journal (<ckpt>.wN) flags its coordinator-owned frames
# with `e 1`, which serialize_frame writes right after the seen set.
# Resuming one standalone dropped every alternative those sites revealed
# (a false "clean", exit 0); it is refused by name instead.
awk '!done && $1 == "frame" { n = $9; f = 11 + n + $(11 + n); $f = $f " e 1"
  done = 1 } 1' "${bad_ckpt}.good" > "${bad_ckpt}"
expect_exit 3 build/examples/verify_cli --program matmult --procs 4 \
  --checkpoint "${bad_ckpt}" --resume
shard_out="$(build/examples/verify_cli --program matmult --procs 4 \
  --checkpoint "${bad_ckpt}" --resume)" || true
if ! grep -q "escape flag (e 1): worker shard journal" <<< "${shard_out}" || \
   grep -q ": line [0-9]*:" <<< "${shard_out}"; then
  echo "tier1: FAIL: shard journal not refused by its escape flag:" \
    "${shard_out}" >&2
  exit 1
fi
rm -f "${bad_ckpt}" "${bad_ckpt}.good"
echo "tier1: exit-code contract OK"

# Flake stage: the whole suite on the default coop scheduler must pass
# 3 times in a row, the scheduler tests 20 times, the distributed tests
# (worker spawn, death detection, stealing), the reused-replay-context
# tests and the engine-lock tests (the coop fingerprint pin and the
# thread-mode lock stress) 10 times, and
# TestAny.ReturnsLowestReadyIndex, which once raced an eager send under
# the thread scheduler, 500 times.
(cd build && ctest --output-on-failure --repeat until-fail:3 -j "${jobs}")
(cd build && ctest --output-on-failure -L sched --repeat until-fail:20 \
  -j "${jobs}")
(cd build && ctest --output-on-failure -L dist --repeat until-fail:10 \
  -j "${jobs}")
(cd build && ctest --output-on-failure -L alloc --repeat until-fail:10 \
  -j "${jobs}")
(cd build && ctest --output-on-failure -L enginelock --repeat until-fail:10 \
  -j "${jobs}")
(cd build && ctest --output-on-failure \
  -R '^TestAny\.ReturnsLowestReadyIndex$' --repeat until-fail:500)
echo "tier1: repeat (flake) stage OK"

# Watchdog end-to-end: the livelocked example must become a HANG verdict
# (exit 1) under both schedulers, well inside the deadline instead of
# wedging the campaign.
for sched in thread coop; do
  out="$(timeout 60 build/examples/verify_cli --program livelock \
    --procs 2 --sched "${sched}" --run-deadline 2 \
    --max-interleavings 4)" && rc=0 || rc=$?
  if [[ "${rc}" != 1 ]] || ! grep -q "HANG (watchdog)" <<< "${out}"; then
    echo "tier1: FAIL: livelock sched=${sched} rc=${rc}" >&2
    exit 1
  fi
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

# Distributed campaign stage. A 2-, 4- and 8-worker sharded campaign
# must report exactly what the 1-worker campaign does on every example —
# same exit code, same interleaving count, same verdict (coop scheduler:
# both sides fully deterministic). dist-fanout at 5 ranks (576
# interleavings) gives the wider campaigns shards to split and steal.
for prog in fig3-benign fig3 fig4 wildcard-deadlock "dist-fanout --procs 5"; do
  single_rc=0
  # shellcheck disable=SC2086  # split "name --procs N" into words
  single="$(build/examples/verify_cli --program ${prog} --sched coop \
    --workers 1)" || single_rc=$?
  for w in 2 4 8; do
    multi_rc=0
    # shellcheck disable=SC2086
    multi="$(build/examples/verify_cli --program ${prog} --sched coop \
      --workers "${w}")" || multi_rc=$?
    if [[ "${multi_rc}" != "${single_rc}" ]] || \
       [[ "$(filter "${single}")" != "$(filter "${multi}")" ]]; then
      echo "tier1: FAIL: distributed mismatch on ${prog} at ${w} workers" \
        "(rc ${single_rc} vs ${multi_rc})" >&2
      diff <(filter "${single}") <(filter "${multi}") >&2 || true
      exit 1
    fi
  done
done
echo "tier1: distributed 2/4/8-worker sweep OK"

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

# Trace smoke test: a fault sweep on 3 worker processes traced end to
# end must export a valid Chrome trace: the coordinator's lanes plus
# each worker's sweep, explorer and rank lanes, spliced in under the
# worker's pid from the <trace>.wN file it left (23 lanes at the time of
# writing). Exit 2 would mean partial coverage, which is acceptable
# here: the smoke checks the trace, not the verdict.
trace_out="build/tier1-trace.json"
trace_rc=0
build/examples/verify_cli --program matmult --procs 4 --sweep-faults \
  --sweep-budget 6 --workers 3 --max-interleavings 20 \
  --trace "${trace_out}" > /dev/null || trace_rc=$?
if [[ "${trace_rc}" != 0 && "${trace_rc}" != 2 ]]; then
  echo "tier1: FAIL: trace smoke exited ${trace_rc}" >&2
  exit 1
fi
build/src/obs/trace_check "${trace_out}" --min-lanes 8
if compgen -G "${trace_out}.w*" > /dev/null; then
  echo "tier1: FAIL: worker trace files left behind" >&2
  exit 1
fi
rm -f "${trace_out}"

# Ledger smoke: perf_ledger.py pairs two results.jsonl files run by run
# and reports quartiles, wins and the verdict, plus each side's commit and
# host-probe median from the context lines. Two pairs on one fixture:
# the change wins both interleavings_per_s pairs and one campaign_s pair.
# Each side also has two traced runs, whose per-layer metrics come out as
# per-side runs and medians.
if command -v python3 > /dev/null 2>&1; then
  ledger_dir="build/tier1-ledger"
  mkdir -p "${ledger_dir}"
  # commit seed probe probe campaign_s interleavings_per_s
  ledger_run() {
    printf '{"context": {"workload": "explore-adlb", "commit": "%s",'\
' "seed": %s, "trace": 0, "host_probe_s": [%s, %s]}, "result":'\
' {"correct": true, "attempted": 100, "failed": 0, "metrics":'\
' {"campaign_s": {"value": %s, "unit": "s"}, "interleavings_per_s":'\
' {"value": %s, "unit": "1/s"}}}}\n' "$@"
  }
  # commit seed mpism.us_per_op scheduler.switches_per_op
  traced_run() {
    printf '{"context": {"workload": "explore-adlb", "commit": "%s",'\
' "seed": %s, "trace": 1, "host_probe_s": [0.001]}, "result":'\
' {"correct": true, "attempted": 100, "failed": 0, "metrics":'\
' {"mpism.us_per_op": {"value": %s, "unit": "us"},'\
' "scheduler.switches_per_op": {"value": %s, "unit": "count"}}}}\n' "$@"
  }
  { ledger_run aaa 1 0.001 0.003 1.0 100
    traced_run aaa 1 0.5 0.25
    ledger_run aaa 2 0.002 0.009 1.2 110
    traced_run aaa 2 0.7 0.25; } > "${ledger_dir}/parent.jsonl"
  { ledger_run bbb 1 0.004 0.004 0.9 120
    traced_run bbb 1 0.3 0.25
    ledger_run bbb 2 0.005 0.001 1.3 130
    traced_run bbb 2 0.4 0.25; } > "${ledger_dir}/change.jsonl"
  python3 scripts/perf_ledger.py "${ledger_dir}/parent.jsonl" \
    "${ledger_dir}/change.jsonl" > "${ledger_dir}/ledger.json"
  python3 - "${ledger_dir}/ledger.json" << 'EOF'
import json, sys
ledger = json.load(open(sys.argv[1]))
assert ledger["parent_commit"] == "aaa", ledger
assert ledger["change_commit"] == "bbb", ledger
assert ledger["host"]["host_probe_s_median"] == {
    "explore-adlb/parent": 0.0025, "explore-adlb/change": 0.004}, ledger
block = ledger["workloads"]["explore-adlb"]
rate, secs = block["interleavings_per_s"], block["campaign_s"]
assert rate["parent"] == {"q1": 102.5, "median": 105.0, "q3": 107.5}, rate
assert rate["change_wins"] == 2 and rate["pairs"] == 2, rate
assert all(rate["verdict"].values()), rate
assert secs["change_wins"] == 1 and not secs["verdict"]["wins_9_of_10"], secs
assert block["failed_operations"] == 0, block
layers = ledger["traced_per_layer"]["explore-adlb"]
assert sorted(layers) == ["mpism.us_per_op", "scheduler.switches_per_op"]
assert layers["mpism.us_per_op"] == {
    "parent": {"median": 0.6, "runs": [0.5, 0.7]},
    "change": {"median": 0.35, "runs": [0.3, 0.4]}}, layers
assert layers["scheduler.switches_per_op"]["change"]["median"] == 0.25
EOF
  rm -rf "${ledger_dir}"
  echo "tier1: perf ledger smoke OK"
else
  echo "tier1: python3 unavailable, skipping perf ledger smoke"
fi

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

# Sweep reports at any worker count: adlb's full sweep at 8 ranks
# (151 plans) run in process and on 2, 4 and 8 worker processes must
# write byte-identical --sweep-report files. Its 68 abort/error pairs
# have one walk each, and its 15 delay and flaky plans are read off one
# fault-free walk, at every worker count: 68 plans are executed and 83
# records are shared (68 copies, 15 observed). Every walk is a lane fed
# shared replays: one batch of lanes in process, and on workers a batch
# per fault rank plus one for the fault-free walk. So the sweep makes
# the same number of runs (engine.runs, workers' runs included) at 2, 4
# and 8 workers, and no more in process, where all lanes share. At the
# per-plan budget of perfbench's sweep-adlb (256 interleavings) that is
# at most 1400 runs in process — one campaign per abort/error pair made
# 3661.
adlb_report="build/tier1-adlb-sweep"
runs_of() { awk '$1 == "engine.runs" { print $2 }' "$1"; }
for w in 1 2 4 8; do
  rc=0
  build/examples/verify_cli --program adlb --procs 8 --sweep-faults \
    --sweep-budget 512 --workers "${w}" --metrics \
    --sweep-report "${adlb_report}.${w}.json" \
    > "${adlb_report}.${w}.txt" || rc=$?
  if [[ "${rc}" == 3 || ! -s "${adlb_report}.${w}.json" ]]; then
    echo "tier1: FAIL: adlb sweep at ${w} workers exited ${rc}" >&2
    exit 1
  fi
  if ! cmp "${adlb_report}.1.json" "${adlb_report}.${w}.json"; then
    echo "tier1: FAIL: adlb sweep report differs at ${w} workers" >&2
    exit 1
  fi
  if ! grep -q "68 executed, 83 shared" "${adlb_report}.${w}.txt"; then
    echo "tier1: FAIL: adlb sweep at ${w} workers did not execute 68 and" \
      "share 83 plans" >&2
    grep "executed" "${adlb_report}.${w}.txt" >&2 || true
    exit 1
  fi
  if [[ -z "$(runs_of "${adlb_report}.${w}.txt")" ]]; then
    echo "tier1: FAIL: adlb sweep at ${w} workers reported no runs" >&2
    exit 1
  fi
done
if [[ "$(runs_of "${adlb_report}.4.txt")" != \
        "$(runs_of "${adlb_report}.2.txt")" ||
      "$(runs_of "${adlb_report}.8.txt")" != \
        "$(runs_of "${adlb_report}.2.txt")" ||
      "$(runs_of "${adlb_report}.1.txt")" -gt \
        "$(runs_of "${adlb_report}.2.txt")" ]]; then
  echo "tier1: FAIL: adlb sweep runs: $(runs_of "${adlb_report}.1.txt")" \
    "in process, $(runs_of "${adlb_report}.2.txt")," \
    "$(runs_of "${adlb_report}.4.txt") and" \
    "$(runs_of "${adlb_report}.8.txt") at 2, 4 and 8 workers (want" \
    "equal on workers, no more in process)" >&2
  exit 1
fi
for w in 1 4; do
  build/examples/verify_cli --program adlb --procs 8 --sweep-faults \
    --sweep-budget 512 --max-interleavings 256 --workers "${w}" --metrics \
    > "${adlb_report}.256.${w}.txt" || true
done
runs="$(runs_of "${adlb_report}.256.1.txt")"
if [[ -z "${runs}" || "${runs}" -gt 1400 ||
      -z "$(runs_of "${adlb_report}.256.4.txt")" ||
      "${runs}" -gt "$(runs_of "${adlb_report}.256.4.txt")" ]]; then
  echo "tier1: FAIL: adlb sweep at 256 interleavings per plan made" \
    "${runs:-no} runs in process and" \
    "$(runs_of "${adlb_report}.256.4.txt") on 4 workers (want at most" \
    "1400 in process, and no more than on workers)" >&2
  exit 1
fi
rm -f "${adlb_report}".*.json "${adlb_report}".*.txt
echo "tier1: adlb sweep reports identical, 83 plans shared and the same" \
  "runs at 2/4/8 workers, no more in process, ${runs} runs at 256" \
  "interleavings OK"

# A flaky fault heals by retries, and an injected fault replays
# identically, so no retry may sleep first: every process of an adlb
# explore with flaky@0:1:3 and 3 retries, on 1 and on 2 worker
# processes, must read explorer.retry_backoffs 0. The point is reached on
# the discovery run, which the coordinator makes at any width, so its 3
# fires are retried there and explorer.retries reads the same non-zero
# count at both widths (a point reached only off the discovery path
# would fire once per worker that reaches it). A sweep's flaky plans do
# not retry: they are observed on the fault-free walk.
flaky_metrics="build/tier1-adlb-flaky"
for w in 1 2; do
  build/examples/verify_cli --program adlb --procs 8 --sched coop \
    --fault flaky@0:1:3 --retries 3 --max-interleavings 256 --metrics \
    --workers "${w}" > "${flaky_metrics}.${w}.txt" || true
  if ! grep -qx 'explorer.retry_backoffs 0' "${flaky_metrics}.${w}.txt" || \
     grep -Eq 'explorer\.retry_backoffs [1-9]' "${flaky_metrics}.${w}.txt"; then
    echo "tier1: FAIL: flaky adlb explore at ${w} workers backed off" >&2
    exit 1
  fi
done
retries_1="$(grep '^explorer.retries ' "${flaky_metrics}.1.txt")" || true
retries_2="$(grep '^explorer.retries ' "${flaky_metrics}.2.txt")" || true
if [[ -z "${retries_1}" || "${retries_1}" == "explorer.retries 0" || \
      "${retries_1}" != "${retries_2}" ]]; then
  echo "tier1: FAIL: flaky adlb explore retries '${retries_1}' at 1 worker," \
    "'${retries_2}' at 2" >&2
  exit 1
fi
rm -f "${flaky_metrics}".*.txt
echo "tier1: flaky adlb explore takes no backoff at 1/2 workers OK (${retries_1})"

# A livelocked baseline: the inventory harvest stops at the sweep's op
# budget like every campaign run, and so does the shared replay the
# plans are cut from, so the sweep finishes in bounded memory. Every
# plan of the default budget stops rank 0 or 1 at a shallow op, and the
# injection propagates: exit 0.
livelock_rc=0
(ulimit -v 2000000
 timeout 120 build/examples/verify_cli --program livelock --procs 3 \
   --sched coop --sweep-faults > /dev/null) || livelock_rc=$?
if [[ "${livelock_rc}" != 0 ]]; then
  echo "tier1: FAIL: livelock sweep exited ${livelock_rc}" >&2
  exit 1
fi
echo "tier1: livelock sweep bounded OK"

# Sweep SIGINT kill + --resume smoke: interrupt a journalled sweep
# mid-flight, then --resume it. The resumed report must be byte-identical
# to an uninterrupted run's, and the journalled plans must not re-execute
# (resumed count == plans completed before the kill). The signal goes
# out once the first of adlb's 68 abort plans is journalled, before the
# fault-free walk of its 7 delay plans ends, which a resume must then
# run; if it races past the end anyway, the resume degrades to an
# idempotence check — 0 executed, all resumed — same stance as the
# checkpoint smoke above. Run in process, then on 2 worker processes.
for sweep_workers in "" "--workers 2"; do
  sweep_journal="build/tier1-sweep.journal"
  sweep_ref="build/tier1-sweep-ref.json"
  sweep_resumed="build/tier1-sweep-resumed.json"
  rm -f "${sweep_journal}" "${sweep_ref}" "${sweep_resumed}"
  # shellcheck disable=SC2206  # split "--workers 2" into two words
  sweep_cmd=(build/examples/verify_cli --program adlb --procs 8 \
    --sched coop --sweep-faults --sweep-kinds abort,delay --sweep-budget 512 \
    --max-interleavings 256 ${sweep_workers})
  ref_rc=0
  "${sweep_cmd[@]}" --sweep-report "${sweep_ref}" > /dev/null || ref_rc=$?
  "${sweep_cmd[@]}" --sweep-journal "${sweep_journal}" > /dev/null 2>&1 &
  sweep_pid=$!
  # Interrupt as soon as the first plan is journalled (at most 2 s on).
  for _ in $(seq 1 200); do
    grep -q '^plan ' "${sweep_journal}" 2> /dev/null && break
    sleep 0.01
  done
  kill -INT "${sweep_pid}" 2> /dev/null || true
  wait "${sweep_pid}" || true
  # grep -c prints 0 and exits 1 on a journal without plans, and prints
  # nothing on a missing one: default to 0 only in the second case.
  journalled="$(grep -c '^plan ' "${sweep_journal}" 2> /dev/null)" || true
  journalled="${journalled:-0}"
  resume_rc=0
  resume_out="$("${sweep_cmd[@]}" --sweep-journal "${sweep_journal}" \
    --resume --sweep-report "${sweep_resumed}")" || resume_rc=$?
  if [[ "${resume_rc}" != "${ref_rc}" ]] || \
     ! cmp -s "${sweep_ref}" "${sweep_resumed}"; then
    echo "tier1: FAIL: sweep resume mismatch (rc ${ref_rc} vs ${resume_rc})" >&2
    diff "${sweep_ref}" "${sweep_resumed}" >&2 || true
    exit 1
  fi
  if ! grep -Eq "(^|[^0-9])${journalled} resumed" <<< "${resume_out}"; then
    echo "tier1: FAIL: sweep resume re-executed journalled plans" \
      "(expected ${journalled} resumed)" >&2
    grep "resumed" <<< "${resume_out}" >&2 || true
    exit 1
  fi
  rm -f "${sweep_journal}" "${sweep_ref}" "${sweep_resumed}"
  echo "tier1: sweep SIGINT kill/resume smoke OK ${sweep_workers}"
done

# One parallel mechanism: worker processes. The thread scheduler is the
# only product code left that starts a std::thread.
thread_sites="$(grep -rln "std::thread" src | \
  grep -v '^src/mpism/scheduler.cpp$' || true)"
if [[ -n "${thread_sites}" ]]; then
  echo "tier1: FAIL: std::thread outside the thread scheduler:" \
    ${thread_sites} >&2
  exit 1
fi
echo "tier1: std::thread gate OK"

# The Release build type (-O3) must build the whole tree under -Werror
# too; gcc raises warnings there that RelWithDebInfo does not.
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-release -j "${jobs}"
echo "tier1: Release build OK"

if [[ "${1:-}" == "--skip-tsan" ]]; then
  echo "tier1: skipping ThreadSanitizer stage"
  exit 0
fi

cmake -B build-tsan -S . -DDAMPI_SANITIZE=thread
cmake --build build-tsan -j "${jobs}"
(cd build-tsan && DAMPI_SCHED=thread ctest --output-on-failure \
  -L 'concurrency|obs|match|enginelock|por|sweep|alloc' -j "${jobs}")
(cd build-tsan && ctest --output-on-failure -j "${jobs}")
echo "tier1: TSan stage OK"

# AddressSanitizer + UndefinedBehaviorSanitizer on the whole suite: pools
# poison what they recycle, so a stale request or envelope pointer into a
# recycled slot is reported instead of silently reading the next run's
# object, and the coop fibers' stacks are known to ASan. Any UBSan report
# fails the stage.
cmake -B build-asan -S . -DDAMPI_SANITIZE=address,undefined
cmake --build build-asan -j "${jobs}"
export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
(cd build-asan && ctest --output-on-failure -j "${jobs}")
(cd build-asan && DAMPI_SCHED=thread ctest --output-on-failure \
  -L 'alloc|match|sched' -j "${jobs}")
(cd build-asan && ctest --output-on-failure -L dist \
  --repeat until-fail:10 -j "${jobs}")
(cd build-asan && ctest --output-on-failure -L fuzz \
  --repeat until-fail:3 -j "${jobs}")
echo "tier1: OK (including the TSan and ASan+UBSan stages)"
