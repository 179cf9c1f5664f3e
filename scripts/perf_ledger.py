#!/usr/bin/env python3
"""Assemble a perfbench ledger entry's measured blocks from paired runs.

Run perfbench in checkouts of the parent and of the change, alternating
parent/change on the same seeds (`python3 perfbench/run.py --workload W
--seed S --seconds 10 --trace 0`). Each checkout appends its results to
`.bench_build/perfbench-out/results.jsonl`. Feed both files here:

  scripts/perf_ledger.py PARENT.jsonl CHANGE.jsonl [--held-out W:S ...]

The k-th parent run of a workload and seed pairs with the k-th change run
of the same workload and seed. Runs of a workload on a seed named by
--held-out are reported under "W (held-out seed S)".

Traced runs (`--trace 1`) carry per-layer metrics only. They are not
paired: for every per-layer metric of BENCHMARK.json that all of a
workload's traced runs on a side carry, `traced_per_layer` gives that
side's runs (in file order) and their median, when both sides have
traced runs of the workload.

For every end-to-end metric of BENCHMARK.json that all runs carry, the
block gives both sides' q1/median/q3 (linear interpolation), the number
of pairs the change wins, and a verdict: `wins_9_of_10` (the change is
better in at least nine of every ten pairs, ties counting for neither)
and `beyond_parent_iqr` (the median moved the better way by more than
the parent's q3 - q1) together make a gain; `within_bound` says the
median is not worse than the parent's by more than the metric's
BENCHMARK.json bound. `failed_operations` sums the runs' failed
operations.

From the runs' context lines it also fills `parent_commit` and
`change_commit` (each side's runs must come from one commit: a git
commit, or perfbench's `tree-` digest of src/ and perfbench/ outside a
repository) and `host.host_probe_s_median`, the median of every host
probe taken during a workload's runs, per workload label and side.

Exit codes: 0 ok, 1 a run reported incorrect results, 2 unreadable or
unpaired input.
"""

import argparse
import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(message, code=2):
    print(f"perf_ledger: {message}", file=sys.stderr)
    sys.exit(code)


def load_runs(path, held_out):
    """Untraced runs of one results.jsonl, grouped by label then seed,
    its traced runs by label, the commit they ran and their host probes
    by label."""
    groups, traced, commits, probes = {}, {}, set(), {}
    try:
        with open(path) as f:
            records = [json.loads(line) for line in f if line.strip()]
    except (OSError, ValueError) as err:
        fail(f"cannot read {path} ({err})")
    for record in records:
        context, result = record["context"], record["result"]
        workload, seed = context["workload"], context["seed"]
        if not result["correct"]:
            fail(f"{path}: {workload} seed {seed} reported incorrect "
                 "results", code=1)
        label = workload
        if (workload, seed) in held_out:
            label = f"{workload} (held-out seed {seed})"
        commits.add(context["commit"])
        if context.get("trace"):
            traced.setdefault(label, []).append(result)
            continue
        groups.setdefault(label, {}).setdefault(seed, []).append(result)
        probes.setdefault(label, []).extend(context["host_probe_s"])
    if len(commits) > 1:
        fail(f"{path}: runs from several commits: {sorted(commits)}")
    return groups, traced, commits.pop() if commits else None, probes


def quartiles(values):
    ordered = sorted(values)

    def at(p):
        pos = p * (len(ordered) - 1)
        lo = math.floor(pos)
        hi = min(lo + 1, len(ordered) - 1)
        return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)

    return {"q1": round(at(0.25), 6), "median": round(at(0.5), 6),
            "q3": round(at(0.75), 6)}


def metric_block(spec, pairs):
    name, higher = spec["name"], spec["better"] == "higher"
    parent = [p["metrics"][name]["value"] for p, _ in pairs]
    change = [c["metrics"][name]["value"] for _, c in pairs]
    wins = sum(1 for p, c in zip(parent, change)
               if (c > p if higher else c < p))
    pq, cq = quartiles(parent), quartiles(change)
    gap = cq["median"] - pq["median"]
    better_gap = gap if higher else -gap
    worse_frac = -better_gap / pq["median"] if pq["median"] else 0.0
    return {
        "better": spec["better"],
        "parent": pq,
        "change": cq,
        "change_wins": wins,
        "pairs": len(pairs),
        "verdict": {
            "wins_9_of_10": 10 * wins >= 9 * len(pairs),
            "beyond_parent_iqr": better_gap > pq["q3"] - pq["q1"],
            "within_bound": worse_frac <= spec["bound"],
        },
    }


def per_layer_block(specs, parent_runs, change_runs):
    """Each side's runs and median of every per-layer metric that all of
    both sides' traced runs carry."""
    block = {}
    for spec in specs:
        name = spec["name"]
        if not all(name in run["metrics"]
                   for run in parent_runs + change_runs):
            continue
        block[name] = {}
        for side, runs in (("parent", parent_runs), ("change", change_runs)):
            values = [run["metrics"][name]["value"] for run in runs]
            block[name][side] = {"median": quartiles(values)["median"],
                                 "runs": values}
    return block


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="the parent's results.jsonl")
    parser.add_argument("change", help="the change's results.jsonl")
    parser.add_argument("--held-out", action="append", default=[],
                        metavar="WORKLOAD:SEED",
                        help="report this workload's runs on this seed apart")
    args = parser.parse_args()

    held_out = set()
    for item in args.held_out:
        workload, _, seed = item.rpartition(":")
        if not workload or not seed.isdigit():
            fail(f"--held-out wants WORKLOAD:SEED, got {item!r}")
        held_out.add((workload, int(seed)))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    specs = benchmark["end_to_end"]

    parent, parent_traced, parent_commit, parent_probes = load_runs(
        args.parent, held_out)
    change, change_traced, change_commit, change_probes = load_runs(
        args.change, held_out)
    if sorted(parent) != sorted(change):
        fail(f"workloads differ: {sorted(parent)} vs {sorted(change)}")

    probe_medians = {}
    workloads = {}
    for label in sorted(parent):
        for side, probes in (("parent", parent_probes),
                             ("change", change_probes)):
            if probes[label]:
                probe_medians[f"{label}/{side}"] = quartiles(
                    probes[label])["median"]
        pairs = []
        for seed in sorted(set(parent[label]) | set(change[label])):
            p, c = parent[label].get(seed, []), change[label].get(seed, [])
            if len(p) != len(c):
                fail(f"{label} seed {seed}: {len(p)} parent runs vs "
                     f"{len(c)} change runs")
            pairs.extend(zip(p, c))
        block = {}
        for spec in specs:
            if all(spec["name"] in run["metrics"]
                   for pair in pairs for run in pair):
                block[spec["name"]] = metric_block(spec, pairs)
        block["failed_operations"] = sum(
            run["failed"] for pair in pairs for run in pair)
        workloads[label] = block
    entry = {"parent_commit": parent_commit,
             "change_commit": change_commit,
             "host": {"host_probe_s_median": probe_medians},
             "workloads": workloads}
    traced = {}
    for label in sorted(set(parent_traced) & set(change_traced)):
        traced[label] = per_layer_block(benchmark["per_layer"],
                                        parent_traced[label],
                                        change_traced[label])
    if traced:
        entry["traced_per_layer"] = traced
    print(json.dumps(entry, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
