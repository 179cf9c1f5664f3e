#!/usr/bin/env python3
"""Perf smoke for the matching index: indexed must not lose to linear.

By default it reads the BENCH_matching.json that `bench_matching` emits
(the bench times the linear oracle and the indexed matcher in one
process, cell by cell over queue depth and wildcard fan-in) and compares
ns/op per cell. The indexed matcher is the default, so a cell where it
is meaningfully slower than the linear oracle is a regression worth
failing on, and so is an indexed scan-length p99 above one entry.

With --distributed PATH it instead reads the BENCH_distributed.json that
bench_distributed emits and checks the campaign-equivalence contract:
every worker count must report identical interleavings, exit code, and
verdict. Speedup is reported but never failed on — a 1-core host has a
legitimately flat curve (the JSON records nproc for exactly this reason).

With --contention PATH it reads the BENCH_contention.json that
bench_contention emits and compares the sharded engine lock against the
global-mutex baseline per rank count. On a single-hardware-thread host
the comparison is report-only (no parallelism to unlock — a flat or
slightly worse curve is the honest result); on multi-core, sharded
losing to global beyond the tolerance is flagged as a regression.

With --por PATH it reads the BENCH_por.json that bench_por emits and
checks the sleep-set pruning contract: every row must be marked
equivalent (same bug set and per-epoch outcome sets as POR off) and
never explore more interleavings than off. The reduction ratio is
reported per row; all-dependent workloads legitimately sit at 1.0x.

With --sweep PATH it reads the BENCH_sweep.json that bench_sweep emits
and checks the fault-sweep determinism contract: every worker count must
complete the same number of plans with the same exit code (the bench
itself already fails on report byte-divergence; this re-checks the
summary numbers from the JSON). Plans/sec is reported but never failed
on — scaling is conditional on cores.

Usage:
  scripts/bench_compare.py [BENCH_matching.json] [--tolerance FRAC]
                           [--warn-only]
  scripts/bench_compare.py --distributed BENCH_distributed.json [--warn-only]
  scripts/bench_compare.py --contention BENCH_contention.json [--warn-only]
  scripts/bench_compare.py --por BENCH_por.json [--warn-only]
  scripts/bench_compare.py --sweep BENCH_sweep.json [--warn-only]

Exit codes: 0 ok (or --warn-only), 1 regression, 2 cannot run bench.
"""

import argparse
import json
import sys


def check_matching(path, tolerance, warn_only):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError) as err:
        print(f"bench_compare: cannot read {path} ({err})", file=sys.stderr)
        sys.exit(2)

    cells = data.get("cells", [])
    if not cells:
        print("bench_compare: no matcher cells to compare", file=sys.stderr)
        sys.exit(2)

    regressions = []
    print(f"{'scenario':<22} {'depth':>6} {'fan-in':>6} {'linear':>10} "
          f"{'indexed':>10} {'ratio':>7}")
    for cell in cells:
        name = (f"{cell['scenario']}@{cell['depth']}"
                + (f"/{cell['fanin']}" if cell.get("fanin") else ""))
        ratio = cell["indexed_ns"] / cell["linear_ns"]
        flag = ""
        if ratio > 1.0 + tolerance:
            regressions.append((name, ratio))
            flag = "  <-- REGRESSION"
        print(f"{cell['scenario']:<22} {cell['depth']:>6} "
              f"{cell.get('fanin') or '-':>6} {cell['linear_ns']:>8.1f}ns "
              f"{cell['indexed_ns']:>8.1f}ns {ratio:>6.2f}x{flag}")
    if not data.get("scan_p99_is_one", False):
        regressions.append(("indexed match.scan_length p99",
                            data.get("scan_length_p99_bound_indexed", 0.0)))

    if regressions:
        print(
            f"bench_compare: indexed matcher regressed on "
            f"{len(regressions)} check(s) (ratio tolerance "
            f"{tolerance:.0%}, scan p99 bound 2.0):",
            file=sys.stderr,
        )
        for name, ratio in regressions:
            print(f"  {name}: {ratio:.2f}", file=sys.stderr)
        if not warn_only:
            sys.exit(1)
        print("bench_compare: --warn-only set, not failing", file=sys.stderr)
    else:
        print("bench_compare: indexed matcher holds up on every cell")


def check_distributed(path, warn_only):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError) as err:
        print(f"bench_compare: cannot read {path} ({err})", file=sys.stderr)
        sys.exit(2)

    rows = data.get("rows", [])
    if len(rows) < 2:
        print("bench_compare: need at least two worker counts", file=sys.stderr)
        sys.exit(2)

    nproc = data.get("nproc", 0)
    base = rows[0]
    print(f"{'workers':>8} {'wall_s':>10} {'interleavings':>14} "
          f"{'speedup':>8}  verdict  (host cores: {nproc})")
    divergent = []
    for row in rows:
        same = (row["interleavings"] == base["interleavings"]
                and row["exit"] == base["exit"]
                and row.get("verdict") == base.get("verdict"))
        if not same:
            divergent.append(row["workers"])
        print(f"{row['workers']:>8} {row['wall_s']:>10.3f} "
              f"{row['interleavings']:>14} {row['speedup']:>7.2f}x  "
              f"{row.get('verdict', '?')}"
              f"{'' if same else '  <-- DIVERGENT'}")

    if divergent:
        print(f"bench_compare: campaign result diverges at worker counts "
              f"{divergent} — sharding changed the verdict", file=sys.stderr)
        if not warn_only:
            sys.exit(1)
        print("bench_compare: --warn-only set, not failing", file=sys.stderr)
    else:
        print("bench_compare: campaign result invariant across worker counts")
        if nproc <= 1:
            print("bench_compare: 1-core host — flat scaling curve expected")


def check_contention(path, tolerance, warn_only):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError) as err:
        print(f"bench_compare: cannot read {path} ({err})", file=sys.stderr)
        sys.exit(2)

    cells = data.get("cells", [])
    by_scale = {}
    for cell in cells:
        by_scale.setdefault(cell["nprocs"], {})[cell["lock"]] = cell
    scales = sorted(n for n, pair in by_scale.items()
                    if "global" in pair and "sharded" in pair)
    if not scales:
        print("bench_compare: no comparable global/sharded cell pairs",
              file=sys.stderr)
        sys.exit(2)

    hw = data.get("hw_threads", 0)
    print(f"{'ranks':>6} {'global r/s':>12} {'sharded r/s':>12} "
          f"{'speedup':>8} {'contended %':>12}  (hw threads: {hw})")
    regressions = []
    for n in scales:
        g = by_scale[n]["global"]
        s = by_scale[n]["sharded"]
        speedup = s["runs_per_sec"] / g["runs_per_sec"]
        contended_pct = (100.0 * s["lock_contended"] / s["lock_acquired"]
                         if s["lock_acquired"] else 0.0)
        flag = ""
        if hw > 1 and speedup < 1.0 - tolerance:
            regressions.append((n, speedup))
            flag = "  <-- REGRESSION"
        print(f"{n:>6} {g['runs_per_sec']:>12.1f} {s['runs_per_sec']:>12.1f} "
              f"{speedup:>7.2f}x {contended_pct:>11.1f}%{flag}")

    if hw <= 1:
        print("bench_compare: 1-hw-thread host — report-only, a flat "
              "curve is expected")
    if regressions:
        print(f"bench_compare: sharded lock slower than the global baseline "
              f"at rank counts {[n for n, _ in regressions]} "
              f"(tolerance {tolerance:.0%})", file=sys.stderr)
        if not warn_only:
            sys.exit(1)
        print("bench_compare: --warn-only set, not failing", file=sys.stderr)
    elif hw > 1:
        print("bench_compare: sharded lock holds up at every rank count")


def check_por(path, warn_only):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError) as err:
        print(f"bench_compare: cannot read {path} ({err})", file=sys.stderr)
        sys.exit(2)

    rows = data.get("rows", [])
    if not rows:
        print("bench_compare: no POR rows", file=sys.stderr)
        sys.exit(2)

    print(f"{'workload':<20} {'off_runs':>10} {'sleep_runs':>12} "
          f"{'pruned':>8} {'ratio':>7}  check")
    bad = []
    for row in rows:
        ratio = (row["off_runs"] / row["sleep_runs"]
                 if row["sleep_runs"] else 0.0)
        ok = row.get("equivalent") and row["sleep_runs"] <= row["off_runs"]
        if not ok:
            bad.append(row["workload"])
        print(f"{row['workload']:<20} {row['off_runs']:>10} "
              f"{row['sleep_runs']:>12} {row['pruned']:>8} {ratio:>6.2f}x"
              f"{'  ok' if ok else '  <-- DIVERGENT'}")

    if bad:
        print(f"bench_compare: POR sleep diverged from off on {bad} — "
              f"pruning dropped coverage", file=sys.stderr)
        if not warn_only:
            sys.exit(1)
        print("bench_compare: --warn-only set, not failing", file=sys.stderr)
    else:
        best = data.get("best_ratio", 0.0)
        print(f"bench_compare: pruning sound on every workload "
              f"(best reduction {best:.2f}x)")


def check_sweep(path, warn_only):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError) as err:
        print(f"bench_compare: cannot read {path} ({err})", file=sys.stderr)
        sys.exit(2)

    rows = data.get("rows", [])
    if len(rows) < 2:
        print("bench_compare: need at least two sweep worker counts",
              file=sys.stderr)
        sys.exit(2)

    nproc = data.get("nproc", 0)
    base = rows[0]
    print(f"{'workers':>8} {'wall_s':>10} {'plans':>7} {'plans/s':>10} "
          f"{'speedup':>8}  (host cores: {nproc})")
    divergent = []
    for row in rows:
        same = (row["plans"] == base["plans"]
                and row["exit"] == base["exit"])
        if not same:
            divergent.append(row["workers"])
        print(f"{row['workers']:>8} {row['wall_s']:>10.3f} "
              f"{row['plans']:>7} {row['plans_per_s']:>10.1f} "
              f"{row['speedup']:>7.2f}x"
              f"{'' if same else '  <-- DIVERGENT'}")

    if divergent:
        print(f"bench_compare: sweep result diverges at worker counts "
              f"{divergent} — parallelism changed the crash-tolerance "
              f"report", file=sys.stderr)
        if not warn_only:
            sys.exit(1)
        print("bench_compare: --warn-only set, not failing", file=sys.stderr)
    else:
        print("bench_compare: sweep result invariant across worker counts")
        if nproc <= 1:
            print("bench_compare: 1-core host — flat scaling curve expected")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--distributed",
        metavar="JSON",
        help="check a BENCH_distributed.json instead of the matcher bench",
    )
    parser.add_argument(
        "--contention",
        metavar="JSON",
        help="check a BENCH_contention.json instead of the matcher bench",
    )
    parser.add_argument(
        "--por",
        metavar="JSON",
        help="check a BENCH_por.json instead of the matcher bench",
    )
    parser.add_argument(
        "--sweep",
        metavar="JSON",
        help="check a BENCH_sweep.json instead of the matcher bench",
    )
    parser.add_argument(
        "matching",
        nargs="?",
        default="build/bench/BENCH_matching.json",
        help="BENCH_matching.json written by bench_matching "
             "(default build/bench/BENCH_matching.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="allowed indexed/linear slowdown fraction (default 0.15)",
    )
    parser.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but exit 0 (CI smoke mode)",
    )
    args = parser.parse_args()

    if args.distributed:
        check_distributed(args.distributed, args.warn_only)
        return

    if args.contention:
        check_contention(args.contention, args.tolerance, args.warn_only)
        return

    if args.por:
        check_por(args.por, args.warn_only)
        return

    if args.sweep:
        check_sweep(args.sweep, args.warn_only)
        return

    check_matching(args.matching, args.tolerance, args.warn_only)

if __name__ == "__main__":
    main()
