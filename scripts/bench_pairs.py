#!/usr/bin/env python3
"""Parent/change pairing protocol for the wall-clock benchmark.

Runs N pairs of two already-built `mfbc-benchmark` binaries on seeds
1..N (or from `--first-seed` on, to re-run a claim on seeds not used
while the change was written), alternating which side goes first
(the parent in the first pair), and prints the markdown table
EXPERIMENTS.md records: per workload x metric the medians and quartiles
of both sides, the change of the median, in how many pairs the change
was better, and a verdict against the bound BENCHMARK.json fixes.

    scripts/bench_pairs.py PARENT_BIN CHANGE_BIN [--anchor ANCHOR_BIN] \
        [--workloads seq-road,dist-p1] [-n 10] [--first-seed 1] \
        [--seconds 10] [--trace 0|1] [--metrics core.ops,core.mfbf_s]

`--trace 0` runs print the end-to-end metrics, `--trace 1` runs the
per-layer ones (name those with `--metrics`).

`wall_vs_brandes` divides the program's `wall_s` by an in-process
Brandes run whose own time depends on the heap the program leaves
behind, so every `wall_vs_brandes` row also shows each side's median
`wall_s` (from the run's samples line) and is marked `yardstick moved`
when the ratio and `wall_s` change in opposite directions by more than
10 %: the program did one thing and the reference another.

`--anchor` adds a third, pinned binary (one built from a named commit
that no change touches) to every pair, its place rotating through
first, middle and last while parent and change keep alternating. Each
row then also reports the medians of the per-pair quotients
parent/anchor and change/anchor: the box's drift between sessions
moves all three binaries alike, so the quotients of two sessions can
be compared where the raw values cannot. A gate such as "ratio <= 3"
is read as change/anchor times the anchor's recorded ratio
(`through_anchor`).

Verdicts (metrics BENCHMARK.json bounds; pinned by the doctests of
`verdict`, `python3 -m doctest scripts/bench_pairs.py`):
  unresolved     a side's quartile distance exceeds the bound, and not
                 every change run reads better than every parent run
  regressed      the change's median is worse by more than the bound
  improved       the change is better in >= 9/10 of the pairs and the
                 medians differ by more than the parent's quartile distance
  no regression  otherwise
Exits 1 if any run reports failed != 0 or any row is `regressed`.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent

RATIO = "wall_vs_brandes"
WALL_S = "wall_s (samples)"
# Opposite moves of the ratio and of wall_s beyond this are the
# reference's doing, not the program's.
YARDSTICK_TOLERANCE = 0.10


def yardstick_moved(ratio_delta, wall_delta):
    """Whether the ratio and wall_s moved apart by > 10 % each."""
    return (min(abs(ratio_delta), abs(wall_delta)) > YARDSTICK_TOLERANCE
            and (ratio_delta > 0) != (wall_delta > 0))


def run(binary, workload, seed, seconds, trace, cwd):
    """One driver-mode run; returns its metrics as {name: value}, plus
    the median of its `wall_s` samples under the key WALL_S."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=cwd, check=True, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if result["failed"] != 0 or not result["correct"]:
        print(f"FAILED: {' '.join(cmd)}: {result['failed']} of "
              f"{result['attempted']} output checks", file=sys.stderr)
        return None
    got = {k: v["value"] for k, v in result["metrics"].items()}
    walls = json.loads(lines[-2])["samples"].get("wall_s") if len(lines) > 1 else None
    if walls:
        got[WALL_S] = statistics.median(walls)
    return got


def order(pair, anchored):
    """The order the sides run in, in pair number `pair`: parent first
    in even pairs, change first in odd ones, and the anchor (if any)
    first, in the middle, then last, so six pairs run every order once.

    >>> [order(k, False) for k in range(2)]
    [['parent', 'change'], ['change', 'parent']]
    >>> for k in range(6):
    ...     print(order(k, True))
    ['anchor', 'parent', 'change']
    ['change', 'anchor', 'parent']
    ['parent', 'change', 'anchor']
    ['anchor', 'change', 'parent']
    ['parent', 'anchor', 'change']
    ['change', 'parent', 'anchor']
    """
    sides = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
    if anchored:
        sides.insert(pair % 3, "anchor")
    return sides


def relative(side, anchor):
    """The per-pair quotients side / anchor and their median; a pair
    whose anchor read 0 has no quotient.

    >>> relative([4.0, 4.4, 3.6], [2.0, 2.2, 1.8])
    ([2.0, 2.0, 2.0], 2.0)
    >>> relative([3.0, 6.0, 5.0], [2.0, 0.0, 4.0])
    ([1.5, 1.25], 1.375)
    >>> relative([1.0], [0.0])
    ([], None)
    """
    quotients = [s / a for s, a in zip(side, anchor) if a]
    return quotients, (statistics.median(quotients) if quotients else None)


def through_anchor(change_rel, anchor_recorded):
    """A gate's reading through the anchor: the change's quotient over
    the anchor, times the ratio recorded for the anchor's commit.

    >>> through_anchor(0.9, 4.2)
    3.78
    """
    return round(change_rel * anchor_recorded, 12)


def fmt(x):
    """Counts exactly, measurements to four significant digits."""
    return f"{x:.0f}" if float(x).is_integer() and abs(x) < 1e15 else f"{x:.4g}"


def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def verdict(parent, change, better, bound):
    """The verdict of one row from both sides' runs, paired in order.

    A quartile distance wider than the bound leaves the row unresolved,
    unless every change run reads better than every parent run:

    >>> verdict([10, 14, 10, 14, 12], [11, 10, 11, 13, 12], "lower", 0.25)
    'unresolved'
    >>> verdict([10, 14, 10, 14, 12], [6, 9, 6, 9, 7], "lower", 0.25)
    'improved'
    >>> verdict([10, 10.5, 10, 10.5, 10], [9.9, 9.8, 9.9, 9.8, 9.9], "lower", 0.25)
    'no regression'
    >>> verdict([10, 10.5, 10, 10.5, 10], [13, 13.5, 13, 13.5, 13], "lower", 0.25)
    'regressed'
    >>> verdict([2, 2.1, 2, 2.1, 2], [2.5, 2.6, 2.5, 2.6, 2.5], "higher", 0.25)
    'improved'
    >>> verdict([0, 0], [1, 1], "lower", 0.25)
    '–'
    """
    (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(parent), quartiles(change)
    if pmed == 0 or cmed == 0:
        return "–"
    sign = 1 if better == "lower" else -1
    # Ties count for neither side: only outright wins reach 9/10.
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    # Every change run better than every parent run: no spread hides that.
    apart = max(sign * c for c in change) < min(sign * p for p in parent)
    if ((pq3 - pq1) / abs(pmed) > bound or (cq3 - cq1) / abs(cmed) > bound) and not apart:
        return "unresolved"
    if sign * (cmed - pmed) / abs(pmed) > bound:
        return "regressed"
    if wins >= 0.9 * len(parent) and abs(cmed - pmed) > pq3 - pq1:
        return "improved"
    return "no regression"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--anchor", help="a pinned third binary run in every pair")
    ap.add_argument("--manifest", default=str(ROOT / "BENCHMARK.json"))
    ap.add_argument("--workloads", help="comma-separated; default: all in the manifest")
    ap.add_argument("-n", "--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1,
                    help="pairs run on seeds N..N+pairs-1 (default 1)")
    ap.add_argument("--seconds", type=float, help="default: the manifest's run_seconds")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--metrics", help="comma-separated; default: the end-to-end metrics")
    args = ap.parse_args()

    manifest = json.loads(pathlib.Path(args.manifest).read_text())
    declared = {m["name"]: m for m in manifest["end_to_end"] + manifest["per_layer"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in manifest["workloads"]])
    metrics = (args.metrics.split(",") if args.metrics
               else [m["name"] for m in manifest["end_to_end"]])
    seconds = args.seconds if args.seconds is not None else manifest["run_seconds"]
    sides = {"parent": str(pathlib.Path(args.parent).resolve()),
             "change": str(pathlib.Path(args.change).resolve())}
    if args.anchor:
        sides["anchor"] = str(pathlib.Path(args.anchor).resolve())

    failed = False
    samples = {}  # (workload, metric) -> {"parent": [...], "change": [...]}
    with tempfile.TemporaryDirectory() as cwd:  # the binary writes benchmark/out/
        for workload in workloads:
            for pair, seed in enumerate(range(args.first_seed, args.first_seed + args.pairs)):
                for side in order(pair, "anchor" in sides):
                    got = run(sides[side], workload, seed, seconds, args.trace, cwd)
                    if got is None:
                        failed = True
                        continue
                    for name in metrics + [WALL_S] * (RATIO in metrics):
                        if name not in got:
                            sys.exit(f"{name}: not printed by --trace {args.trace} runs")
                        cell = samples.setdefault((workload, name),
                                                  {side: [] for side in sides})
                        cell[side].append(got[name])
                print(f"{workload} seed {seed} done", file=sys.stderr)

    anchored = "anchor" in sides
    print("| workload | metric | parent median [q1, q3] | change median [q1, q3] "
          "| Δ median | change better in | verdict |"
          + " parent/anchor | change/anchor |" * anchored)
    print("|---|---|---|---|---|---|---|" + "---|---|" * anchored)
    for (workload, name), cell in samples.items():
        parent, change = cell["parent"], cell["change"]
        if name == WALL_S:
            continue  # shown inside the workload's ratio row
        if len(parent) != len(change) or len(parent) < 2:
            print(f"| {workload} | {name} | – | – | – | – | incomplete |")
            continue
        decl = declared[name]
        sign = 1 if decl["better"] == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(parent), quartiles(change)
        delta = f"{(cmed - pmed) / abs(pmed):+.1%}" if pmed else "–"
        v = (verdict(parent, change, decl["better"], decl["bound"])
             if "bound" in decl else "–")
        failed |= v == "regressed"
        pwall = cwall = ""
        if name == RATIO:
            walls = samples[(workload, WALL_S)]
            pw, cw = (statistics.median(walls[side]) for side in ("parent", "change"))
            pwall, cwall = f"; wall_s {fmt(pw)}", f"; wall_s {fmt(cw)}"
            delta += f"; wall_s {(cw - pw) / pw:+.1%}"
            if pmed and yardstick_moved((cmed - pmed) / abs(pmed), (cw - pw) / pw):
                v += ", yardstick moved"
        rel = ""
        if anchored:
            whole = len(cell["anchor"]) == len(parent)
            meds = [relative(cell[side], cell["anchor"])[1] if whole else None
                    for side in ("parent", "change")]
            rel = "".join(f" {fmt(x) if x is not None else '–'} |" for x in meds)
        print(f"| {workload} | {name} | {fmt(pmed)} [{fmt(pq1)}, {fmt(pq3)}]{pwall} "
              f"| {fmt(cmed)} [{fmt(cq1)}, {fmt(cq3)}]{cwall} | {delta} "
              f"| {wins}/{len(parent)} | {v} |{rel}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
