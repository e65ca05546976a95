"""Alternating A/B pairs of the benchmark on two source trees.

    python3 tests/ab_pairs.py PARENT_TREE CHANGE_TREE --workload spine \
        --pairs 10 --seconds 8

Each pair runs `perfbench/run.py --workload W --trace 0 --seconds S` once in
each tree, in a fresh process, the first side alternating from pair to pair.
Only the last stdout line of a run is read (the benchmark's JSON result).
For every end-to-end metric named in CHANGE_TREE/BENCHMARK.json it prints
each side's median and quartiles, the pairs the change won (ties count for
neither side), whether a gain is resolved (the change won at least nine
tenths of the pairs, and its median is better than the parent's by more than
the parent's interquartile range) and a no-regression verdict against the
metric's bound, read as a fraction of the parent's median:

    within bound  every change run beats every parent run, or the parent's
                  interquartile range is within the bound and so is the
                  change's median (worse by at most the bound)
    unresolved    otherwise, if the parent's interquartile range exceeds the
                  bound: the runs spread too widely to tell
    regression    otherwise

Exit status 1 if a run fails.

Not a test module (no `test_` prefix): pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree: Path, workload: str, seconds: float, seed: int | None) -> dict:
    """The metrics of one end-to-end run of the benchmark in `tree`."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--trace", "0", "--seconds", str(seconds)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], higher_is_better: bool,
            bound: float) -> dict:
    """Medians, quartiles, pair wins, the gain rule and the no-regression
    verdict (module doc) for one metric with the given fractional bound."""
    sign = 1.0 if higher_is_better else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    gap = sign * (cq[1] - pq[1])  # > 0 when the change's median is better
    limit = bound * abs(pq[1])
    if min(sign * c for c in change) > max(sign * p for p in parent):
        regression = "within bound"
    elif pq[2] - pq[0] > limit:
        regression = "unresolved"
    else:
        regression = "within bound" if gap >= -limit else "regression"
    return {"parent": pq, "change": cq, "wins": wins, "losses": losses,
            "gain": 10 * wins >= 9 * len(parent) and gap > pq[2] - pq[0],
            "regression": regression}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="the parent commit's source tree")
    ap.add_argument("change", type=Path, help="the change's source tree")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--seed", type=int)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 (quartiles need two runs)")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            try:
                runs[side].append(run_once(trees[side], args.workload, args.seconds, args.seed))
            except RuntimeError as err:
                print(err, file=sys.stderr)
                return 1
        print(f"pair {i + 1}: " + ", ".join(
            f"{side} wall_s {runs[side][-1].get('wall_s')}" for side in order), flush=True)
    print(f"workload {args.workload}, {args.pairs} pairs, --seconds {args.seconds}")
    for metric in spec:
        name = metric["name"]
        if not all(name in r for side in runs.values() for r in side):
            print(f"  {name}: missing from some run")
            continue
        v = verdict([r[name] for r in runs["parent"]], [r[name] for r in runs["change"]],
                    metric["better"] == "higher", metric["bound"])
        p, c = v["parent"], v["change"]
        print(f"  {name} ({metric['better']} is better): parent median {p[1]:.4g} "
              f"[{p[0]:.4g}, {p[2]:.4g}], change median {c[1]:.4g} [{c[0]:.4g}, {c[2]:.4g}]; "
              f"change won {v['wins']}/{args.pairs}, lost {v['losses']}; "
              f"gain resolved: {'yes' if v['gain'] else 'no'}; "
              f"against its {metric['bound']:.0%} bound: {v['regression']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
