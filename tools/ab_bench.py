"""Compare two checkouts on the benchmark in alternating pairs of runs.

Run from anywhere:

    python tools/ab_bench.py PARENT CHANGE --workload W --pairs 10 --seconds 40 [--seed N]

PARENT and CHANGE are each a checkout directory or a git revision of the
repository this script sits in (for example HEAD~1). A revision is
exported with `git archive` into a temporary directory, which is removed
at the end; the repository and its worktree list are left as they are. A
checkout directory with a __pycache__ under src/ or bench/ is refused
(exit 2), so that both sides compile from source.
Each pair runs `python3 bench/run.py --workload W --seed N --seconds T
--trace 0` once in each checkout, one after the other; even pairs start
with the parent, odd pairs with the change. Each run's last output line is
its JSON record. For every end-to-end metric of BENCHMARK.json (read from
the repository this script sits in) it prints both sides' medians and
quartiles, the median ratio change/parent, the pairs the change won (ties
count for neither) and a verdict:

  gain        the change won at least 9/10 of the pairs and its median is
              better than the parent's by more than the parent's quartile
              spread;
  worse       the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the parent's quartile spread exceeds the bound, so the runs
              cannot show that the metric held;
  held        none of these.

It exits 1 if any run failed to finish, failed a job or read
"correct": false.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"


def quartiles(values):
    """(first quartile, median, third quartile) of the values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(pairs, specs):
    """One row per metric of specs for the pairs of run records.

    pairs: a list of (parent metrics, change metrics), each a dict metric
    name -> value; specs: the "end_to_end" entries of BENCHMARK.json (name,
    better, bound). A row holds name, the parent's and the change's
    quartiles, ratio (change median / parent median), wins, pairs and
    verdict (module docstring).
    """
    rows = []
    for spec in specs:
        name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
        old = [p[name] for p, _ in pairs]
        new = [c[name] for _, c in pairs]
        (p1, pm, p3), (c1, cm, c3) = quartiles(old), quartiles(new)
        wins = sum(sign * (c - p) > 0 for p, c in zip(old, new))
        spread = p3 - p1
        if wins >= 0.9 * len(pairs) and sign * (cm - pm) > spread:
            verdict = "gain"
        elif -sign * (cm - pm) > spec["bound"] * abs(pm):
            verdict = "worse"
        elif spread > spec["bound"] * abs(pm):
            verdict = "unresolved"
        else:
            verdict = "held"
        rows.append({"name": name, "parent": (p1, pm, p3), "change": (c1, cm, c3),
                     "ratio": cm / pm if pm else float("inf"), "wins": wins,
                     "pairs": len(pairs), "verdict": verdict})
    return rows


def checkout(side, scratch):
    """The directory to run one side in: side itself when it is a
    directory, else the tree of the git revision side, exported into a new
    directory under scratch.

    A directory holding a __pycache__ under src/ or bench/ is refused (exit
    2): its runs would skip the compile that a run from source pays for, so
    its setup time would not compare with the other side's."""
    if Path(side).is_dir():
        cached = [str(p) for d in ("src", "bench") for p in Path(side, d).rglob("__pycache__")]
        if cached:
            print(f"{side} holds compiled files ({', '.join(cached)}); "
                  "remove them to compare runs from source", file=sys.stderr)
            sys.exit(2)
        return side
    tree = subprocess.run(["git", "archive", "--format=tar", side], cwd=ROOT,
                          capture_output=True, check=True).stdout
    target = tempfile.mkdtemp(dir=scratch)
    with tarfile.open(fileobj=io.BytesIO(tree)) as archive:
        archive.extractall(target)
    return target


def run(checkout, workload, seed, seconds):
    """The metrics of one bench/run.py run in the checkout, or None when it
    failed."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.stderr.write(proc.stderr)
        return None
    record = json.loads(lines[-1])
    if not record["correct"] or record["failed"]:
        return None
    return {k: v["value"] for k, v in record["metrics"].items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    specs = json.loads(SPEC.read_text())["end_to_end"]
    with tempfile.TemporaryDirectory() as scratch:
        parent, change = (checkout(side, scratch) for side in (args.parent, args.change))
        pairs = []
        for i in range(args.pairs):
            sides = [parent, change] if i % 2 == 0 else [change, parent]
            got = {side: run(side, args.workload, args.seed, args.seconds) for side in sides}
            if None in got.values():
                print(f"pair {i}: a run failed", file=sys.stderr)
                return 1
            pairs.append((got[parent], got[change]))
            print(f"pair {i}: " + "  ".join(
                f"{s['name']} {got[parent][s['name']]:.4g} -> {got[change][s['name']]:.4g}"
                for s in specs), flush=True)
    print(f"{args.workload}, seed {args.seed}, {len(pairs)} pairs of {args.seconds:g} s runs")
    for row in summarize(pairs, specs):
        p1, pm, p3 = row["parent"]
        c1, cm, c3 = row["change"]
        print(f"{row['name']:12} parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  "
              f"change {cm:.4g} [{c1:.4g}, {c3:.4g}]  {row['ratio']:.3f}x  "
              f"won {row['wins']}/{row['pairs']}  {row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
