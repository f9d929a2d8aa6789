"""Alternating pairs of benchmark runs: a git ref against the working tree.

    python tools/pairs.py --against REF --workload W --seconds S --pairs N

It extracts the git ref REF with ``git archive`` into a temporary
directory, as ``tools/digest.py --against`` does, and runs
``perfbench/run.py --workload W --seconds S`` in that tree and in the
working tree in turn, N times each: pair i (counting from 0) runs REF
first when i is even and the working tree first when i is odd.  W is a
workload of ``perfbench/run.py`` or ``all``.

For every workload and every end-to-end metric of ``BENCHMARK.json`` it
prints the median of REF's runs and of the working tree's, the IQR of
REF's runs (the distance between their inclusive quartiles) and the
number of pairs that the working tree won: read strictly better, in the
metric's direction; a tie counts for neither side.

With ``--json PATH`` it writes the ``end_to_end`` and ``claim`` blocks in
the layout of the ``BENCH_*.json`` files.  The claim is the metric that
``--claim WORKLOAD METRIC`` names (null without it).  It is met when the
working tree wins at least nine tenths of the pairs and its median is
better than REF's by more than REF's IQR.

Uses the standard library only.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def benchmark_spec():
    """The workload names of ``BENCHMARK.json`` and {metric: "lower" or
    "higher"}, its end-to-end metrics and the direction in which each is
    better."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([w["name"] for w in spec["workloads"]],
            {m["name"]: m["better"] for m in spec["end_to_end"]})


def run_bench(tree, workload, seconds):
    """One ``perfbench/run.py`` run in ``tree``: {workload: {metric:
    value}} and whether its rows were correct."""
    done = subprocess.run(
        [sys.executable, str(Path(tree) / "perfbench" / "run.py"),
         "--workload", workload, "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"pairs: perfbench/run.py in {tree} exited with code "
                 f"{done.returncode}: {done.stderr.strip()}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    if workload != "all":
        metrics = {workload: metrics}
    return ({name: {metric: entry["value"] for metric, entry in values.items()}
             for name, values in metrics.items()}, result["correct"])


def _iqr(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(parent, change, better):
    """The ``end_to_end`` block of pairs of runs.

    ``parent`` and ``change`` are lists of {workload: {metric: value}},
    entry i of each from pair i, and ``better`` maps each metric to
    "lower" or "higher".  Per workload and metric the block holds the
    direction, both sides' values, their medians, the parent's IQR, the
    pairs the change won and change median / parent median - 1 (null
    when the parent's median is 0).
    """
    out = {}
    for workload in parent[0]:
        out[workload] = {}
        for metric, direction in better.items():
            old = [run[workload][metric] for run in parent]
            new = [run[workload][metric] for run in change]
            sign = 1.0 if direction == "lower" else -1.0
            old_median = statistics.median(old)
            new_median = statistics.median(new)
            out[workload][metric] = {
                "better": direction, "parent": old, "change": new,
                "parent_median": old_median, "change_median": new_median,
                "parent_iqr": _iqr(old),
                "change_wins": sum(sign * (a - b) > 0.0
                                   for a, b in zip(old, new)),
                "rel_change": (new_median / old_median - 1.0
                               if old_median else None)}
    return out


def claim(block, workload, metric):
    """The ``claim`` block of one workload and metric of ``summarize``."""
    entry = block[workload][metric]
    pairs = len(entry["parent"])
    sign = 1.0 if entry["better"] == "lower" else -1.0
    gain = sign * (entry["parent_median"] - entry["change_median"])
    return {"workload": workload, "metric": metric,
            "parent_median": entry["parent_median"],
            "change_median": entry["change_median"],
            "parent_iqr": entry["parent_iqr"],
            "change_wins": entry["change_wins"], "pairs": pairs,
            "met": (10 * entry["change_wins"] >= 9 * pairs
                    and gain > entry["parent_iqr"])}


def _pair_count(text):
    count = int(text)
    if count < 2:
        raise argparse.ArgumentTypeError(
            f"need at least 2 pairs for quartiles, got {text}")
    return count


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", metavar="REF", required=True,
                        help="the git ref to compare the working tree with")
    workloads, better = benchmark_spec()
    parser.add_argument("--workload", required=True,
                        choices=(*workloads, "all"))
    parser.add_argument("--seconds", type=float, required=True,
                        help="perfbench/run.py --seconds of every run")
    parser.add_argument("--pairs", type=_pair_count, required=True,
                        help="number of alternating pairs, at least 2")
    parser.add_argument("--claim", nargs=2, metavar=("WORKLOAD", "METRIC"),
                        help="the workload and metric of the claim block")
    parser.add_argument("--json", metavar="PATH",
                        help="write the end_to_end and claim blocks here")
    args = parser.parse_args(argv)
    if args.claim:
        name, metric = args.claim
        if name not in (workloads if args.workload == "all"
                        else (args.workload,)):
            parser.error(f"--claim: workload {name} is not run")
        if metric not in better:
            parser.error(f"--claim: {metric} is not an end-to-end metric")

    parent, change, correct = [], [], {"parent": True, "change": True}
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", args.against], cwd=ROOT,
                                 capture_output=True)
        if archive.returncode:
            sys.exit(f"pairs: {archive.stderr.decode().strip()}")
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout,
                       check=True)
        sides = (("parent", tmp, parent), ("change", ROOT, change))
        for i in range(args.pairs):
            for side, tree, runs in sides if i % 2 == 0 else sides[::-1]:
                values, ok = run_bench(tree, args.workload, args.seconds)
                runs.append(values)
                correct[side] = correct[side] and ok
            print(f"pair {i + 1} of {args.pairs} done", file=sys.stderr,
                  flush=True)

    block = summarize(parent, change, better)
    print(f"{'workload':16} {'metric':17} {'parent':>12} {'change':>12} "
          f"{'parent_iqr':>12} {'wins':>6}")
    for workload, metrics in block.items():
        for metric, entry in metrics.items():
            print(f"{workload:16} {metric:17} {entry['parent_median']:12.6g} "
                  f"{entry['change_median']:12.6g} "
                  f"{entry['parent_iqr']:12.6g} "
                  f"{entry['change_wins']:>3}/{args.pairs}")
    print(f"correct: {args.against} {correct['parent']}, "
          f"working tree {correct['change']}")
    if args.json:
        Path(args.json).write_text(json.dumps({
            "end_to_end": block,
            "claim": claim(block, *args.claim) if args.claim else None},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
