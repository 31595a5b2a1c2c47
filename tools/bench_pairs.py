"""Alternating before/after runs of the benchmark, summarised in one file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W \
        --pairs N --seconds S --out BENCH_<label>.json

DIR is the root of a checkout (e.g. `git archive <commit> | tar -x -C DIR`).
Each pair runs `bench/run.py --workload W --seed <pair> --seconds S --trace 0`
once in each checkout, one after the other, and the side that goes first
alternates from pair to pair.  The end-to-end metrics of `--trace 0` are all
better when lower.  Each run also records `net_s`, its `wall_s` less its
`setup_s`: the import-only probe of the same run, so host drift that slows
start-up on one side of a pair can be told apart from the workload's time.

The out file keeps one entry per workload, so a second call with another
workload adds its entry to the same file.  A call with a workload that the
file holds for the same checkout names and run length adds its pairs to
those (seeds and the side that goes first run on); any other entry of the
workload is replaced.  An entry holds, per side, every run's metrics, the
medians, the quartiles and `src.lines`; the per-pair wins of the change;
the seeds, the run length, and the host and Python version from run.py's
context line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_bench(root, workload, seed, seconds):
    """(context, result) of one `bench/run.py --trace 0` run in `root`."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True).stdout
    context, result = out.splitlines()[-2:]
    return json.loads(context)["context"], json.loads(result)


def quartiles(values):
    """(first quartile, third quartile), inclusive method."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def run_metrics(result):
    """The metrics of one `--trace 0` result object, with `net_s`."""
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {**metrics, "net_s": metrics["wall_s"] - metrics["setup_s"]}


def summarize(parent, change):
    """Per metric, from the runs of each side in pair order (lists of
    {metric: value}, lower is better): the medians, the quartiles, which
    pairs the change won, and whether the gain is resolved: the change won
    at least 9 pairs in 10 and its median is lower than the parent's by
    more than the parent's quartile distance."""
    summary = {}
    for name in parent[0]:
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        won = [b < a for a, b in zip(p, c)]
        p_q, c_q = quartiles(p), quartiles(c)
        p_med, c_med = statistics.median(p), statistics.median(c)
        summary[name] = {
            "median": {"parent": p_med, "change": c_med},
            "quartiles": {"parent": p_q, "change": c_q},
            "change_ratio": c_med / p_med if p_med else None,
            "change_won": won,
            "wins": sum(won),
            "resolved_gain": (10 * sum(won) >= 9 * len(won)
                              and p_med - c_med > p_q[1] - p_q[0]),
        }
    return summary


def measure(roots, workload, pairs, seconds, earlier=None):
    """Run the pairs after those of `earlier`, an entry of this workload;
    the out-file entry of all of them."""
    earlier = earlier or {"first": [], "seeds": [],
                          "sides": {side: {"runs": []} for side in SIDES}}
    runs = {side: list(earlier["sides"][side]["runs"]) for side in SIDES}
    first, seeds = list(earlier["first"]), list(earlier["seeds"])
    contexts = {}
    for pair in range(len(seeds), len(seeds) + pairs):
        seed = pair + 1
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            context, result = run_bench(roots[side], workload, seed, seconds)
            contexts[side] = context
            metrics = run_metrics(result)
            runs[side].append({
                "metrics": metrics, "reps": len(context["reps"]),
                "correct": result["correct"],
                "attempted": result["attempted"], "failed": result["failed"]})
            print(f"{workload} pair {pair + 1} {side}: {metrics}",
                  file=sys.stderr, flush=True)
        first.append(order[0])
        seeds.append(seed)
    host = contexts["parent"]["host"]
    lines = {side: contexts[side]["src.lines"] for side in SIDES}
    return {
        "seconds": seconds, "pairs": len(seeds), "seeds": seeds,
        "first": first,
        "host": host, "python": host["python"],
        "sides": {side: {"checkout": roots[side].name,
                         "src.lines": {**lines[side],
                                       "total": sum(lines[side].values())},
                         "runs": runs[side]}
                  for side in SIDES},
        "summary": summarize(*([r["metrics"] for r in runs[side]]
                               for side in SIDES)),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    roots = {side: getattr(args, side).resolve() for side in SIDES}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    workloads = doc.setdefault("workloads", {})
    earlier = workloads.get(args.workload)
    if earlier and (earlier["seconds"] != args.seconds or any(
            earlier["sides"][side]["checkout"] != roots[side].name
            for side in SIDES)):
        earlier = None
    workloads[args.workload] = measure(roots, args.workload, args.pairs,
                                       args.seconds, earlier)
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
