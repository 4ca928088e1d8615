#!/usr/bin/env python3
"""Paired parent/change runs of the repository benchmark.

Usage, from the repository root:

    python3 scripts/bench_pairs.py --parent REV --pairs 10 \\
        --workloads fig1-community,observer-scale

Both sides are commits: the parent is --parent and the change is --change
(default HEAD), each exported with `git archive` into the work directory
(default build/bench_pairs, inside the git-ignored build tree), so
uncommitted edits never reach a run and every record can be reproduced
from its two revisions. For each workload the script runs perfbench/run.py
on both sides in k alternating pairs at BENCHMARK.json's run_seconds: pair
i runs the parent first when i is even and the change first when it is
odd, both on seed SEEDS[i % 3]. Each side builds under its own
CARGO_TARGET_DIR in the work directory, so neither rebuilds the other's
objects.

Writes --out (default BENCH_perf.json at the repository root). Per workload
it holds both revisions and, for each end-to-end metric of BENCHMARK.json:
both medians, the change/parent ratio of the medians, both interquartile
ranges, every value, and the number of pairs the change won (in the
metric's "better" direction). It also holds, per seed, both sides'
perfbench digests and whether they match; both sides' failed check counts;
and both sides' run manifests. Workloads already in an existing --out file
that this call does not run are kept, so slow and fast workloads can be
measured in separate calls with different pair counts.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def fail(message):
    print(f"bench_pairs: {message}", file=sys.stderr)
    sys.exit(2)


def resolve(rev):
    proc = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                          cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        fail(f"unknown revision {rev!r}")
    return proc.stdout.strip()


def export(name, sha, work):
    """Commit `sha` exported under `work` once, with its own build dir."""
    tree = work / f"tree-{sha[:12]}"
    if not (tree / "perfbench" / "run.py").is_file():
        tree.mkdir(parents=True, exist_ok=True)
        archive = subprocess.run(["git", "archive", "--format=tar", sha],
                                 cwd=ROOT, stdout=subprocess.PIPE, check=True)
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive.stdout,
                       check=True)
    return {"name": name, "rev": sha, "tree": tree,
            "target": work / f"target-{sha[:12]}"}


def run_once(side, workload, seed, seconds):
    """One perfbench/run.py call: (result, detail) parsed from its stdout."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(side["target"]))
    cmd = [sys.executable, str(side["tree"] / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=side["tree"], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"{side['name']} {workload} seed {seed}: run.py exited "
             f"{proc.returncode}")
    if not lines[-2].startswith("detail: "):
        fail(f"{side['name']} {workload}: no detail line in run.py output")
    return json.loads(lines[-1]), json.loads(lines[-2][len("detail: "):])


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(metric, parent, change):
    """Medians, spreads and pair wins of one metric over all pairs."""
    lower = metric["better"] == "lower"
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    wins = sum(1 for p, c in zip(parent, change)
               if (c < p if lower else c > p))
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "parent_median": parent_median,
        "change_median": change_median,
        "ratio": change_median / parent_median if parent_median else None,
        "parent_iqr": iqr(parent),
        "change_iqr": iqr(change),
        "change_wins": wins,
        "pairs": len(parent),
        "parent": parent,
        "change": change,
    }


def measure(workload, sides, pairs, seconds, metrics):
    runs = {side["name"]: [] for side in sides}
    for i in range(pairs):
        seed = SEEDS[i % len(SEEDS)]
        order = sides if i % 2 == 0 else sides[::-1]
        for side in order:
            result, detail = run_once(side, workload, seed, seconds)
            runs[side["name"]].append((seed, result, detail))
            print(f"{workload} pair {i + 1}/{pairs} seed {seed} "
                  f"{side['name']}: run_s "
                  f"{result['metrics']['run_s']['value']:.4f}",
                  file=sys.stderr, flush=True)
    entry = {"seeds": sorted(set(SEEDS[i % len(SEEDS)]
                                 for i in range(pairs))),
             "seconds": seconds, "metrics": {}, "digests": {}}
    for metric in metrics:
        values = {name: [r["metrics"][metric["name"]]["value"]
                         for _, r, _ in rs] for name, rs in runs.items()}
        entry["metrics"][metric["name"]] = summarize(
            metric, values["parent"], values["change"])
    for seed in entry["seeds"]:
        seen = {name: sorted({",".join(d["manifest"]["digests"])
                              for s, _, d in rs if s == seed})
                for name, rs in runs.items()}
        entry["digests"][str(seed)] = {
            "parent": seen["parent"], "change": seen["change"],
            "match": len(seen["parent"]) == 1
            and seen["parent"] == seen["change"]}
    entry["digests_match"] = all(d["match"]
                                 for d in entry["digests"].values())
    for name, rs in runs.items():
        entry[f"{name}_checks"] = {
            "attempted": sum(r["attempted"] for _, r, _ in rs),
            "failed": sum(r["failed"] for _, r, _ in rs),
            "all_correct": all(r["correct"] for _, r, _ in rs)}
        entry[f"{name}_manifest"] = rs[0][2]["manifest"]
    for side in sides:
        entry[f"{side['name']}_rev"] = side["rev"]
    return entry


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--change", default="HEAD",
                        help="change revision (default: HEAD)")
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--workloads", help="comma-separated (default: all "
                        "of BENCHMARK.json)")
    parser.add_argument("--work-dir", default=str(ROOT / "build" /
                                                  "bench_pairs"))
    parser.add_argument("--out", default=str(ROOT / "BENCH_perf.json"))
    args = parser.parse_args()

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in benchmark["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else known
    for w in workloads:
        if w not in known:
            fail(f"unknown workload {w!r} (known: {', '.join(known)})")
    if args.pairs < 1:
        fail("--pairs must be at least 1")
    seconds = float(benchmark["run_seconds"])

    work = Path(args.work_dir).resolve()
    work.mkdir(parents=True, exist_ok=True)
    sides = [export("parent", resolve(args.parent), work),
             export("change", resolve(args.change), work)]

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault("workloads", {})
    for workload in workloads:
        entry = measure(workload, sides, args.pairs, seconds,
                        benchmark["end_to_end"])
        entry["command"] = " ".join(["python3", "scripts/bench_pairs.py"] +
                                    sys.argv[1:])
        doc["workloads"][workload] = entry
        out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        run_s = entry["metrics"]["run_s"]
        print(f"{workload}: run_s {run_s['parent_median']:.4f} -> "
              f"{run_s['change_median']:.4f} (ratio {run_s['ratio']:.3f}, "
              f"{run_s['change_wins']}/{run_s['pairs']} wins), digests "
              f"{'match' if entry['digests_match'] else 'DIFFER'}")


if __name__ == "__main__":
    main()
