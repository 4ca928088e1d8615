#!/usr/bin/env python3
"""Repository benchmark: build the driver from source, run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload fig1-community --seed 1 \
        --seconds 20 --trace 0

Workloads: fig1-community, adversary-gossip, swarm-heavy, observer-scale
(BENCHMARK.json says why each is there). --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones (see perfbench/driver.cpp).

The first call configures and builds perfbench/CMakeLists.txt (the
BarterCast libraries from src/ plus the driver, RelWithDebInfo) under
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
rebuild what changed. Build output goes to stderr. Each call runs the
driver in a fresh process, so peak RSS belongs to that workload alone.

Standard output ends with one JSON line:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
where attempted/failed count the correctness checks (digest repeats and
paper-shape gates). The line before it, prefixed "detail: ", holds the run
manifest (git sha or source digest, compiler, build type, seeds, workload
config, threads, nproc, effective CPUs), the layer attribution notes, every
repetition's run_s and any failed checks; the same record is written to
<build dir>/results/<workload>-seed<N>-trace<T>.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("fig1-community", "adversary-gossip", "swarm-heavy",
             "observer-scale")
DRIVER_TIMEOUT_S = 170
BUILD_JOBS = 2


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, cwd):
    """Runs a build step; its output goes to stderr, failure aborts."""
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    sys.stderr.write(proc.stdout)
    if proc.returncode != 0:
        fail(f"build step failed ({proc.returncode}): {' '.join(cmd)}")


def build(root, build_dir):
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_logged(cmd, root)
    run_logged(["cmake", "--build", str(build_dir), "-j", str(BUILD_JOBS)],
               root)
    return build_dir / "perfbench_driver"


def source_digest(root):
    """sha256 over src/ and perfbench/ (path + bytes), for checkouts that
    carry no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def git_sha(root):
    if not (root / ".git").exists() or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_manifest():
    nproc = os.cpu_count() or 1
    affinity = len(os.sched_getaffinity(0))
    cpu_max = None
    quota_cpus = None
    try:
        # cgroup v2 "quota period"; v1 keeps the two in separate files.
        v2 = Path("/sys/fs/cgroup/cpu.max")
        if v2.exists():
            cpu_max = v2.read_text().strip()
        else:
            v1 = Path("/sys/fs/cgroup/cpu")
            cpu_max = " ".join(
                (v1 / f).read_text().strip()
                for f in ("cpu.cfs_quota_us", "cpu.cfs_period_us"))
        quota, period = cpu_max.split()
        if quota not in ("max", "-1"):
            quota_cpus = int(quota) / int(period)
    except (OSError, ValueError):
        pass
    effective = affinity if quota_cpus is None else min(affinity, quota_cpus)
    return {"nproc": nproc, "affinity_cpus": affinity,
            "cgroup_cpu_max": cpu_max, "effective_cpus": effective}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no BarterCast sources under {root / 'src'}; run from a "
             "full checkout")
    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = root / build_root
    build_dir = build_root / "perfbench"

    started = time.monotonic()
    driver = build(root, build_dir)
    build_s = time.monotonic() - started

    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"driver exited {proc.returncode} without a result")
    detail = json.loads(lines[-1])
    result = detail.pop("result")
    detail["manifest"].update(git_sha=git_sha(root),
                              source_sha256=source_digest(root),
                              build_s=round(build_s, 3), **cpu_manifest())
    results_dir = build_root / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    out = results_dir / (f"{args.workload}-seed{args.seed}"
                         f"-trace{args.trace}.json")
    out.write_text(json.dumps({"result": result, **detail}, indent=2) + "\n")

    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
