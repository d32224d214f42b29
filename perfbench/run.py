#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first run configures and builds
perfbench/ (CMake, Release) into .bench_build/perfbench; later runs only
check that the build is current. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}, where the metrics are the
end_to_end metrics of BENCHMARK.json (--trace 0) or its per_layer metrics
(--trace 1). The line before it, PERFBENCH_PROVENANCE, records the host
shape, build type, source revision, seed, backend, buffer sizes and the
sample count behind each median. Traced runs also write their spans to
.bench_build/traces/.

Exits nonzero when the build fails, when any output differs from its
sequential oracle, or when a workload drifts from its layer predictions.
"""
import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("loop-compute", "buffered-memory", "serve-hotkey")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build failed: {' '.join(cmd)}")
            sys.exit(2)
    return BUILD / "perfbench"


def revision():
    """The git revision when there is one, else a digest of the sources."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.split()
        if done.returncode == 0 and len(lines) == 2 and \
                pathlib.Path(lines[0]).resolve() == ROOT:
            return "git:" + lines[1]
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree:" + digest.hexdigest()[:12]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Fault injection for the benchmark's own tests (test_oracle.py).
    ap.add_argument("--corrupt", choices=("checksum", "counter"))
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rev", revision()]
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)

    provenance = result = None
    for line in done.stdout.splitlines():
        if line.startswith("PERFBENCH_PROVENANCE "):
            provenance = json.loads(line.split(" ", 1)[1])
        elif line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line.split(" ", 1)[1])
    if result is None:
        log(f"no result from {binary} (exit {done.returncode})")
        sys.exit(done.returncode or 3)

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"metric {m['name']} missing or not in {m['unit']}: {got}")
            sys.exit(3)
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    for err in result["errors"]:
        log(err)

    print("PERFBENCH_PROVENANCE " + json.dumps(provenance, sort_keys=True))
    correct = bool(result["correct"]) and done.returncode == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
