#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see BENCHMARK.json at the root).

    python3 perfbench/run.py --workload engine_roster --seed 1 --seconds 10 --trace 0

Run from the root of a ckp-local checkout. The script configures and builds
perfbench/ (a CMake package that compiles the checkout's libraries in
Release) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when
that variable is unset, runs the benchmark's arithmetic self-tests, then
runs the measuring program, whose last stdout line is the JSON result.
It exits non-zero without a result when the sources are missing, the build
or a self-test fails, or the program finds an unexpected output.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("engine_roster", "serve_memo")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_sha256():
    """Digest of every file under src/ (path and bytes), in sorted order."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir):
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "perfbench", "perfbench_selftest"])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (log: %s)" % log_path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("no ckp-local sources here (missing %s)" % needed)

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    build(build_dir)

    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              capture_output=True, text=True)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout + selftest.stderr)
        fail("benchmark self-tests failed")

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload=" + args.workload,
           "--seed=%d" % args.seed,
           "--seconds=%r" % args.seconds,
           "--trace=%d" % args.trace,
           "--out_dir=" + os.path.join(build_dir, "out"),
           "--git_sha=" + git_sha(),
           "--source_sha=" + source_sha256(),
           "--build_type=Release"]
    # A fixed mmap threshold (glibc's initial 128 KiB) turns off malloc's
    # dynamic threshold, so every large buffer is mapped and unmapped
    # afresh. With the dynamic one, freed job buffers stayed in the heap
    # and engine_roster's peak RSS over 40 s runs ranged from 199 to 212 MB
    # between seeds; with the fixed one it read 185.0-185.1 MB.
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env)
    lines = proc.stdout.splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    if proc.returncode != 0 or not lines:
        if lines:
            print(lines[-1])
        return proc.returncode or 1
    problem = check_result(lines[-1], args.trace)
    if problem:
        fail("result does not match BENCHMARK.json: " + problem)
    print(lines[-1])
    return 0


def check_result(line, trace):
    """The result line must carry exactly the metrics BENCHMARK.json lists
    for this mode, with the same units."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        want = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    except (OSError, ValueError, KeyError, TypeError) as e:
        return "cannot read BENCHMARK.json (%s)" % e
    try:
        result = json.loads(line)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
    except (ValueError, KeyError, TypeError) as e:
        return "unparsable result line (%s)" % e
    if got != want:
        return "metrics differ: %s" % sorted(set(got.items()) ^
                                            set(want.items()))
    return None


if __name__ == "__main__":
    sys.exit(main())
