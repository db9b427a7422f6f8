#!/usr/bin/env python3
"""End-to-end benchmark of the trichroma verdict pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload catalog_cold --seed 1 --seconds 20 --trace 0

Builds the library and the perfbench binary from source in Release mode
(into .bench_build/perfbench), runs the workload, checks every verdict and
prints one JSON result line last:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
the traced decomposition. Exits non-zero on a wrong verdict, a failed check,
or when the sources or a Release build are missing. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_ROOT = os.path.join(ROOT, ".bench_build", "perfbench-work")
WORKLOADS = ("catalog_cold", "catalog_warm", "random_split", "deep_probe")
# Set-up is repeated in this many processes (the measured run included) and
# setup_s is their median.
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def cache_entry(key):
    """A CMAKE cache value of the benchmark build tree, or None."""
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build():
    """Configures (once) and builds the perfbench binary; refuses non-Release builds."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"trichroma sources not found under {ROOT}/src")
    # A build tree copied from another checkout would build that checkout.
    if cache_entry("CMAKE_HOME_DIRECTORY") not in (None, HERE):
        shutil.rmtree(BUILD_DIR)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if cache_entry("CMAKE_BUILD_TYPE") is None:
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perfbench"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed", 3)
    build_type = cache_entry("CMAKE_BUILD_TYPE")
    if build_type != "Release":
        fail(f"{BUILD_DIR} is a '{build_type}' build; benchmarks run on Release")
    return os.path.join(BUILD_DIR, "perfbench")


def run_child(binary, mode, args, tag):
    """Runs the perfbench binary once in a fresh work dir; returns (exit code, result)."""
    work = os.path.join(WORK_ROOT, f"{os.getpid()}-{tag}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [binary, "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--work-dir", work]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"{mode} run exited with {proc.returncode}", 4)
    for line in lines[:-1]:
        print(line)
    return proc.returncode, json.loads(lines[-1])


def source_stamp():
    """The git commit, or a digest of the library sources outside git."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    binary = build()
    failed = 0
    if args.trace == 0:
        code, result = run_child(binary, "run", args, "run")
        setups = [result["metrics"]["setup_s"]["value"]]
        for i in range(SETUP_SAMPLES - 1):
            setup_code, setup = run_child(binary, "setup", args, f"setup{i}")
            failed += setup["failed"]
            code = max(code, setup_code)
            setups.append(setup["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    else:
        code, result = run_child(binary, "trace", args, "trace")
        # Self-check: the input profile is a deterministic count and must
        # repeat exactly in a second process of the same build.
        profile_code, again = run_child(binary, "profile", args, "profile")
        code = max(code, profile_code)
        failed += again["failed"]
        if again["profile"] != result["profile"]:
            print("perfbench: input profile differs between two runs:\n"
                  f"  {json.dumps(result['profile'])}\n"
                  f"  {json.dumps(again['profile'])}", file=sys.stderr)
            failed += 1
    failed += result["failed"]

    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu_model(),
        "compiler": result["compiler"], "build_type": result["build_type"],
        "jobs": result["jobs"], "commit": source_stamp(),
        "draws": result["draws"],
        "dedup_skips": result["dedup_skips"],
        "undecided": result["undecided"],
        "witnesses_verified": result["witnesses_verified"],
    }
    print("# context: " + json.dumps(context))
    print("# profile: " + json.dumps(result["profile"]))
    for name, metric in result["metrics"].items():
        print(f"# {name:34s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0 and code == 0,
                      "attempted": result["attempted"], "failed": failed,
                      "metrics": result["metrics"]}))
    sys.exit(0 if failed == 0 and code == 0 else 1)


if __name__ == "__main__":
    main()
