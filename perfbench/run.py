#!/usr/bin/env python3
"""Builds the antidote library and the benchmark, then runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload sweep-wdbc --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test    # the benchmark's own tests

The build goes to perfbench/ under $CARGO_TARGET_DIR (default
.bench_build), a directory nothing else uses; stores, traces and other run
files go to .bench_out. The last line of standard output is the result: one
JSON object with the keys correct, attempted, failed and metrics. The
metrics must be ones BENCHMARK.json declares, with its units: end-to-end
metrics when --trace is 0, every per-layer metric when it is 1.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170
HERE = os.path.dirname(os.path.abspath(__file__))


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def nproc():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


def tree_hash(root):
    """A hash of the library and benchmark sources."""
    digest = hashlib.sha256()
    for top in ("src", os.path.relpath(HERE, root)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_output(root, *args):
    try:
        done = subprocess.run(["git"] + list(args), cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_id(root):
    """The git sha, marked with a tree hash when the work tree differs from
    it; only the tree hash outside a repository."""
    if os.path.isdir(os.path.join(root, ".git")) and shutil.which("git"):
        sha = git_output(root, "rev-parse", "HEAD")
        status = git_output(root, "status", "--porcelain")
        if sha and status is not None:
            return sha + ("-dirty-" + tree_hash(root) if status else "")
    return "tree-sha256:" + tree_hash(root)


def run_quiet(command, log):
    """Runs a build step with its output in the log; False on failure."""
    with open(log, "a") as out:
        out.write("$ " + " ".join(command) + "\n")
        out.flush()
        return subprocess.run(command, stdout=out, stderr=out).returncode == 0


def build(root, build_dir, target):
    """Builds in build_dir, a directory only the benchmark uses."""
    src = os.path.join(root, "src")
    if not os.path.isdir(src) or not any(
            name.endswith(".cpp") for _, _, files in os.walk(src)
            for name in files):
        fail("no antidote sources under %s; run from the repository root" % src)
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")):
        fail("no CMakeLists.txt in %s; run from the repository root" % root)
    if not shutil.which("cmake"):
        fail("cmake is required to build the benchmark")
    os.makedirs(build_dir, exist_ok=True)
    log = os.path.join(build_dir, "perfbench-build.log")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if not run_quiet(configure, log):
            print_tail(log)
            # A half-written cache would skip configuring next time.
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configuring failed")
    if not run_quiet(["cmake", "--build", build_dir, "--target", target,
                      "-j", str(nproc())], log):
        print_tail(log)
        fail("building %s failed" % target)


def print_tail(log):
    with open(log) as handle:
        sys.stderr.write(handle.read()[-4000:])


def declared_metrics(root):
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def check_result(line, trace, root):
    """Problems with the result line against BENCHMARK.json; [] when fine."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["the last line is not JSON"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return ["the result has keys %s" % sorted(result)]
    end_to_end, per_layer = declared_metrics(root)
    declared = per_layer if trace else end_to_end
    problems = []
    for name, metric in result["metrics"].items():
        if name not in declared:
            problems.append("metric %s is not declared" % name)
        elif metric.get("unit") != declared[name]:
            problems.append("metric %s has unit %s, declared %s" %
                            (name, metric.get("unit"), declared[name]))
    if set(result["metrics"]) != set(declared):
        problems.append("the run must report every %s metric" %
                        ("per-layer" if trace else "end-to-end"))
    if result["attempted"] < 1:
        problems.append("nothing was attempted")
    return problems


def self_test(root, build_dir):
    build(root, build_dir, "perfbench_tests")
    binary = os.path.join(build_dir, "perfbench_tests")
    return subprocess.run([binary], cwd=root).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
        "perfbench")
    if args.self_test:
        sys.exit(self_test(root, build_dir))
    if (args.workload is None or args.seed is None or args.seconds is None
            or args.trace is None):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not os.path.isfile(os.path.join(root, "BENCHMARK.json")):
        fail("BENCHMARK.json not found; run from the repository root")

    build(root, build_dir, "perfbench")
    work_dir = os.path.join(root, ".bench_out")
    os.makedirs(work_dir, exist_ok=True)
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir,
               "--golden-dir", os.path.join(HERE, "goldens"),
               "--source-id", source_id(root)]
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        output, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        fail("the workload ran past %d s" % RUN_TIMEOUT_S)

    sys.stdout.write(output)
    if child.returncode != 0:
        fail("the workload exited with %d" % child.returncode)
    problems = check_result(output.rstrip("\n").split("\n")[-1],
                            args.trace == 1, root)
    if problems:
        fail("; ".join(problems))


if __name__ == "__main__":
    main()
