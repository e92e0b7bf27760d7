#!/usr/bin/env python3
"""Build and run the negotiation benchmark.

    python3 perfbench/run.py --workload deep-churn --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench, runs the
helper self-tests, then hands every argument to the tprmbench driver.  The
driver's last stdout line is the result JSON.  Exits non-zero without a
result when the sources, the build or the self-tests fail.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
BUILD_TYPE = "Release"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_quiet(command):
    """Runs a build step with its output on stderr; fails the run if it does."""
    done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail("step failed (%d): %s" % (done.returncode, " ".join(command)))


def source_digest():
    """SHA-256 over the library sources the benchmark builds."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "none"


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if subprocess.run(
            ["ninja", "--version"], capture_output=True).returncode == 0 else []
        run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE] + generator)
    run_quiet(["cmake", "--build", build_dir, "-j4"])
    run_quiet([os.path.join(build_dir, "tprmbench_selftest"), "--gtest_brief=1"])


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under %s/src; run from a full checkout" % ROOT)
    build_dir = os.path.abspath(os.path.join(ROOT, BUILD))
    build(build_dir)
    command = [os.path.join(build_dir, "tprmbench")] + sys.argv[1:] + [
        "--commit", git_commit(), "--source-digest", source_digest(),
        "--out-dir", os.path.relpath(os.path.join(build_dir, "out"), os.getcwd())]
    sys.stdout.flush()
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
