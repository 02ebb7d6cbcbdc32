#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload dss_mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The build (CMake, Release) goes to $CARGO_TARGET_DIR/perfbench, or to
.bench_build/perfbench when that variable is unset; the first run compiles
the library from ../src, later runs only check that the build is current.
Build output goes to standard error, so the last line of standard output is
the benchmark's result object. A traced run (--trace 1) also writes its spans
to <build dir>/traces/<workload>.spans.jsonl.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 600


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def check_call(cmd):
    subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True)


def build(targets):
    out = build_dir()
    if not any(os.path.exists(os.path.join(out, f))
               for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        check_call(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    check_call(["cmake", "--build", out, "--target"] + targets + ["-j", jobs])
    return out


def source_digest():
    """SHA-256 over the library and benchmark sources: identifies the code
    even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        try:
            out = build(["perfbench_selftest"])
        except (subprocess.CalledProcessError, OSError) as e:
            print(f"build failed: {e}", file=sys.stderr)
            return 3
        code = subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode
        tests = subprocess.run([sys.executable, "-m", "unittest", "-q",
                                "test_compare"], cwd=HERE).returncode
        return code or tests

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    try:
        out = build(["perfbench"])
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 3
    cmd = [os.path.join(out, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    if args.trace == 1:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}.spans.jsonl")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"benchmark did not finish within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
