#!/usr/bin/env python3
"""Builds the cebis benchmark from source and runs one workload.

    python3 perfbench/run.py --workload sweep|service --seed N \\
        --seconds S --trace 0|1 [--tiny]

Run it from the repository root. The first run configures and builds
the cebis library and the perfbench binary with CMake (Release, GCC,
no downloads) under $CARGO_TARGET_DIR, or .bench_build when that is
unset; later runs only rebuild what changed. Build output goes to
stderr. The binary's event logs live in a per-run temporary directory
under the build directory, which it removes; a traced run leaves its
Chrome trace in <build>/perfbench-work/trace-<workload>.json.

The last line of stdout is the binary's JSON result. A failed build,
failed output check or invalid measurement exits non-zero and prints no
result; bad arguments exit 2.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep", "service")
MAX_SECONDS = 3600


def seed(text):
    # bench_common.h's seed_from_args rule, which the perfbench binary
    # applies too: a base-10 unsigned integer that fits in 64 bits.
    if not text.isdigit() or not text.isascii() or int(text) >= 2**64:
        raise argparse.ArgumentTypeError(
            f"invalid seed '{text}': expected a base-10 unsigned integer")
    return text


def seconds(text):
    if not text.isdigit() or not 1 <= int(text) <= MAX_SECONDS:
        raise argparse.ArgumentTypeError(
            f"--seconds must be an integer in [1, {MAX_SECONDS}]")
    return text


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=seed)
    parser.add_argument("--seconds", required=True, type=seconds)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (see smoke_test.py)")
    return parser.parse_args(argv)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def call(command, **kwargs):
    try:
        return subprocess.run(command, check=False, **kwargs)
    except OSError as e:
        fail(f"cannot run {command[0]}: {e}")


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        done = call(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed ({done.returncode}): {' '.join(step)}")
    return os.path.join(build_dir, "perfbench")


def main(argv):
    args = parse_args(argv)
    if not all(os.path.isfile(os.path.join(ROOT, *path))
               for path in (["CMakeLists.txt"], ["src", "CMakeLists.txt"])):
        fail("CMakeLists.txt and src/ not found next to perfbench/: run from "
             "a full checkout of the repository")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(ROOT, target, "cmake"))
    # Keep the compiler's and the binary's temporary files in the checkout.
    os.environ["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    binary = build(build_dir)
    command = [binary, "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--work-dir", os.path.join(build_dir, "perfbench-work")]
    if args.tiny:
        command.append("--tiny")
    done = call(command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0:
        sys.exit(done.returncode)
    try:
        json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("perfbench printed no JSON result")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
