#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <call-dense|compute|observed|fleet> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build` at the repository root), then runs it. Build output
goes to standard error; the benchmark's own output goes to standard output,
whose last line is the JSON result. The benchmark runs with glibc's malloc
set to keep freed memory (see `MALLOC_TUNABLES`). With `--trace 1` the
recorded spans are written to `perfbench/out/`. Exits non-zero, without a
result, when the build fails (for example when the repository's crates are
missing).
"""

import argparse
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# glibc malloc keeps freed memory instead of handing it back to the kernel,
# so each timed execution does not page-fault and re-zero the memory the
# previous execution's SoC released: that kernel work costs what the host's
# memory bandwidth allows at the moment, not what the simulator does.
MALLOC_TUNABLES = "glibc.malloc.trim_threshold=1073741824:glibc.malloc.mmap_threshold=33554432"


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(here, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(build, cwd=root, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    target = target if os.path.isabs(target) else os.path.join(root, target)
    binary = os.path.join(target, "release", "perfbench")
    cmd = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", args.trace,
    ]
    if args.trace == "1":
        out = os.path.join(here, "out", f"trace-{args.workload}-seed{args.seed}.jsonl")
        cmd += ["--trace-out", out]
    env["GLIBC_TUNABLES"] = MALLOC_TUNABLES
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
