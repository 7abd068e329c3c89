#!/usr/bin/env python3
"""Build perfbench from source and run one workload of the annsim benchmark.

    python3 perfbench/run.py --workload sift-batch --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. The C++ program is configured and built
(incrementally) into the directory named by CARGO_TARGET_DIR, or
.bench_build at the checkout root; build logs go to standard error. The
program's report is relayed to standard output, whose last line is one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

Exit status: 0 when the run was correct; 1 when a correctness gate failed;
2 when the build or the run could not complete.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("sift-batch", "sift-serve", "mixed-write")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Set-up plus --seconds of measurement; a run must end within 180 s.
RUN_TIMEOUT_S = 170


def build(build_dir, env):
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, env=env)
    return os.path.join(build_dir, "perfbench")


def result_line(line):
    """The parsed result object, or None when `line` is not one."""
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        exe = build(build_dir, env)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    work = os.path.join(build_dir, "work", f"{args.workload}-{os.getpid()}")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.splitlines()
    result = result_line(lines[-1]) if lines else None
    if result is None:
        sys.stdout.write(proc.stdout)
        print(f"perfbench: no result line (exit {proc.returncode})",
              file=sys.stderr)
        return proc.returncode or 2
    print("\n".join(lines))
    sys.stdout.flush()
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
