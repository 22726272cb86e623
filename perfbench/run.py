#!/usr/bin/env python3
"""Build and run the pipedepth benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload grid-cold --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds the
library, pipesimd and the harness (Release) under .bench_build/; later
runs only re-check the build. The harness's last stdout line is the
result: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("grid-cold", "tape-resweep", "daemon-mixed")
GOLDEN = os.path.join("tests", "sweep", "golden_sim_hashes.inc")
# The harness must finish inside the benchmark's 180 s per-run budget.
HARNESS_TIMEOUT_S = 170


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", "3", "--target",
                    "pdbench", "pipesimd", "pdbench_selftest"],
                   check=True, stdout=sys.stderr)
    return out


def run_harness(argv):
    """Run argv in its own process group; whatever it leaves behind
    (the daemon of a crashed harness) is killed with the group."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: harness timed out", file=sys.stderr)
        return 1, ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and not a.workload:
        p.error("--workload is required")

    try:
        out = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    if a.self_test:
        return subprocess.run([os.path.join(out, "pdbench_selftest"),
                               GOLDEN]).returncode

    argv = [os.path.join(out, "pdbench"), "--workload", a.workload,
            "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace), "--golden", GOLDEN,
            "--work-dir", ".bench_out"]
    rc, stdout = run_harness(argv)
    lines = stdout.strip().splitlines()
    if rc != 0 or not lines:
        sys.stderr.write(stdout)
        print(f"perfbench: harness failed (exit {rc})", file=sys.stderr)
        return rc or 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
