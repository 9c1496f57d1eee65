#!/usr/bin/env python3
"""Campaign benchmark for the rendezvous simulator (see README.md here).

Usage, from the repository root:

    python3 perfbench/run.py --workload pair-kernel --seed 1 --seconds 25 --trace 0

Builds fnr_core and fnrd with the repository's own CMake project and the
driver with this directory's, all under .bench_build/, then runs one
workload. For the served workload and for every traced run it starts an
fnrd, and always stops it again (SIGTERM, wait, SIGKILL on timeout), also
when a check fails or the driver dies. The last line of standard output is
the driver's JSON result; build logs and diagnostics go to standard error.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = {
    # name -> cells in flight in fnrd's executor (None: not served when
    # untraced)
    "pair-kernel": None,
    "large-graphs": None,
    "swarm-gather": None,
    "served-small-cells": 2,
}
DRIVER_TIMEOUT_S = 170
STOP_TIMEOUT_S = 10


class Stopped(Exception):
    pass


def on_signal(signum, _frame):
    raise Stopped(f"signal {signum}")


def build():
    """Builds fnr_core, fnrd and the driver; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not \
            os.path.isdir(os.path.join(ROOT, "src")):
        raise RuntimeError("no repository sources next to perfbench/")
    core = os.path.join(BUILD, "core")
    driver = os.path.join(BUILD, "driver")
    jobs = str(min(4, os.cpu_count() or 1))
    log = {"stdout": sys.stderr, "stderr": sys.stderr, "check": True}
    if not os.path.isfile(os.path.join(core, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", ROOT, "-B", core,
                        "-DFNR_BUILD_TESTS=OFF", "-DFNR_BUILD_BENCHES=OFF",
                        "-DFNR_BUILD_EXAMPLES=OFF", "-DFNR_BUILD_TOOLS=ON"],
                       **log)
    subprocess.run(["cmake", "--build", core, "-j", jobs,
                    "--target", "fnr_core", "fnrd"], **log)
    if not os.path.isfile(os.path.join(driver, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", driver,
                        "-DFNR_SOURCE_DIR=" + ROOT,
                        "-DFNR_CORE_LIBRARY=" +
                        os.path.join(core, "libfnr_core.a")], **log)
    subprocess.run(["cmake", "--build", driver, "-j", jobs], **log)
    return os.path.join(core, "fnrd"), os.path.join(driver, "perfbench_driver")


def stop(proc, sig=signal.SIGTERM):
    """Stops a child: `sig`, a bounded wait, then SIGKILL and a wait."""
    if proc is None or proc.poll() is not None:
        return
    try:
        proc.send_signal(sig)
        proc.wait(timeout=STOP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)

    fnrd_bin, driver_bin = build()
    work = os.path.join(BUILD, "work", f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    fnrd = driver = None
    try:
        served_jobs = WORKLOADS[args.workload]
        t0 = time.monotonic_ns()
        cmd = [driver_bin, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--t0-ns", str(t0)]
        if served_jobs is not None or args.trace:
            # Relative socket path: the checkout's absolute path may exceed
            # the 108-byte sun_path limit.
            fnrd = subprocess.Popen(
                [fnrd_bin, "--socket=fnrd.sock", "--workdir=.",
                 "--workers=1", "--threads=1",
                 f"--jobs={served_jobs or 1}", "--quiet"], cwd=work)
            cmd += ["--socket", "fnrd.sock", "--fnrd-pid", str(fnrd.pid)]
        driver = subprocess.Popen(cmd, cwd=work, stdout=subprocess.PIPE,
                                  text=True)
        out, _ = driver.communicate(timeout=DRIVER_TIMEOUT_S)
        if driver.returncode != 0:
            raise RuntimeError(f"driver exited {driver.returncode}")
        if fnrd is not None and fnrd.poll() is not None:
            raise RuntimeError(f"fnrd died (exit {fnrd.returncode})")
        lines = out.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        if not isinstance(result, dict) or set(result) != {
                "correct", "attempted", "failed", "metrics"}:
            raise RuntimeError("driver printed no result line")
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        stop(driver, signal.SIGKILL)
        stop(fnrd)
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (Exception, Stopped) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        sys.exit(1)
