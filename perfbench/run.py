#!/usr/bin/env python3
"""Build and run the Paraprox wall-clock benchmark.

    python3 perfbench/run.py --workload serve-small --seed 1 --seconds 20 --trace 0

Run from anywhere; paths are resolved against the checkout this file sits
in.  The first run configures and builds perfbench/ (which compiles the
library from ../src) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench.  The environment is pinned per workload: the
artifact-store and fault-injection variables are cleared, so set-up is
always cold and no fault schedule leaks in, and PARAPROX_THREADS is set to
the workload's thread budget.

Everything the benchmark prints goes to standard output; the last line is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.  With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with --trace 1
its per_layer list.  Exits non-zero when the build fails, when a metric is
missing, or when the run found an exact-output mismatch, an unresolved
request or an invalid run.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
OUT_DIR = "perfbench/out"

# Thread budget per workload (PARAPROX_THREADS = host pool size).
# serve-small: 4 service workers, each launching inline (a pool of 1 runs
# a launch on the calling thread), plus the generator and the completion
# collector.  offline-apps: one caller fanning launches out over 4 pool
# threads.  fleet-mixed: 2 replicas x 2 workers launching inline, 4 client
# threads, and the front-door process's own checks on one thread.
THREADS = {"serve-small": "1", "offline-apps": "4", "fleet-mixed": "1"}
CLEARED = ("PARAPROX_STORE_DIR", "PARAPROX_FAULTS", "PARAPROX_FAULT_SEED")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no Paraprox sources under {ROOT / 'src'}")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    compile_ = ["cmake", "--build", str(build_dir), "--target", "perfbench",
                "-j", jobs]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "perfbench"


def stop_group(proc):
    """Kill whatever is left of the run's process group and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(THREADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("no BENCHMARK.json at the checkout root")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    os.chdir(ROOT)
    env = {k: v for k, v in os.environ.items() if k not in CLEARED}
    env["PARAPROX_THREADS"] = THREADS[args.workload]
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", OUT_DIR,
               "--digests", "perfbench/digests.txt"]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                            text=True, start_new_session=True)

    def interrupted(signum, _frame):
        stop_group(proc)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, interrupted)
    signal.signal(signal.SIGINT, interrupted)
    try:
        output, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 3)
    stop_group(proc)

    lines = output.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(output)
        fail(f"no result line (exit code {proc.returncode})", 1)
    for line in lines[:-1]:
        print(line)

    metrics = {}
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None or got["value"] is None:
            fail(f"metric {metric['name']} missing or not finite", 1)
        if got["unit"] != metric["unit"]:
            fail(f"metric {metric['name']} in {got['unit']}, "
                 f"BENCHMARK.json says {metric['unit']}", 1)
        metrics[metric["name"]] = {"value": got["value"],
                                   "unit": got["unit"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
