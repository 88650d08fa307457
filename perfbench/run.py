#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>]

Run from the root of a source checkout. The first call configures and
builds rps_bench (perfbench/CMakeLists.txt, which pulls in the library
from the repository's own CMakeLists.txt with its Release flags) under
.bench_build/; later calls only re-check the build. Each workload then
runs in its own process, so peak RSS belongs to one workload. The last
line of standard output is rps_bench's one-object JSON result.

`--workload all` runs every workload once (untraced), prints each
end-to-end metric with its unit and sample count, runs rps_adv a second
time with the same seed and exits non-zero if any run reports a wrong
reply or if robust accuracy differs between the two rps_adv runs.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["rps_interactive", "rps_bulk", "rps_stream_budget", "rps_adv"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root: Path) -> Path:
    """Configure (once) and build rps_bench; build output goes to a log
    file so standard output carries only results."""
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail(f"{root} is not a source checkout (no CMakeLists.txt or src/)", 2)
    build_dir = root / ".bench_build" / "cmake"
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = root / ".bench_build" / "build.log"
    jobs = str(min(8, max(1, len(os.sched_getaffinity(0)))))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "rps_bench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step failed: {e}")
            if rc != 0:
                log.flush()
                tail = log_path.read_text(errors="replace")[-4000:]
                print(tail, file=sys.stderr)
                fail(f"build failed (see {log_path})")
    binary = build_dir / "rps_bench"
    if not binary.is_file():
        fail("build produced no rps_bench binary")
    return binary


def run_one(binary: Path, root: Path, workload, seed, seconds, trace,
            echo=True):
    """Run one workload in its own process; returns (exit code, result
    dict or None, stdout lines)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-dir", str(root / ".bench_build" / "traces"),
           "--work-dir", str(root / ".bench_build" / "work")]
    # Own process group: a timeout also stops the artifact writer the
    # benchmark may have spawned.
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = out.splitlines()
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result, lines


def run_all(binary, root, seed, seconds):
    ok = True
    robust = []
    print(f"{'workload':18s} {'metric':22s} {'value':>14s} {'unit':6s} samples")
    for workload in WORKLOADS + ["rps_adv"]:
        rc, result, lines = run_one(binary, root, workload, seed, seconds, 0,
                                    echo=False)
        if result is None:
            print(f"{workload}: exited {rc} without a result", file=sys.stderr)
            ok = False
            continue
        for line in lines:
            parts = line.split()
            if parts and parts[0] == "meta":
                print(line)
            if parts and parts[0] in ("metric", "info"):
                samples = parts[-1].strip("(n=)")
                print(f"{workload:18s} {parts[1]:22s} {float(parts[2]):14.6g} "
                      f"{parts[3]:6s} {samples}")
            if parts[:2] == ["info", "robust_acc"]:
                robust.append(parts[2])
        if rc != 0 or not result["correct"] or result["failed"]:
            print(f"{workload}: exit={rc} correct={result['correct']} "
                  f"failed={result['failed']}", file=sys.stderr)
            ok = False
    if len(robust) == 2 and robust[0] != robust[1]:
        print(f"rps_adv: robust_acc differs between runs ({robust[0]} vs "
              f"{robust[1]})", file=sys.stderr)
        ok = False
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)

    root = Path(__file__).resolve().parent.parent
    binary = build(root)
    if args.workload == "all":
        sys.exit(run_all(binary, root, args.seed, args.seconds))
    rc, _, _ = run_one(binary, root, args.workload, args.seed, args.seconds,
                       args.trace)
    sys.exit(rc)


if __name__ == "__main__":
    main()
