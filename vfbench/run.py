#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see vfbench/README.md).

    python3 vfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 vfbench/run.py --selftest

The first call configures and builds the library and the vfbench program in
Release under $CARGO_TARGET_DIR/vfbench (default .bench_build/vfbench,
relative to the checkout root).  Build output goes to stderr; stdout
carries the program's output, whose last line is the JSON result.  The
metric names and units are checked against BENCHMARK.json when it is
present, so the two cannot drift apart.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"vfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_checked(cmd):
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
    if r.returncode != 0:
        fail(f"command failed ({r.returncode}): {' '.join(cmd)}")


def build(target):
    for need in ("CMakeLists.txt", "src", "include"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"library sources missing: no {need} in {ROOT}", 2)
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = os.path.join(ROOT, out, "vfbench")
    if not os.path.exists(os.path.join(bdir, "Makefile")):
        run_checked(["cmake", "-S", HERE, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", bdir, "--target", target, "-j", jobs])
    return bdir


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()

    if a.selftest:
        bdir = build("vfbench_selftest")
        sys.exit(subprocess.run([os.path.join(bdir, "vfbench_selftest")],
                                cwd=ROOT).returncode)
    if not a.workload:
        fail("--workload is required", 2)

    bdir = build("vfbench")
    cmd = [os.path.join(bdir, "vfbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace)]
    if a.trace:
        tdir = os.path.join(bdir, "traces")
        os.makedirs(tdir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(tdir, f"{a.workload}-seed{a.seed}.json")]

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    signal.signal(signal.SIGTERM, lambda *_: proc.kill())
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        fail("vfbench did not finish")
    if proc.returncode != 0:
        fail(f"vfbench exited with {proc.returncode}", proc.returncode or 1)

    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    want = expected_metrics(a.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want is not None and got != want:
        fail(f"metrics differ from BENCHMARK.json: got {sorted(got.items())}, "
             f"want {sorted(want.items())}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
