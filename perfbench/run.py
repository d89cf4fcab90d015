#!/usr/bin/env python3
"""The repo benchmark: builds the program from source, then runs one workload.

    python3 perfbench/run.py --workload study_sweep --seed 1 --seconds 12 --trace 0

Run it from the root of a checkout.  The build goes to .bench_build/ and
results to .bench_out/ (both inside the checkout).  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; with --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones.  The exit code is non-zero when a check fails
or the program cannot be built.  See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
WORKLOADS = ("study_sweep", "service_stream", "fuzz_search")
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def source_id(root):
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "source-sha256:" + h.hexdigest()[:16]


def build(root, jobs):
    """Configures (once) and builds the driver and xplaind; returns the
    paths of both binaries or None."""
    build_dir = os.path.join(root, BUILD_DIR)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench_driver",
           "xplaind", "-j", str(jobs)]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    driver = os.path.join(build_dir, "perfbench_driver")
    daemon = os.path.join(build_dir, "xplain", "xplaind")
    if not (os.access(driver, os.X_OK) and os.access(daemon, os.X_OK)):
        return None
    return driver, daemon


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build, run the benchmark's self-tests and exit")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        log("no xplain source tree here (CMakeLists.txt and src/ are "
            "missing); run from the root of a checkout")
        return 2
    nproc = len(os.sched_getaffinity(0))
    binaries = build(root, min(4, nproc))
    if not binaries:
        log("build failed")
        return 2
    driver, daemon = binaries
    if args.selftest:
        return subprocess.run([driver, "--selftest"]).returncode

    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--xplaind", daemon, "--out-dir", os.path.join(root, OUT_DIR),
           "--commit", source_id(root)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    last = ""
    try:
        for line in proc.stdout:
            sys.stdout.write(line)
            sys.stdout.flush()
            if line.strip():
                last = line
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s; stopped" % RUN_TIMEOUT_S)
        proc.kill()
        proc.wait()
        return 3
    if code == 0 and not metrics_match(root, args.trace, last):
        return 5
    return code


def metrics_match(root, trace, last_line):
    """The result line carries exactly the metrics BENCHMARK.json lists for
    this mode, with the same units."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    try:
        got = {k: v["unit"] for k, v in json.loads(last_line)["metrics"].items()}
    except (ValueError, KeyError, TypeError):
        log("the last output line is not a result object")
        return False
    if got != want:
        log("result metrics differ from BENCHMARK.json: %s"
            % sorted(set(got.items()) ^ set(want.items())))
        return False
    return True


if __name__ == "__main__":
    sys.exit(main())
