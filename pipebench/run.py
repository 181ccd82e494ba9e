#!/usr/bin/env python3
"""Pipeline benchmark of the C semantics pipeline.

Builds the harness (a CMake package in this directory that compiles the
program from ../src), runs one workload on seeded inputs and prints, as the
last stdout line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

End-to-end metrics with --trace 0, per-layer metrics with --trace 1. Every
result is also written, stamped with the host, to
<build>/results/<workload>-s<seed>-t<trace>-r<n>.json for compare.py, where
n counts the runs of that workload, seed and trace in the build.

    python3 pipebench/run.py --workload compile --seed 1 --seconds 16 --trace 0
    python3 pipebench/run.py --selfcheck
    python3 pipebench/run.py --workload serve --seed 3 --dump-inputs DIR

See pipebench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("compile", "explore", "suite", "serve")

# Seconds one pass of each workload took on the reference host (4-core
# Xeon VM, Release build). A run does round(seconds / PASS_SECONDS) whole
# passes: fixed work for a given --seconds, never a time window. A serve
# pass took 0.15 s, but each one leaves 188 files in the daemon's disk tier,
# and a run's files slow the file system calls of the runs after it; counted
# as 0.4 s, a run makes 40 passes, not 107.
PASS_SECONDS = {"compile": 0.23, "explore": 0.35, "suite": 0.12, "serve": 0.4}
# Set-ups per run, each in a fresh process; setup_s is the median of their
# fastest quarter.
SETUPS = 9
HARNESS_TIMEOUT_S = 165


def fail(msg):
    print("pipebench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "pipebench")


def build():
    """Configures once, then brings the harness up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources next to the benchmark (expected ../src)")
    bdir = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "pipebench-harness",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "pipebench-harness")


def cmake_cache(bdir, key):
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def source_digest():
    """sha256 over the program and benchmark sources: names the code
    exactly even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "pipebench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def host_stamp():
    bdir = build_dir()
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f
                        if l.startswith("model name")), "")
    except OSError:
        pass
    cxx = cmake_cache(bdir, "CMAKE_CXX_COMPILER")
    compiler = ""
    if cxx:
        out = subprocess.run([cxx, "--version"], capture_output=True, text=True)
        compiler = out.stdout.splitlines()[0] if out.stdout else cxx
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = out.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "compiler": compiler,
        "build_type": cmake_cache(bdir, "CMAKE_BUILD_TYPE"),
        "commit": commit,
        "source_sha256": source_digest(),
    }


def passes_for(workload, seconds):
    return max(2, round(seconds / PASS_SECONDS[workload]))


def run_harness(harness, workload, seed, passes, setups, trace, extra=()):
    """Runs the harness once; returns its parsed result line."""
    bdir = build_dir()
    work = os.path.join(bdir, "work-%d" % os.getpid())
    cmd = [harness, "--workload", workload, "--seed", str(seed),
           "--passes", str(passes), "--setups", str(setups),
           "--trace", "1" if trace else "0",
           # Relative, so the daemon's unix socket path stays short.
           "--work-dir", os.path.relpath(work, ROOT)] + list(extra)
    # Set-up time counts from here, on the harness's (monotonic) clock.
    cmd += ["--start-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness timed out: " + " ".join(cmd))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        fail("harness exited %d: %s" % (proc.returncode, " ".join(cmd)))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("harness printed no result")
    return json.loads(lines[-1])


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def measure(args):
    harness = build()
    passes = passes_for(args.workload, args.seconds)
    bdir = build_dir()
    results = os.path.join(bdir, "results")
    os.makedirs(results, exist_ok=True)
    n = 1
    while True:
        stem = "%s-s%d-t%d-r%d" % (args.workload, args.seed, args.trace, n)
        if not os.path.exists(os.path.join(results, stem + ".json")):
            break
        n += 1
    extra = []
    if args.trace:
        extra = ["--trace-out", os.path.join(results, stem + ".trace.json")]
    result = run_harness(harness, args.workload, args.seed, passes,
                         1 if args.trace else SETUPS, args.trace, extra)
    inexact = result.pop("inexact", [])
    samples = {k: result.pop(k, []) for k in ("passes_ms", "setups_s")}
    want = expected_metrics(args.trace)
    missing = [m for m in want if m not in result["metrics"]]
    if missing:
        fail("harness did not report " + ", ".join(missing))
    result["metrics"] = {m: result["metrics"][m] for m in want}
    host = host_stamp()
    with open(os.path.join(results, stem + ".json"), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "passes": passes,
                   "trace": args.trace, "host": host, "result": result,
                   "inexact": inexact, "samples": samples},
                  f, indent=1)
    print("host: " + json.dumps(host))
    print(json.dumps(result))


def selfcheck():
    """Short runs of every workload; asserts that one wrong reference is
    exactly one failed op, that exact counts repeat for one seed, and that
    clean runs (warm serve replies byte-identical to cold) fail nothing."""
    harness = build()
    exact_units = ("count/op", "B/op", "ratio")
    ok = True

    def check(cond, what):
        nonlocal ok
        print(("ok   " if cond else "FAIL ") + what)
        ok = ok and cond

    for w in WORKLOADS:
        clean = run_harness(harness, w, 7, 1, 1, False)
        check(clean["failed"] == 0 and clean["attempted"] > 0,
              "%s: clean run fails nothing (%d ops)" % (w, clean["attempted"]))
        bad = run_harness(harness, w, 7, 1, 1, False, ["--corrupt-ref"])
        check(bad["failed"] == 1,
              "%s: one wrong reference is one failed op (got %d)"
              % (w, bad["failed"]))
        a, b = (run_harness(harness, w, 7, 2, 1, True) for _ in range(2))
        counts = {k for k, m in a["metrics"].items()
                  if m["unit"] in exact_units and m["value"] != 0
                  and k not in a["inexact"]}
        same = all(a["metrics"][k] == b["metrics"][k] for k in counts)
        check(same and counts and a["failed"] == 0,
              "%s: %d exact counts repeat for one seed" % (w, len(counts)))
    sys.exit(0 if ok else 1)


def dump(args):
    harness = build()
    out = os.path.abspath(args.dump_inputs)
    work = os.path.join(build_dir(), "work-%d" % os.getpid())
    run = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--passes", "1", "--work-dir", os.path.relpath(work, ROOT),
           "--dump-inputs", out]
    try:
        rc = subprocess.run(run, cwd=ROOT).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("inputs in " + os.path.join(out, args.workload))
    sys.exit(rc)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=16)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selfcheck", action="store_true")
    p.add_argument("--dump-inputs", metavar="DIR")
    args = p.parse_args()
    if args.selfcheck:
        selfcheck()
    if not args.workload:
        fail("--workload is required")
    if args.dump_inputs:
        dump(args)
    measure(args)


if __name__ == "__main__":
    main()
