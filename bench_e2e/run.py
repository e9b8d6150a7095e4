#!/usr/bin/env python3
"""Build and run the end-to-end tuning benchmark on one workload.

    python3 bench_e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root.  It builds bench_e2e/ with CMake (Release)
into $CARGO_TARGET_DIR/bench_e2e (default: .bench_build/bench_e2e), runs the
benchmark binary with TMPDIR inside that build directory, so that the shard
run directories and daemon state stay in the checkout, and forwards the
binary's output.  The last line it prints is one JSON object with the keys
correct, attempted, failed and metrics.  The metrics are the end-to-end ones,
or with --trace 1 the per-layer ones, whose names and units must match
BENCHMARK.json.  With --trace 1 it also checks that the Chrome trace parses
and holds a span for every layer the workload wraps.  It exits 0 only when
every output was correct.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 160
CONFIGURE_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 600


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group
    (shard workers included) and wait for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(f"timed out after {timeout} s: {' '.join(cmd)}")
    return proc.returncode, out


def build(build_dir):
    """Configure once, then build incrementally (a no-op when up to date)."""
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        rc, _ = run(["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"], CONFIGURE_TIMEOUT_S,
                    stdout=log, stderr=log)
        if rc != 0:
            die("cmake configure failed")
    rc, _ = run(["cmake", "--build", build_dir, "-j4", "--target", "bench_e2e"],
                BUILD_TIMEOUT_S, stdout=log, stderr=log)
    if rc != 0:
        die("build failed")
    return os.path.join(build_dir, "bench_e2e")


def trace_problems(path, layers):
    """What is wrong with the Chrome trace: unparseable, or a layer without
    a span (plus the per-study root span)."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return [f"trace {path} does not parse: {e}"]
    names = {ev.get("name", "") for ev in doc.get("traceEvents", [])
             if ev.get("cat") == "bench_e2e" and ev.get("ph") == "X"}
    missing = [l for l in layers if not any(n.startswith(l + ".") for n in names)]
    if "bench.study" not in names:
        missing.append("bench.study")
    return [f"trace has no span for layer {l}" for l in missing]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {args.workload!r}")
    if not os.path.isfile(os.path.join(ROOT, "src", "tune", "tuner.hpp")):
        die("the critter sources (src/) are not in this checkout")
    if args.seconds <= 0:
        die("--seconds must be positive")

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(build_root, "bench_e2e")
    binary = build(build_dir)
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # GIT_CEILING_DIRECTORIES keeps the host block's `git rev-parse` from
    # searching above the checkout.
    env = dict(os.environ, TMPDIR=tmp,
               GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    env.pop("CRITTER_TRACE", None)
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds:g}"]
    trace_path = os.path.join(build_dir, f"trace-{args.workload}.json")
    if args.trace:
        cmd.append(f"--trace={trace_path}")
    rc, out = run(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env,
                  stdout=subprocess.PIPE, text=True)
    sys.stdout.write(out)
    results = [l[len("RESULT "):] for l in out.splitlines()
               if l.startswith("RESULT ")]
    if not results:
        die(f"the benchmark printed no result (exit code {rc})")
    result = json.loads(results[-1])

    problems = [] if rc == 0 and result["correct"] else [
        f"the benchmark reported incorrect output (exit code {rc})"]
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = result["layers"] if args.trace else result["metrics"]
    want = {m["name"]: m["unit"] for m in spec[kind]}
    got = {k: v["unit"] for k, v in metrics.items()}
    if got != want:
        problems.append(f"{kind} metrics differ from BENCHMARK.json: "
                        f"{sorted(set(got.items()) ^ set(want.items()))}")
    if args.trace:
        problems += trace_problems(trace_path, result["trace_layers"])
    for p in problems:
        print(f"run.py: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.exit(0 if not problems else 1)


if __name__ == "__main__":
    main()
