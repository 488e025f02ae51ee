#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload cs-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root.  The benchmark executable (perfbench/bench.ml)
is built from source in release mode into .bench_build/, then run with the
given arguments; its last line of standard output is the JSON result.  With
--trace 1 it also writes a Chrome trace-event file under .bench_build/perfbench/.

--selftest runs every workload at a tiny scale on two seeds, checks that each
run is correct and reports every metric BENCHMARK.json names, and that an
injected wrong answer makes the run fail.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD_DIR = ".bench_build"
TARGET = "./perfbench/bench.exe"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "bench.exe")
WORKLOADS = ["cs-cold", "serve-warm", "edit-stream"]
# Scale of the generated programs (fraction of the paper's program sizes).
SCALE = 0.02
SELFTEST_SCALE = 0.005


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--profile", "release", "--build-dir", BUILD_DIR, TARGET]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"run.py: build failed: {e}")
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(r.stdout)
        sys.exit("run.py: build failed")


def source_id():
    """The git commit when there is one, plus a digest of the sources, so
    runs of different code are never silently compared."""
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    h = hashlib.sha256()
    for top in ["lib", "bin", "perfbench", "dune-project"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else [
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs]
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return f"{commit}+src.{h.hexdigest()[:12]}"


def run_bench(workload, seed, seconds, trace, scale, extra=(), capture=False):
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--scale", str(scale), "--commit", source_id(), *extra]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE if capture else None,
                       stderr=subprocess.DEVNULL if capture else None, text=True, timeout=175)
    return r.returncode, r.stdout


def last_json(stdout):
    lines = [l for l in (stdout or "").splitlines() if l.strip()]
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    problems = []
    for w in WORKLOADS:
        for seed, trace, inject in [(1, False, False), (2, False, False), (1, True, False), (1, False, True)]:
            extra = ["--inject"] if inject else []
            code, out = run_bench(w, seed, 2, trace, SELFTEST_SCALE, extra, capture=True)
            res = last_json(out)
            label = f"{w} seed={seed} trace={int(trace)} inject={int(inject)}"
            if code != 0 or res is None:
                problems.append(f"{label}: exit {code}, no result")
                continue
            names = set(res["metrics"])
            want = layers if trace else e2e
            if names != want:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: {sorted(names ^ want)}")
            if inject:
                if res["failed"] == 0 or res["correct"]:
                    problems.append(f"{label}: injected wrong answer went unnoticed")
            elif res["failed"] != 0 or not res["correct"]:
                problems.append(f"{label}: {res['failed']} of {res['attempted']} checks failed")
            print(f"selftest {label}: attempted {res['attempted']} failed {res['failed']}", flush=True)
    for p in problems:
        print("selftest FAILED:", p, file=sys.stderr)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    build()
    if args.selftest:
        sys.exit(selftest())
    code, _ = run_bench(args.workload, args.seed, args.seconds, args.trace == 1, SCALE)
    sys.exit(code)


if __name__ == "__main__":
    main()
