#!/usr/bin/env python3
"""Builds and runs the ibis end-to-end benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark crate in perfbench/ is built
from source in release mode (into $CARGO_TARGET_DIR, default
perfbench/target), then run once. Its last stdout line is the result
object; this script adds the process's peak resident memory to it and
prints it as the last line of its own stdout. Provenance (source revision,
host, build profile, seed) goes to perfbench/results/ next to the result
and, in traced runs, the spans.

Exits non-zero without printing a result when the build, the run or its
output fails.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def source_revision():
    """The git revision when there is one, else a hash of the sources built."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if rev.returncode == 0 and rev.stdout.strip():
            return "git:" + rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else []
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "results", "work"))
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def host():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cores": os.cpu_count(), "cpu": model, "kernel": platform.release()}


def run_reaped(cmd):
    """Runs cmd from the repository root; returns its exit code, its peak
    resident memory in KiB (from wait4, so only this process counts) and
    its stdout. Kills it after RUN_TIMEOUT_S."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    out = []
    reader = threading.Thread(target=lambda: out.append(proc.stdout.read()))
    reader.start()
    deadline = time.time() + RUN_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.time() > deadline:
            print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.05)
    proc.returncode = os.waitstatus_to_exitcode(status)
    reader.join()
    return proc.returncode, usage.ru_maxrss, out[0] if out else ""


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    a = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    build = subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, stdout=sys.stderr, env=dict(os.environ, CARGO_TARGET_DIR=target),
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    tag = f"{a.workload}-seed{a.seed}-trace{a.trace}"
    results = os.path.join(HERE, "results")
    work = os.path.join(HERE, "work", f"{tag}-{os.getpid()}")
    os.makedirs(results, exist_ok=True)
    spans = os.path.join(results, f"{tag}.spans.jsonl")
    cmd = [os.path.join(target, "release", "ibis-perfbench"),
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace, "--work", work, "--spans", spans]
    t0 = time.time()
    code, peak_kb, stdout = run_reaped(cmd)
    shutil.rmtree(work, ignore_errors=True)
    lines = stdout.splitlines()
    if code != 0 or not lines:
        print(f"perfbench: run failed with code {code}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("perfbench: the run printed no result", file=sys.stderr)
        return 1
    if a.trace == "0":
        result["metrics"]["peak_rss_mb"] = {"value": peak_kb / 1024.0, "unit": "MB"}
    record = {
        "provenance": {
            "revision": source_revision(),
            "host": host(),
            "build_profile": "release",
            "obs_feature": any("obs true" in l for l in lines[:-1]),
            "workload": a.workload,
            "seed": a.seed,
            "seconds": a.seconds,
            "trace": a.trace == "1",
            "wall_s": round(time.time() - t0, 3),
        },
        "result": result,
    }
    with open(os.path.join(results, f"{tag}.json"), "w") as f:
        json.dump(record, f, indent=1)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
