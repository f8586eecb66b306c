#!/usr/bin/env python3
"""Builds and runs the MSSG regression benchmark (see README.md).

Run from the repository root:

    python3 perfbench/run.py --workload search_ooc --seed 1 --seconds 36 --trace 0

The driver is built from the checkout's sources into .bench_build/ (or
$CARGO_TARGET_DIR) on first use.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the full
record of the run (host, build, seed, sizes, every metric) is written under
<build dir>/results/.  --quick runs the same code on a graph ~25x smaller,
for the benchmark's own tests (selftest.py).
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("search_ooc", "ingest_live")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_id(root):
    """The git commit when there is one, else a digest of the sources."""
    if (root / ".git").exists() and shutil.which("git"):
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
        if sha.returncode == 0:
            return sha.stdout.strip()
    digest = hashlib.sha256()
    for sub in ("src", "perfbench"):
        for path in sorted((root / sub).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:16]


def build(root, build_dir, env):
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(root / "perfbench"), "-B",
                         str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, stdout=sys.stderr, env=env)
        subprocess.run(["cmake", "--build", str(build_dir), "-j",
                        str(os.cpu_count() or 1)], check=True,
                       stdout=sys.stderr, env=env)
    return build_dir / "mssg_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail("run from the root of an MSSG checkout (src/ not found)")
    out_root = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    # Compiler and driver temporaries stay inside the checkout too.
    tmp = out_root / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    try:
        binary = build(root, out_root / "perfbench", env)
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}")

    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace), "--work-dir", str(out_root / "work"),
               "--source-id", source_id(root)]
    if args.quick:
        command.append("--quick")
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        fail(f"driver exited with {run.returncode}", run.returncode)
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("driver printed no result line", 1)
    if set(result) != RESULT_KEYS:
        fail(f"result has keys {sorted(result)}", 1)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
