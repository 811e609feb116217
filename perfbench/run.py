#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload stack_churn --seed 1 --seconds 10 --trace 0

Configures and builds the perfbench package (perfbench/CMakeLists.txt)
against the library headers in src/, under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), then runs it. Build output goes to stderr;
stdout carries only the benchmark's record line and, last, its result line.
The exit code is the benchmark's: 0 when every output check passed, 1 when
one failed, 2 on a usage or build error.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("stack_churn", "queue_sharded", "event_poll")
# The benchmark stops itself after about 1.6 x --seconds; this only guards
# against a hang, inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configures (once) and builds the benchmark; returns the binary."""
    source = ROOT / "perfbench"
    if not (out / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(source), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", "3"], check=True,
                   stdout=sys.stderr)
    return out / "perfbench"


def source_digest():
    """sha256 over the library sources and the benchmark, plus the git
    commit when the tree is a git checkout."""
    h = hashlib.sha256()
    for top in (ROOT / "src", ROOT / "perfbench"):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    digest = "sha256:" + h.hexdigest()
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        if commit.returncode == 0:
            digest += " git:" + commit.stdout.strip()
    return digest


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--inject", choices=("drop_value", "suppress_flag"),
                        help="plant an output fault (self-tests only)")
    args = parser.parse_args()
    if not 0 < args.seconds <= 60 or args.seed < 0:
        parser.error("--seconds must be in (0, 60] and --seed >= 0")

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--source-digest", source_digest()]
    if args.trace == "1":
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        spans = traces / f"{args.workload}-seed{args.seed}.jsonl"
        spans.unlink(missing_ok=True)
        command += ["--trace-out", str(spans)]
    if args.inject:
        command += ["--inject", args.inject]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
