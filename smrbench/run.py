#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 smrbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first call configures and builds the
benchmark package (smrbench/CMakeLists.txt, which compiles the smr library
from src/) into .bench_build/smrbench, or into $CARGO_TARGET_DIR/smrbench
when that is set; later calls only rebuild what changed.  Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result.  With
--trace 1 the per-layer totals are also written to
<build dir>/traces/<workload>-seed<n>.json.  See smrbench/README.md.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "smrbench"


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "smrbench"


def build() -> Path:
    """Configure (first time) and build the benchmark; return the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"smrbench: the smr library sources are missing under {ROOT / 'src'}")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(PACKAGE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return out / "smrbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        binary = build()
    except subprocess.CalledProcessError as error:
        print(f"smrbench: build failed: {error}", file=sys.stderr)
        return 2
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = build_dir() / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
