#!/usr/bin/env python3
"""Build escape_bench from source, then run it.

From the repository root:

    python3 bench/escape_bench/run.py --workload write_steady --seed 1 --seconds 20 --trace 0

Every argument goes to the binary unchanged (see main.cpp for the flags).
The build lives in $CARGO_TARGET_DIR/escape_bench (default
.bench_build/escape_bench); its output goes to stderr so that the last line
of stdout stays the benchmark's JSON result. Exits non-zero, printing no
result, when the build fails.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def build(build_dir: Path) -> Path:
    jobs = str(min(os.cpu_count() or 1, 4))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "escape_bench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return build_dir / "escape_bench"


def main() -> int:
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "escape_bench"
    try:
        exe = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"escape_bench: build failed: {err}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    os.execv(exe, [str(exe)] + sys.argv[1:])
    return 1  # not reached


if __name__ == "__main__":
    sys.exit(main())
