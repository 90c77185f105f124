#!/usr/bin/env python3
"""Build the dlisbench program from this checkout's sources and run it.

    python3 dlisbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

The build goes to .bench_build/dlisbench under the checkout root and is
incremental, so only the first run of a checkout compiles. Build output
goes to stderr; stdout carries the program's report, whose last line is
the result object. Without the library sources next to this directory
the build fails and the script exits non-zero without a result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "dlisbench")


def build():
    configured = any(os.path.exists(os.path.join(BUILD, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "--target", "dlisbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "dlisbench")


def main():
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"dlisbench: build failed: {e}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    # Replace this process so the program's exit code is the run's.
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
