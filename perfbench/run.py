#!/usr/bin/env python3
"""Build and run the quetzal repo benchmark.

    python3 perfbench/run.py --workload paper-sweep|backlog-traced|fleet-day \
        --seed N --seconds S --trace 0|1 [--smoke] [--inject KIND]

Run from the repository root. The first call configures and builds
the perfbench driver (perfbench/CMakeLists.txt, which compiles ../src
with the repository's default RelWithDebInfo flags) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later
calls only rebuild what changed. Build output goes to stderr; the
last stdout line is the driver's JSON result. See perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "perfbench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    sources = os.path.join(ROOT, "src", "CMakeLists.txt")
    scenarios = os.path.join(ROOT, "scenarios")
    if not os.path.isfile(sources) or not os.path.isdir(scenarios):
        print("perfbench: run from a quetzal checkout: src/ and "
              "scenarios/ must sit beside perfbench/", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    driver = subprocess.run([binary, *sys.argv[1:],
                             "--scenarios", scenarios])
    return driver.returncode


if __name__ == "__main__":
    sys.exit(main())
