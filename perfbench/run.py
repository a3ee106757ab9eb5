#!/usr/bin/env python3
"""Build and run the NVM-GC simulator benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/bin/nvmgc_bench.exe from
source with the release profile into .bench_build/, runs it with the
given arguments and passes its output through; the last line is the JSON
result.  Exits non-zero without a result when the repository sources are
missing, the build fails, nvmgc_bench fails or overruns its time limit, or
its metrics do not match the names BENCHMARK.json declares.
"""

import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bin", "nvmgc_bench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main(argv):
    for needed in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(needed):
            die(f"{needed} not found: run from the root of a full source tree")
    build = [
        "dune", "build", "--root", ".", "--profile", "release",
        "--build-dir", BUILD_DIR, "--cache", "disabled",
        "./perfbench/bin/nvmgc_bench.exe",
    ]
    try:
        subprocess.run(build, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        die(f"build failed: {e}")

    try:
        proc = subprocess.run([EXE] + argv, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"nvmgc_bench overran {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        die(f"nvmgc_bench exited with code {proc.returncode}")

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    key = "per_layer" if "--trace" in argv and argv[argv.index("--trace") + 1] == "1" \
        else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[key]}
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        die(f"metrics differ from BENCHMARK.json {key}: "
            f"missing {sorted(set(expected) - set(got))}, "
            f"extra {sorted(set(got) - set(expected))}, "
            f"unit mismatches {sorted(k for k in got if k in expected and got[k] != expected[k])}")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main(sys.argv[1:])
