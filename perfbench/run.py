#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload kv-read|kv-mixed|olap --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The OCaml benchmark is built from
source with dune into the directory named by CARGO_TARGET_DIR (default
.bench_build) and run with every MMDB_* variable removed from its
environment, so the system under test is in its default configuration.
The last line of standard output is the JSON result; this script checks
that its metrics are exactly the ones BENCHMARK.json lists, with their
units, and exits non-zero otherwise or when an output check failed.
"""

import json
import os
import subprocess
import sys

EXE = os.path.join("perfbench", "mmdb_bench.exe")


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("MMDB_")}


def build(build_dir, *targets):
    cmd = ["dune", "build", "--root", ".", "--build-dir", build_dir,
           "--profile", "release", *targets]
    res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                         env=clean_env())
    if res.returncode != 0:
        fail("build failed", 3)


def listed(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def validate(last, trace):
    try:
        result = json.loads(last)
    except ValueError:
        fail("the last line is not a JSON result", 4)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("the result does not have exactly its four keys", 4)
    got = {n: m.get("unit") for n, m in result["metrics"].items()}
    if got != listed(trace):
        fail("the metrics differ from the ones BENCHMARK.json lists", 5)


def main():
    args = sys.argv[1:]
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("perfbench", "dune"))):
        fail("run from the root of an mmdb checkout "
             "(dune-project, lib/ and perfbench/ are needed)", 2)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if args == ["--selftest"]:
        build(build_dir, "@perfbench/selftest", "--force")
        return 0
    trace = "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]
    build(build_dir, "./" + EXE)
    trace_dir = os.path.join(build_dir, "perfbench-traces")
    os.makedirs(trace_dir, exist_ok=True)
    exe = os.path.join(build_dir, "default", EXE)
    proc = subprocess.Popen([exe, *args, "--trace-dir", trace_dir],
                            stdout=subprocess.PIPE, text=True, env=clean_env())
    last = ""
    for line in proc.stdout:
        sys.stdout.write(line)
        sys.stdout.flush()
        if line.strip():
            last = line.strip()
    code = proc.wait()
    if code != 0:
        return code
    validate(last, trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
