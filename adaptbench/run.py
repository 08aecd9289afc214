#!/usr/bin/env python3
"""Build and run the end-to-end adaptation benchmark.

Run from the root of a checkout of the repository:

    python3 adaptbench/run.py --workload adapt-bus --seed 1 --seconds 20 --trace 0

The Go program in adaptbench/ is built from source into .bench_build/, with
the Go build cache, module cache and temporary files kept there too, so a
run reads and writes only inside the checkout. All arguments are passed to
the program; the last line of its standard output is the result.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    bench = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench)
    if not (os.path.isfile(os.path.join(root, "go.mod")) and os.path.isdir(os.path.join(root, "internal"))):
        print("adaptbench: go.mod and internal/ not found next to adaptbench/; run from a repository checkout",
              file=sys.stderr)
        return 2
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "TMPDIR": os.path.join(build, "tmp"),
        "HOME": os.path.join(build, "home"),
        "XDG_CONFIG_HOME": os.path.join(build, "home", ".config"),
        "XDG_CACHE_HOME": os.path.join(build, "home", ".cache"),
        "GOFLAGS": "-buildvcs=false -mod=readonly",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTELEMETRY": "off",
    })
    for d in (env["GOTMPDIR"], env["XDG_CONFIG_HOME"], env["XDG_CACHE_HOME"]):
        os.makedirs(d, exist_ok=True)
    binary = os.path.join(build, "bin", "adaptbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"adaptbench: build: {e}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("adaptbench: build failed", file=sys.stderr)
        return 2
    try:
        ran = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"adaptbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
