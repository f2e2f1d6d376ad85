#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload replay --seed 1 --seconds 10 --trace 0

Every argument goes to the benchmark binary (see perfbench/main.go). The
binary, the Go build and module caches, Go's temporary files and its
telemetry counters all live under .bench_build/ in the current directory, so
a run writes nothing outside it.
The Go toolchain must already be installed; nothing is downloaded.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    root = os.getcwd()
    out = os.path.join(root, ".bench_build")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        # The go command keeps its telemetry counters under the user config
        # directory; point that inside .bench_build too.
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=HERE,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    proc = subprocess.Popen([binary] + sys.argv[1:], env=env)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
