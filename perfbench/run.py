#!/usr/bin/env python3
"""Build the perfbench binary from the checkout's source and run it.

Run from the root of the repository:

    python3 perfbench/run.py --workload report --seed 1 --seconds 20 --trace 0

Every argument is passed to the binary (see perfbench/main.go). The build
and all scratch state stay under .bench_build/ in the current directory:
the Go build cache, temporary files, the binary, server state and span
files. The exit status is the binary's, or the build's when it fails.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BENCH = os.path.join(ROOT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        # The go command's telemetry counters live under the user config
        # directory; keep them in the build directory too.
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOENV": "off",
        "CGO_ENABLED": "0",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    return subprocess.run(
        ["go", "build", "-buildvcs=false", "-trimpath", "-o", BINARY, "."],
        cwd=BENCH, env=env, stdout=sys.stderr).returncode


def main():
    rc = build()
    if rc != 0:
        print("perfbench: build failed", file=sys.stderr)
        return rc or 1
    # Go's flag package accepts --name as well as -name.
    return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
