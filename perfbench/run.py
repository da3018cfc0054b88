#!/usr/bin/env python3
"""Build the perfbench program from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py compare OLD.json NEW.json

Run from the repository root. The binary, the Go build cache, temporary
files (including the socket fabric's unix sockets) and the result files
all live under $CARGO_TARGET_DIR, or .bench_build when it is unset, so a
run reads and writes nothing outside the checkout. The program's exit
code is passed through; a failed build or a run past RUN_TIMEOUT_S exits
non-zero without a result line.
"""
import os
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def main():
    src = Path(__file__).resolve().parent
    root = src.parent
    build = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build.is_absolute():
        build = root / build
    tmp = build / "tmp"
    for d in (build / "gocache", build / "config", tmp):
        d.mkdir(parents=True, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=str(build / "gocache"),
        GOMODCACHE=str(build / "gomod"),
        GOPATH=str(build / "gopath"),
        GOTMPDIR=str(tmp),
        XDG_CONFIG_HOME=str(build / "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
    )
    exe = build / "perfbench"
    try:
        built = subprocess.run(["go", "build", "-o", str(exe), "."], cwd=src, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    args = sys.argv[1:]
    if args[:1] != ["compare"]:
        args += ["--out", str(build / "results")]
    # A relative TMPDIR keeps unix-socket paths short whatever the
    # checkout's own path length.
    env["TMPDIR"] = os.path.relpath(tmp, root)
    try:
        return subprocess.run([str(exe)] + args, cwd=root, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was killed", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
