#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository. Builds `perfbench/` (a cargo package
of its own) twice into `$CARGO_TARGET_DIR` (default `.bench_build`): a
release build for `--trace 0` and a `traced` build with the `trace`
feature for `--trace 1`. Then runs the workload, prints the run's record
stamped with the host and the source revision, and prints last the
result line: one JSON object with `correct`, `attempted`, `failed` and
`metrics`. Exits non-zero when the build fails, the run fails, or an
output fails its check.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
MANIFEST = os.path.join("perfbench", "Cargo.toml")
# What the source revision is a digest of when there is no git checkout.
SOURCE_ROOTS = ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench")


def build(target, profile, features):
    cmd = ["cargo", "build", "--offline", "--quiet", "--manifest-path", MANIFEST,
           "--profile", profile] + features
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    return subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S).returncode


def source_digest():
    """SHA-256 over the sources the benchmark builds, by relative path."""
    h = hashlib.sha256()
    paths = []
    for root in SOURCE_ROOTS:
        if os.path.isfile(root):
            paths.append(root)
        for d, dirs, files in os.walk(root):
            dirs[:] = sorted(x for x in dirs if x != "target" and not x.startswith("."))
            paths.extend(os.path.join(d, f) for f in files)
    for p in sorted(set(paths)):
        h.update(p.encode() + b"\0")
        with open(p, "rb") as f:
            h.update(f.read() + b"\0")
    return h.hexdigest()


def command_output(cmd, env=None):
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=30, env=env)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def stamp():
    """Host and revision of this run (host fingerprint + source identity)."""
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), None)
    except OSError:
        pass
    git = None
    if os.path.isdir(".git"):
        git = command_output(["git", "rev-parse", "HEAD"],
                             env=dict(os.environ, GIT_DIR=".git", GIT_CEILING_DIRECTORIES=os.getcwd()))
    return {
        "host": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu or platform.processor() or "unknown",
            "rustc": command_output(["rustc", "--version"]),
            "platform": platform.platform(),
        },
        "revision": {"git": git, "source_sha256": source_digest()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    for profile, features in (("release", []), ("traced", ["--features", "trace"])):
        code = build(target, profile, features)
        if code != 0:
            print(f"error: cargo build --profile {profile} failed", file=sys.stderr)
            return code

    binary = os.path.join(target, "traced" if args.trace else "release", "overrun-perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(target, "perfbench-work")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: the run took longer than {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    if len(lines) < 2:
        sys.stderr.write(run.stdout)
        print("error: the run printed no result", file=sys.stderr)
        return run.returncode or 1
    record = json.loads(lines[-2])
    record["perfbench_record"].update(stamp())
    for line in lines[:-2]:
        print(line)
    print(json.dumps(record))
    print(lines[-1])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
