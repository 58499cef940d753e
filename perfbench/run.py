#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload infer-zoo --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root.  The first call configures and builds
perfbench/ (which compiles the library from ../src) into the build
directory: $CARGO_TARGET_DIR when set, else .bench_build.  Build output
goes to <build>/build.log; stdout carries only the harness's lines, the
last of which is the result JSON.
"""

import argparse
import fcntl
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
WORKLOADS = ("infer-zoo", "compile-zoo", "serve-mix")
# Library settings the benchmark fixes itself; a caller's environment
# must not change what is measured.
STRIP_ENV = ("SMARTMEM_PLAN_CACHE", "SMARTMEM_PLAN_CACHE_MAX_BYTES",
             "SMARTMEM_THREADS")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    """Configure once, then build (a no-op when up to date)."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no smartmem sources next to perfbench/ (CMakeLists.txt, src/)")
    os.makedirs(out, exist_ok=True)
    bdir = os.path.join(out, "perfbench")
    log_path = os.path.join(out, "build.log")
    with open(os.path.join(out, "build.lock"), "w") as lock, \
            open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "-j", "4"])
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT).returncode
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (%s); see %s" % (" ".join(cmd), log_path))
    return bdir


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest():
    """sha256 over the library sources and build file, so results of
    different code are never mistaken for each other."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        paths += [os.path.join(base, f) for f in sorted(files)]
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def run(cmd):
    env = {k: v for k, v in os.environ.items() if k not in STRIP_ENV}
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    out = build_dir()
    bdir = build(out)
    if a.self_test:
        sys.exit(run([os.path.join(bdir, "perfbench_selftest")]))
    sys.stdout.flush()
    sys.exit(run([os.path.join(bdir, "perfbench"),
                  "--workload", a.workload, "--seed", str(a.seed),
                  "--seconds", repr(a.seconds), "--trace", str(a.trace),
                  "--work-dir", out, "--commit", commit(),
                  "--src-digest", source_digest()]))


if __name__ == "__main__":
    main()
