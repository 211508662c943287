#!/usr/bin/env python3
"""Build the qsyn benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper_tables --seed 1 \\
        --seconds 10 --trace 0

The first run configures and builds the library, the qsynd daemon, the
harness and its self-test into .bench_build/ (about a minute on four
cores); later runs only check that the build is up to date. The
harness output is passed through: its last line is the JSON result.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
OUT_DIR = os.path.join(BUILD, "out")
HARNESS_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def configured_for_here(cache):
    """True when the CMake cache was configured from this source tree."""
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return os.path.realpath(line.split("=", 1)[1].strip()) == \
                    os.path.realpath(HERE)
    return False


def build():
    """Configure once, then bring the build up to date."""
    for needed in ("src/CMakeLists.txt", "tools/qsynd_main.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("qsyn sources not found (missing %s); run from a full "
                 "checkout" % needed)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(OUT_DIR, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    cache = os.path.join(CMAKE_DIR, "CMakeCache.txt")
    if os.path.isfile(cache) and not configured_for_here(cache):
        shutil.rmtree(CMAKE_DIR)  # a build tree copied from elsewhere
    if not os.path.isfile(cache):
        configure = ["cmake", "-S", HERE, "-B", CMAKE_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", CMAKE_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr)
    subprocess.run([os.path.join(CMAKE_DIR, "perfbench_selftest")],
                   check=True, stdout=sys.stderr)


def source_revision():
    """git revision with a dirty flag, else a digest of the sources."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True, env=env,
                               check=True).stdout.strip()
        return rev + ("-dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "no-git-sources-sha256-" + digest.hexdigest()[:16]


def counts_record(workload):
    """Where runs of the current build record their output counts.

    The name changes whenever the harness or qsynd is relinked, so a
    rebuilt program starts a fresh record."""
    digest = hashlib.sha256()
    for name in ("perfbench", "qsynd"):
        st = os.stat(os.path.join(CMAKE_DIR, name))
        digest.update(b"%d:%d;" % (st.st_mtime_ns, st.st_size))
    return os.path.join(OUT_DIR, "counts-%s-%s.txt" %
                        (digest.hexdigest()[:16], workload))


def run_harness(args):
    command = [os.path.join(CMAKE_DIR, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--qsynd", os.path.relpath(os.path.join(CMAKE_DIR, "qsynd"),
                                          ROOT),
               "--out-dir", os.path.relpath(OUT_DIR, ROOT),
               "--git", source_revision(),
               "--counts-record",
               os.path.relpath(counts_record(args.workload), ROOT)]
    # Its own process group, so a harness that dies cannot leave its
    # qsynd behind.
    proc = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: harness exceeded %d s" % HARNESS_TIMEOUT_S,
              file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = 1
    stop_group(proc.pid)
    return code


def stop_group(pgid):
    """Stop and wait out whatever is left in the harness process group."""
    sig = signal.SIGTERM
    deadline = time.monotonic() + 10
    while True:
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            sig = signal.SIGKILL
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper_tables", "wide96", "service_mix",
                                 "deep5"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    os.chdir(ROOT)
    try:
        build()
    except subprocess.CalledProcessError as e:
        fail("build or self-test failed: %s" % e)
    sys.exit(run_harness(args))


if __name__ == "__main__":
    main()
