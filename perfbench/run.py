#!/usr/bin/env python3
"""Repository benchmark: build, compute the reference answers, measure.

Usage (from the repository root):

    python3 perfbench/run.py --workload cold-build|serve-hot|serve-edit \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (the library from src/ plus the lalr_perfbench binary)
in Release mode under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), computes every expected answer for the seed in a
separate process, then runs the workload. The binary's standard output is
passed through; its last line is the JSON result. The exit status is the
binary's: 0 when every output matched its reference, 1 otherwise, 2 when
the benchmark could not be built or run.

--corrupt-reference alters one expected answer after it is computed; the
run must then fail (the self-test in perfbench/tests uses it).
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = ("cold-build", "serve-hot", "serve-edit")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configures (once) and builds the binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    cache = out / "CMakeCache.txt"
    home = f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH}"
    if cache.is_file() and home not in cache.read_text():
        shutil.rmtree(out)  # configured from another checkout
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "lalr_perfbench",
                  "-j4"])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               env=env, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if r.returncode != 0:
            fail(f"build step {' '.join(cmd[:3])} exited {r.returncode}")
    exe = out / "lalr_perfbench"
    if not exe.is_file():
        fail("benchmark binary missing after build")
    return exe


def source_stamp():
    """Git commit when available, plus a digest of the library sources
    (checkouts without git metadata still get a stable identity)."""
    commit = "none"
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                            "--show-toplevel", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        lines = r.stdout.split()
        # Only this checkout's own repository, not one enclosing it.
        if r.returncode == 0 and len(lines) == 2 and Path(lines[0]) == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return f"{commit} src-sha256:{h.hexdigest()[:16]}"


def corrupt(path):
    """Alters the first table/build answer in a reference file."""
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith(("digest|", "build|")):
            lines[i] = line + "-corrupted"
            path.write_text("\n".join(lines) + "\n")
            return
    fail(f"nothing to corrupt in {path}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-reference", action="store_true")
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    out = build_dir()
    exe = build(out)
    run = out / "run"
    if run.exists():
        shutil.rmtree(run)
    run.mkdir(parents=True)

    try:
        r = subprocess.run([str(exe), "reference", "--seed", str(args.seed),
                            "--out", str(run)], stdout=sys.stderr,
                           stderr=sys.stderr, timeout=150)
    except subprocess.TimeoutExpired:
        fail("reference computation timed out")
    if r.returncode != 0:
        fail(f"reference computation exited {r.returncode}")
    if args.corrupt_reference:
        corrupt(run / f"{args.workload}.ref")

    cmd = [str(exe), "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--reference-dir", str(run),
           "--spans-dir", str(run), "--commit", source_stamp()]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=args.seconds + 100)
    except subprocess.TimeoutExpired:
        fail("measuring run timed out")
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    sys.exit(r.returncode if r.returncode in (0, 1) else 2)


if __name__ == "__main__":
    main()
