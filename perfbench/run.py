#!/usr/bin/env python3
"""Host-time benchmark of the reqobs simulator: build, run, check, report.

    python3 perfbench/run.py --workload fig-sweep --seed 1 --seconds 30 --trace 0

Builds perfbench/ (and the library under src/) with CMake, runs one
workload, compares every simulation run's output digest with the one
recorded in perfbench/reference.json for that workload and seed, and
prints one JSON result object as the last line of standard output.

    python3 perfbench/run.py --record 0-15

re-records the digests for seeds 0..15 (only after a change that is
meant to alter simulated results). See perfbench/README.md.
"""

import argparse
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORKLOADS = ("fig-sweep", "fleet-runq", "storm-door")
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build; all tool output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"library sources not found under {ROOT / 'src'}")
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    build_dir = base / "perfbench"
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    # Keep the compiler's temporary files inside the build tree too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            die("build failed: " + " ".join(cmd))
    return build_dir / "perfbench"


def git_rev():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    return out.stdout.strip() if out.returncode == 0 else \
        "unknown (not a git checkout)"


def run(binary, workload, seed, seconds, trace):
    """Run the binary; echo its report; return its JSON record."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(out.stderr)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        die(f"{workload} exited with code {out.returncode}")
    for line in lines[:-1]:
        print(line)
    rec = json.loads(lines[-1])
    rec["context"] = [ln[2:] for ln in lines[:-1] if ln.startswith("# ")]
    return rec


def load_reference():
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text())


def digest_failures(workload, seed, record):
    """Runs whose digest differs from the recorded one for this seed."""
    recorded = load_reference().get("digests", {}).get(workload, {})
    want = recorded.get(str(seed))
    got = record["digests"]
    if want is None:
        print(f"# digest: no recorded digest for seed {seed}; runs were "
              f"checked against each other only")
        return 0
    bad = sum(1 for g, w in itertools.zip_longest(got, want) if g != w)
    print(f"# digest: {max(0, len(want) - bad)}/{len(want)} runs match the "
          f"digests recorded for seed {seed}")
    # A differing run is wrong in every pass that repeated it.
    return bad * record["passes"]


def record_seeds(binary, spec):
    lo, _, hi = spec.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    ref = load_reference()
    digests = ref.setdefault("digests", {})
    for workload in WORKLOADS:
        for seed in seeds:
            rec = run(binary, workload, seed, 1, 0)
            if rec["failed"]:
                die(f"{workload} seed {seed} failed its checks; not recorded")
            digests.setdefault(workload, {})[str(seed)] = rec["digests"]
    host = ("nproc:", "build:", "compiler:", "ebpf engine:", "env:")
    ref["recorded_on"] = [f"git rev: {git_rev()}"] + [
        ln for ln in rec["context"] if ln.startswith(host)]
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--record", metavar="LO-HI",
                    help="re-record output digests for a seed range")
    args = ap.parse_args()
    if args.record is None and None in (args.workload, args.seed,
                                        args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be >= 0")

    binary = build()
    if args.record is not None:
        record_seeds(binary, args.record)
        return

    print(f"# git rev: {git_rev()}")
    rec = run(binary, args.workload, args.seed, args.seconds, args.trace)
    failed = rec["failed"] + digest_failures(args.workload, args.seed, rec)
    failed = min(failed, rec["attempted"])
    print(f"{'failed_frac':<28} {failed / rec['attempted']:16.6g} ratio")
    print(json.dumps({"correct": failed == 0, "attempted": rec["attempted"],
                      "failed": failed, "metrics": rec["metrics"]}))


if __name__ == "__main__":
    main()
