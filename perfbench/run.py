#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload table2_e20 --seed 2009 --seconds 30 --trace 0

Run from the root of a checkout. Builds `perfbench/` (a cargo package of
its own, path-depending on the crates under `crates/`) offline into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs the named workload and
passes its output through: the stamped record, then the result object as
the last line. Records and trace spans are appended under
`<target dir>/perfbench/`, a path resolved when the benchmark runs.

    python3 perfbench/run.py --determinism --workload milp_large --seed 42 --seconds 30

runs the traced workload twice with one seed and exits 1 unless every
deterministic counter (milp.nodes, milp.pivots, markov.states,
tgmg.sim_cycles, xi_ratio_geomean) repeats exactly.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("table2_e20", "milp_large", "xi_certify")
# A measured run ends well inside this; the first run of a checkout also
# builds, which is not counted here.
RUN_TIMEOUT_S = 170
DETERMINISTIC = ("milp.nodes", "milp.pivots", "markov.states", "tgmg.sim_cycles")


def target_dir():
    # A relative CARGO_TARGET_DIR is taken from the checkout root, where
    # cargo runs.
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml"),
    ]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"error: building the benchmark failed (exit {done.returncode})")
    return target_dir() / "release" / "rr-perfbench"


def commit():
    """The checkout's git commit when it is a work tree of its own;
    otherwise a digest of the sources the benchmark builds from, so a
    record still names the code it measured."""
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        )
        if done.returncode == 0:
            return done.stdout.strip()
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "src", "vendor", "perfbench"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(base.rglob("*"))
        for f in files:
            if f.is_file() and f.suffix in (".rs", ".toml", ".lock"):
                h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    return "src-" + h.hexdigest()[:16]


def run(binary, args, trace):
    cmd = [
        str(binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--out", str(target_dir() / "perfbench" / "records.jsonl"),
        "--commit", commit(),
    ]
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"error: the benchmark ran past {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.exit(f"error: the benchmark failed (exit {done.returncode})")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("error: malformed result line")
    return lines, json.loads(lines[-2]), result


def determinism(binary, args):
    """Two traced runs with one seed must repeat every counter exactly."""
    seen = []
    for _ in range(2):
        _, stamp, _ = run(binary, args, 1)
        counters = {k: stamp["metrics"][k]["value"] for k in DETERMINISTIC}
        counters["xi_ratio_geomean"] = stamp["counters"]["xi_ratio_geomean"]
        counters["untraced"] = stamp["counters"]
        seen.append(counters)
    same = seen[0] == seen[1]
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "deterministic": same, "counters": seen[0]}))
    if not same:
        print(f"error: counters differ: {seen[0]} vs {seen[1]}", file=sys.stderr)
        sys.exit(1)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--determinism", action="store_true")
    args = p.parse_args()
    binary = build()
    if args.determinism:
        determinism(binary, args)
        return
    lines, _, _ = run(binary, args, args.trace)
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
