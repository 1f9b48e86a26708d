"""selfgallery benchmark: one workload per call, each part in a fresh process.

    python3 perfbench/run.py --workload dominating_mode --seed 1 --seconds 30 --trace 0

Run from the repository root. Untraced (--trace 0) it sets the workload
up in SETUP_RUNS fresh processes, runs the timed body in the last one,
and reports every end-to-end metric of BENCHMARK.json. Traced (--trace 1)
it reports every per-layer metric instead and writes the spans to
perfbench/out/. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A program that is missing
or fails to import is an error (exit status 1, no result).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP_RUNS = 5  # set-up processes per untraced run; setup_s is their median
DEADLINE_S = 170  # every process of one call ends within this
SELF_SUM_TOLERANCE_S = 1e-6  # span self times vs root duration: rounding only
HERE = Path(__file__).resolve().parent
# one BLAS thread: timings do not depend on how many cores happen to be
# free, and float results do not depend on how BLAS splits its work
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def worker(args, deadline: float, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=ENV,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise SystemExit(f"benchmark worker failed with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fingerprint_status(args, res: dict) -> str:
    recorded = json.loads((HERE / "fingerprints.json").read_text())
    key = f"{args.workload} seed={args.seed} units={res['units']}"
    if res["fingerprint"] is None:
        return "differs between repetitions"
    if key not in recorded:
        return "not recorded for this seed"
    return "matches" if recorded[key] == res["fingerprint"] else "DIFFERS from the seed commit"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "selfgallery" / "__init__.py").is_file():
        print(f"error: no selfgallery sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 1
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 1
    listed = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if not args.trace:
        setups = [worker(args, deadline, setup_only=True)["setup_s"] for _ in range(SETUP_RUNS - 1)]
    res = worker(args, deadline)
    if args.trace:
        values = res["per_layer"]
    else:
        values = dict(res["end_to_end"], setup_s=statistics.median(setups + [res["setup_s"]]))
    if set(values) != {m["name"] for m in listed}:
        raise SystemExit("benchmark reports other metrics than BENCHMARK.json lists")

    fp = fingerprint_status(args, res)
    checks = {
        "fingerprint": fp in ("matches", "not recorded for this seed"),
        "operations": res["failed"] == 0,
        "path rule": res["path_rule_ok"] is not False,
    }
    if args.trace:
        checks["span self times sum to root"] = res["self_sum_error_s"] < SELF_SUM_TOLERANCE_S

    print(f"workload {args.workload}  seed {args.seed}  body {res['units']} x {res['unit']}"
          f"  repeats {res['repeats']}  trace {args.trace}")
    for m in listed:
        note = ""
        if m["name"] == "cycle_ms_tail":
            note = f"  (p{res['tail_percentile']:.1f} of {res['cycles']} cycles, 10 beyond)"
        elif m["name"] == "setup_s":
            note = f"  (median of {SETUP_RUNS} processes)"
        print(f"  {m['name']:<42} {values[m['name']]:>14.6g} {m['unit']}{note}")
    if not args.trace:
        print(f"  wall_s and cycle_ms_* are scaled to reference machine speed;"
              f" unscaled wall_s {res['unscaled_wall_s']:.6g} s")
    for name, value in res["quality"].items():
        print(f"  {name:<42} {value:>14.6g} fraction  (kmeans/mdist; deterministic)")
    print(f"  {'failed_frac':<42} {res['failed'] / res['attempted']:>14.6g} fraction"
          f"  ({res['failed']} of {res['attempted']} operations)")
    for msg in res["problems"]:
        print(f"  failure: {msg}")
    print(f"  fingerprint {res['fingerprint']}: {fp}")
    rule = {True: "agrees", False: "DISAGREES", None: "cannot be checked"}[res["path_rule_ok"]]
    print(f"  select path rule at the exact/greedy boundary: {rule}")
    if args.trace:
        if not any(v for k, v in values.items() if ".greedy." in k):
            print("  greedy MDIST/DEND path (C(n,p) > 1e6) not reached: its counters read 0")
        print(f"  spans written to {res['trace_file']}")
    for name, ok in checks.items():
        if not ok:
            print(f"  CHECK FAILED: {name}")

    print(json.dumps({
        "correct": all(checks.values()),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
