"""Compare two revisions on the benchmark in paired, rotating runs.

    python tools/paired.py --base HEAD~1 [--change REV] [--workload NAME ...]
                           [--seed N ...] [--rounds 10] [--seconds 30]

Run from the repository root. The base and the change are each exported
with ``git archive`` into a temporary directory; without ``--change`` the
working tree (tracked and untracked files that git does not ignore) stands
for the change. A second export of the base is the A/A copy. Every round
runs ``perfbench/run.py --trace 0`` on all three for each seed and workload,
their order rotating from run to run, and a base run and the change or copy
run of the same round form a pair. The three directories' names have the
same length, since the checkout's path can move the benchmark's timings.

For each workload, metric and seed it prints each pair's relative change,
how many pairs read lower for the change, both medians, the base's
interquartile range, and the A/A copy's median and pair changes; the
unscaled ``wall_s`` run.py prints is reported beside the scaled metrics.
Seeds are reported apart because the benchmark's speed probe draws its
memory layout per process, and that draw can flip with the seed. Over
all seeds, each metric reports its median paired change, its A/A median
change (the median of the A/A pair changes) and its A/A spread (the largest
absolute A/A pair change). Against the metric's ``BENCHMARK.json`` bound it
is ``unresolved`` when the spread exceeds the bound, ``worse`` when the
median paired change exceeds the bound in the wrong direction, and
``within`` otherwise. A resolved metric's A/A median change therefore lies
within the bound too; a shifted A/A set reads ``unresolved``. The last line
of stdout is one JSON object holding every figure. The exit status is 1
when a run fails or prints ``correct: false``.

Technique: Kalibera & Jones, "Rigorous benchmarking in reasonable time",
ISMM 2013.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("base", "chng", "copy")  # equal-length directory names
UNSCALED = "unscaled_wall_s"


def git(*args: str) -> bytes:
    return subprocess.run(("git", *args), capture_output=True, check=True).stdout


def export(rev: str | None, dest: Path) -> None:
    """``rev``'s tree, or the working tree when ``rev`` is None, into ``dest``."""
    dest.mkdir()
    if rev is not None:
        subprocess.run(["tar", "-x", "-C", str(dest)], input=git("archive", rev), check=True)
        return
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").decode().split("\0"):
        if name and Path(name).is_file():  # a deleted tracked file is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(name, dest / name)


def run(where: Path, workload: str, seed: int, seconds: int) -> tuple[dict, bool]:
    """One ``run.py --trace 0`` call: its metric values, unscaled wall_s
    included, and whether it printed ``correct: true``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=where, capture_output=True, text=True)
    unscaled = re.search(r"unscaled wall_s (\S+) s", proc.stdout)
    if proc.returncode != 0 or unscaled is None:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"error: {' '.join(cmd[1:])} failed in {where} (status {proc.returncode})")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values[UNSCALED] = float(unscaled.group(1))
    return values, result["correct"] is True


def change(new: float, old: float) -> float:
    return new / old - 1.0 if old else 0.0


def summary(base: list[float], chng: list[float], copy: list[float]) -> dict:
    """One seed's figures for one metric, from the rounds' values in order."""
    q1, _, q3 = statistics.quantiles(base, n=4) if len(base) > 1 else (base[0],) * 3
    return {
        "pair_changes": [change(c, b) for b, c in zip(base, chng)],
        "lower": sum(c < b for b, c in zip(base, chng)),
        "pairs": len(base),
        "base_median": statistics.median(base),
        "change_median": statistics.median(chng),
        "base_iqr": q3 - q1,
        "aa_median": statistics.median(copy),
        "aa_pair_changes": [change(c, b) for b, c in zip(base, copy)],
    }


def verdict(seeds: dict, bound: float | None, lower_better: bool) -> dict:
    """The metric over every seed's pairs: the median paired change, the A/A
    median change, the largest A/A pair change and the verdict against
    ``bound``."""
    pairs = [x for s in seeds.values() for x in s["pair_changes"]]
    aa = [x for s in seeds.values() for x in s["aa_pair_changes"]]
    median, aa_median = statistics.median(pairs), statistics.median(aa)
    spread = max(abs(x) for x in aa)
    worse = median if lower_better else -median
    if bound is None:
        word = "no bound"
    elif spread > bound:
        word = "unresolved"
    else:
        word = "worse" if worse > bound else "within"
    return {"median_change": median, "aa_median_change": aa_median, "aa_spread": spread, "verdict": word}


def pct(x: float) -> str:
    return f"{100 * x:+.1f}%"


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="the base revision")
    ap.add_argument("--change", help="the changed revision (default: the working tree)")
    ap.add_argument("--workload", action="append", help="a workload (default: every one in BENCHMARK.json)")
    ap.add_argument("--seed", action="append", type=int, help="a seed (default: 1)")
    ap.add_argument("--rounds", type=int, default=10, help="pairs per seed and workload")
    ap.add_argument("--seconds", type=int, default=30, help="run.py's --seconds")
    args = ap.parse_args(argv)
    seeds = args.seed or [1]
    names = {"base": git("rev-parse", "--short", args.base).decode().strip(),
             "change": git("rev-parse", "--short", args.change).decode().strip() if args.change else "working tree"}

    tmp = Path(tempfile.mkdtemp(prefix="paired-"))
    try:
        for side, rev in zip(SIDES, (args.base, args.change, args.base)):
            export(rev, tmp / side)
        spec = json.loads((tmp / "base" / "BENCHMARK.json").read_text())
        workloads = args.workload or [w["name"] for w in spec["workloads"]]
        metrics = spec["end_to_end"] + [{"name": UNSCALED, "unit": "s", "better": "lower", "bound": None}]
        values = {(w, s, side): [] for w in workloads for s in seeds for side in SIDES}
        correct = True
        turn = 0
        for r in range(args.rounds):
            for s in seeds:
                for w in workloads:
                    order = SIDES[turn % 3 :] + SIDES[: turn % 3]
                    turn += 1
                    print(f"round {r + 1}/{args.rounds} seed {s} {w}: {' '.join(order)}", file=sys.stderr)
                    for side in order:
                        got, ok = run(tmp / side, w, s, args.seconds)
                        values[w, s, side].append(got)
                        if not ok:
                            correct = False
                            print(f"  {side}: correct is false", file=sys.stderr)
    finally:
        shutil.rmtree(tmp)

    print(f"base {names['base']}  change {names['change']}  rounds {args.rounds}  seconds {args.seconds}"
          f"  seeds {' '.join(map(str, seeds))}  (change vs base, A/A copy vs base)")
    report = {}
    for w in workloads:
        report[w] = {}
        for m in metrics:
            name, lower_better = m["name"], m["better"] == "lower"
            bound = m["bound"]
            print(f"{w} {name} ({m['unit']}, {m['better']} is better"
                  + (f", bound {100 * bound:.0f}%)" if bound is not None else ", no bound)"))
            per_seed = {}
            for s in seeds:
                base, chng, copy = ([v[name] for v in values[w, s, side]] for side in SIDES)
                x = per_seed[str(s)] = summary(base, chng, copy)
                print(f"  seed {s}: pairs {' '.join(map(pct, x['pair_changes']))}; lower {x['lower']}/{x['pairs']};"
                      f" median {x['base_median']:.6g} -> {x['change_median']:.6g}"
                      f" ({pct(change(x['change_median'], x['base_median']))}); base IQR {x['base_iqr']:.3g};"
                      f" A/A median {x['aa_median']:.6g}, pairs {' '.join(map(pct, x['aa_pair_changes']))}")
            report[w][name] = dict(verdict(per_seed, bound, lower_better), unit=m["unit"], bound=bound, seeds=per_seed)
            v = report[w][name]
            print(f"  all seeds: median paired change {pct(v['median_change'])}, A/A median change"
                  f" {pct(v['aa_median_change'])}, largest A/A pair change {100 * v['aa_spread']:.1f}%: {v['verdict']}")
    print(json.dumps({"base": names["base"], "change": names["change"], "rounds": args.rounds,
                      "seconds": args.seconds, "seeds": seeds, "correct": correct, "workloads": report}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
