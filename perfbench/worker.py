"""One fresh benchmark process: set up a workload and, unless --setup-only,
run and check its body. Prints one JSON object for ``run.py``.

Untraced, the body runs the workload's number of repetitions; its wall
time and each cycle's latency, scaled to reference machine speed
(``speed.py``), are the fastest over them. Traced, the body runs once
untraced and once under the span recorder; the difference of the two is
the tracing overhead.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here: imports included

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path


def tail(values: list[float]) -> tuple[float, float]:
    """Highest order statistic with 10 values above it, and its percentile.

    Fewer than 11 values only happen when operations failed (every
    workload's smallest body has more); the maximum stands in then.
    """
    ordered = sorted(values) or [0.0]
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    import selfgallery

    if Path(selfgallery.__file__).resolve().parent != (src / "selfgallery").resolve():
        raise SystemExit(f"selfgallery imported from {selfgallery.__file__}, not {src}")
    import layers
    import workloads
    from spans import Patches, Recorder

    wl = workloads.WORKLOADS[args.workload]
    units = wl.units(args.seconds)
    state = workloads.setup(wl, args.seed, units)
    setup_s = time.perf_counter() - T0
    out = {"setup_s": setup_s, "units": units, "unit": "online run" if wl.online else "experiment run"}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    out["path_rule_ok"] = layers.check_path_rule()
    probes = []
    for _ in range(1 if args.trace else wl.repeats):
        probe = workloads.Probe()
        probe.wall_s = workloads.body(wl, state, probe)
        probes.append(probe)

    if args.trace:
        rec, patches = Recorder(), Patches()
        layers.install(rec, patches)
        traced = workloads.Probe(rec)
        try:
            with rec.span("bench"):
                with rec.span("bench.setup"):
                    traced_state = workloads.setup(wl, args.seed, units)
                with rec.span("bench.body"):
                    workloads.body(wl, traced_state, traced)
        finally:
            patches.undo()
        traced_body_s = rec.busy("bench.body") - traced.check_s
        overhead_s = traced_body_s - probe.wall_s
        out["per_layer"] = layers.layer_metrics(rec, traced_body_s, overhead_s)
        out["self_sum_error_s"] = rec.self_sum_error()
        out["trace_file"] = f"perfbench/out/trace-{args.workload}-seed{args.seed}.json"
        rec.dump(Path.cwd() / out["trace_file"])
        probes.append(traced)
    else:
        cycle_s = [min(reps) for reps in zip(*(p.cycle_s for p in probes))]
        tail_s, out["tail_percentile"] = tail(cycle_s)
        out["cycles"] = len(cycle_s)
        out["end_to_end"] = {
            "setup_s": setup_s,
            "wall_s": min(p.scaled_wall_s for p in probes),
            "cycle_ms_p50": 1e3 * statistics.median(cycle_s or [0.0]),
            "cycle_ms_tail": 1e3 * tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        out["unscaled_wall_s"] = min(p.wall_s for p in probes)

    out["repeats"] = len(probes)
    out["attempted"] = sum(p.attempted for p in probes)
    out["failed"] = sum(p.failed for p in probes)
    out["problems"] = [msg for p in probes for msg in p.problems][:5]
    out["quality"] = probes[0].quality
    digests = {p.fingerprint.hexdigest() for p in probes}
    out["fingerprint"] = digests.pop() if len(digests) == 1 else None  # None: runs disagree
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
