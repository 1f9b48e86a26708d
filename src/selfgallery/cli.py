"""Command-line entry points: run, gen, scatter."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import selection
from .core import Batch, gallery_enroll
from .dataio import load_dataset, write_dataset
from .experiment import ExperimentConfig, run_experiment
from .matching import ThresholdPolicy
from .metrics import distance_columns, export_score_scatter
from .synthgen import SynthParams, generate

_SYNTH_KEYS = {
    "k": ("k_users", int),
    "dim": ("dim", int),
    "sigma": ("sigma", float),
    "sep": ("separation", float),
    "eps": ("tail_eps", float),
    "n": ("samples_per_user", int),
    "seed": ("seed", int),
}


def parse_synth(spec: str) -> SynthParams:
    """k=..,dim=..,sigma=..,sep=..,eps=..,n=..[,seed=..] -> SynthParams."""
    kwargs = {}
    for part in spec.split(","):
        if "=" not in part:
            raise ValueError(f"bad synth parameter {part!r} (expected key=value)")
        key, value = part.split("=", 1)
        key = key.strip()
        if key not in _SYNTH_KEYS:
            raise ValueError(f"unknown synth key {key!r}")
        name, conv = _SYNTH_KEYS[key]
        if name in kwargs:
            raise ValueError(f"synth key {key!r} is given more than once")
        kwargs[name] = conv(value)
    return SynthParams(**kwargs)


def parse_threshold(spec: str) -> ThresholdPolicy:
    if spec == "zero-far":
        return ThresholdPolicy.zero_far()
    if spec.startswith("far:"):
        return ThresholdPolicy.far_quantile(float(spec[4:]))
    raise ValueError(f"bad threshold {spec!r} (expected zero-far or far:FLOAT)")


def _metric(name: str) -> str:
    return {"l2": "euclidean", "l1": "l1"}[name]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfgallery",
        description="Self-updating template-gallery experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the batch self-update protocol")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--dataset", type=Path, help="feature CSV file")
    src.add_argument("--synth", type=str, help="k=..,dim=..,sigma=..,sep=..,eps=..,n=..")
    run.add_argument(
        "--method",
        action="append",
        choices=list(selection.METHODS),
        help="selection method (repeatable)",
    )
    run.add_argument("--p", type=int, required=True, help="templates per user")
    run.add_argument("--batches", type=int, default=7)
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--metric", choices=["l2", "l1"], default="l2")
    run.add_argument("--threshold", type=str, default="far:0.01")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--bytes-per-template", type=int, default=None)
    run.add_argument("--out", type=Path, required=True, help="output directory")
    run.add_argument("--chronological", action="store_true")
    run.add_argument("--relaxed", action="store_true",
                     help="drop users with too few samples instead of failing")

    gen = sub.add_parser("gen", help="emit a synthetic dataset as CSV")
    gen.add_argument("--synth", type=str, required=True)
    gen.add_argument("--out", type=Path, required=True, help="output CSV file")

    scatter = sub.add_parser(
        "scatter", help="per-subject genuine/impostor score scatter"
    )
    scatter.add_argument("--dataset", type=Path, required=True)
    scatter.add_argument("--p", type=int, required=True,
                         help="templates enrolled per user (first p by id/session)")
    scatter.add_argument("--metric", choices=["l2", "l1"], default="l2")
    scatter.add_argument("--out", type=Path, required=True, help="output CSV file")
    return parser


def cmd_run(args) -> int:
    dataset = parse_synth(args.synth) if args.synth else args.dataset
    cfg = ExperimentConfig(
        dataset=dataset,
        p=args.p,
        methods=tuple(args.method or [selection.KMEANS, selection.MDIST]),
        n_batches=args.batches,
        metric=_metric(args.metric),
        policy=parse_threshold(args.threshold),
        runs=args.runs,
        base_seed=args.seed,
        bytes_per_template=args.bytes_per_template,
        out_dir=args.out,
        strict=not args.relaxed,
        chronological=args.chronological,
    )
    rows, _ = run_experiment(cfg)
    print(f"wrote {len(rows)} metric rows to {args.out}")
    return 0


def cmd_gen(args) -> int:
    samples = generate(parse_synth(args.synth))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    write_dataset(samples, args.out)
    print(f"wrote {len(samples)} samples to {args.out}")
    return 0


def cmd_scatter(args) -> int:
    samples = load_dataset(args.dataset)
    by_user: dict[int, list] = {}
    for s in sorted(samples, key=lambda s: (s.session or 0, s.id)):
        by_user.setdefault(s.true_user, []).append(s)
    enroll = []
    enrolled_ids = set()
    for user in sorted(by_user):
        if len(by_user[user]) <= args.p:
            raise ValueError(f"user {user} has no probe samples left beyond p={args.p}")
        for s in by_user[user][: args.p]:
            enroll.append((user, s))
            enrolled_ids.add(s.id)
    gallery = gallery_enroll(enroll, cap=args.p)
    probes = Batch(
        index=1, samples=tuple(s for s in samples if s.id not in enrolled_ids)
    )
    columns = distance_columns(probes, [s for _, s in enroll], _metric(args.metric))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w") as fh:
        n = export_score_scatter(probes, gallery, columns, fh)
    print(f"wrote {n} score rows to {args.out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": cmd_run, "gen": cmd_gen, "scatter": cmd_scatter}
    try:
        return handlers[args.command](args)
    except Exception as exc:  # one-line machine-parsable failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
