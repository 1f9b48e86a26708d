"""The benchmark's workloads: configs, set-up, timed body and output checks.

A workload's body is a fixed number of units (an experiment run, or one
online deployment of 10 update cycles), run a fixed number of times on
the same inputs. The unit count follows from ``--seconds`` and the unit's
cost at the seed commit, so a given (workload, seed, seconds) always does
the same work and yields the same outputs, which are fingerprinted.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import statistics
from dataclasses import dataclass, replace

from selfgallery import core, dataio, engine, experiment, matching, metrics, selection, synthgen
from selfgallery.engine import EngineConfig
from selfgallery.experiment import ExperimentConfig
from selfgallery.matching import ThresholdPolicy
from selfgallery.synthgen import SynthParams

import speed
from spans import Patches, clock

P = 6
QUALITY_METHODS = (selection.KMEANS, selection.MDIST)  # rows final_eer/impostor_fraction read
BODY_FILL = 0.95  # share of --seconds the body, speed probes included, takes at the seed commit


@dataclass(frozen=True)
class Workload:
    name: str
    synth: SynthParams  # for online_wide the seed is replaced by --seed
    n_batches: int
    methods: tuple[str, ...]
    policy: ThresholdPolicy
    unit_s: float  # rough seconds per unit with its speed probes at the seed commit (2-vCPU x86, Python 3.11)
    min_units: int  # enough units for at least 11 cycles (cycle_ms_tail)
    online: bool = False

    @property
    def repeats(self) -> int:
        """Online units are alike, so a second pass over the same inputs
        loses no variety, and its fastest cycles shed the short stalls of a
        shared machine that scaling misses (they move cycle_ms_tail most).
        Experiment units differ a lot per split, so they spend the time on
        more splits instead."""
        return 2 if self.online else 1

    def units(self, seconds: float) -> int:
        return max(self.min_units, round(BODY_FILL * seconds / (self.repeats * self.unit_s)))


WORKLOADS = {
    w.name: w
    for w in (
        # criteria 4/5: read-heavy, evaluation (score_sets) leads
        Workload(
            name="dominating_mode",
            synth=SynthParams(k_users=20, dim=16, sigma=1.0, separation=6.0,
                              tail_eps=0.15, samples_per_user=42, seed=7),
            n_batches=7,
            methods=(selection.KMEANS, selection.MDIST, selection.DEND),
            policy=ThresholdPolicy.zero_far(),
            unit_s=2.4,
            min_units=3,
        ),
        # criterion 6: write-heavy, MDIST exact enumeration leads
        Workload(
            name="growth_dim64",
            synth=SynthParams(k_users=20, dim=64, sigma=1.0, separation=8.0,
                              tail_eps=0.1, samples_per_user=42, seed=3),
            n_batches=7,
            methods=(selection.MDIST, selection.KMEANS, selection.KEEP_ALL),
            policy=ThresholdPolicy.far_quantile(0.2),
            unit_s=3.8,
            min_units=3,
        ),
        # a capped deployment absorbing batches: matching and K-Means only
        Workload(
            name="online_wide",
            synth=SynthParams(k_users=100, dim=128, sigma=1.0, separation=8.0,
                              tail_eps=0.1, samples_per_user=72),
            n_batches=12,
            methods=(selection.KMEANS,),
            policy=matching.DEFAULT_POLICY,
            unit_s=1.95,
            min_units=2,
            online=True,
        ),
    )
}


def owned_ids(gallery) -> dict[int, list[int]]:
    """Sample ids each user holds, sorted; the one place reading the layout."""
    return {
        u: sorted(t.sample.id for t in gallery.users[u].templates) for u in gallery.user_ids
    }


def cycle_problems(before, after, report, batch, cfg: EngineConfig) -> list[str]:
    """Violations of the four per-cycle invariants."""
    out = []
    if report.n_accepted + report.n_rejected != len(batch):
        out.append(f"batch {batch.index}: accepted+rejected != {len(batch)}")
    if after.n_templates != before.n_templates + len(report.insertions) - len(report.evictions):
        out.append(f"batch {batch.index}: size after != before + insertions - evictions")
    if cfg.method != selection.KEEP_ALL:
        held = owned_ids(after)
        if any(len(ids) > cfg.p for ids in held.values()):
            out.append(f"batch {batch.index}: a capped user holds more than {cfg.p}")
        bound = metrics.storage_capped(
            cfg.p, len(held), metrics.DEFAULT_BYTES_PER_COORD * after.dim
        )
        if metrics.gallery_bytes(after) > bound:
            out.append(f"batch {batch.index}: gallery_bytes above storage_capped")
    return out


class Probe:
    """What one body execution measures and checks, outside the timed spans.

    Cycle latency is ``run_update_cycle`` plus the ``estimate_threshold``
    call that readies t* for the next batch; the initial estimate of a
    sequence belongs to no cycle. An experiment's cycle absorbs one batch
    in every method's sequence and evaluates each new snapshot, so its
    latency is the sum over methods of both.

    The speed probe (``speed.py``) runs before every ``run_update_cycle``,
    outside the body's time like the checks. It cuts the body into
    segments, and each segment's time, cycle latencies included, is scaled
    to reference machine speed by the probe that opens it (the first
    segment by the first probe).
    """

    def __init__(self, rec=None):
        self.rec = rec
        self.wall_s = 0.0
        self.scaled_wall_s = 0.0
        self.check_s = 0.0  # checks and speed probes, not part of the body
        self.cycle_s: list[float] = []  # scaled
        self.eval_s: list[float] = []  # scaled; experiments only
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.fingerprint = hashlib.sha256()
        self.quality: dict[str, float] = {}
        self._pending = None
        self.scale = None  # of the open segment; None before the first probe
        self._unscaled_s = 0.0  # body time before the first probe

    def start(self) -> None:
        """The body's clock starts: open the first segment."""
        self._t0 = self._seg_t0 = clock()
        self._seg_check_s = self.check_s

    def _close_segment(self) -> None:
        seg = clock() - self._seg_t0 - (self.check_s - self._seg_check_s)
        if self.scale is None:
            self._unscaled_s += seg
        else:
            self.scaled_wall_s += seg * self.scale

    def calibrate(self) -> None:
        self._close_segment()
        with self.checking("bench.speed"):
            scale = speed.REF_S / speed.measure()
        if self.scale is None:
            self.scaled_wall_s += self._unscaled_s * scale
        self.scale = scale
        self._seg_t0, self._seg_check_s = clock(), self.check_s

    def stop(self) -> float:
        """The body's clock stops; returns its unscaled wall time."""
        self._close_segment()
        if self.scale is None:  # no cycle ran: nothing to scale by
            self.scaled_wall_s = self._unscaled_s
        return clock() - self._t0 - self.check_s

    def install(self, patches: Patches) -> None:
        def time_cycle(fn):
            def wrapper(*args, **kwargs):
                self.calibrate()
                t0 = clock()
                out = fn(*args, **kwargs)
                self._pending = clock() - t0
                return out
            return wrapper

        def time_threshold(fn):
            def wrapper(*args, **kwargs):
                t0 = clock()
                out = fn(*args, **kwargs)
                if self._pending is not None:
                    self.cycle_s.append((self._pending + clock() - t0) * self.scale)
                    self._pending = None
                return out
            return wrapper

        patches.set(engine, "run_update_cycle", time_cycle)
        patches.set(matching, "estimate_threshold", time_threshold)

    @contextlib.contextmanager
    def checking(self, span: str = "bench.check"):
        t0 = clock()
        with self.rec.span(span) if self.rec else contextlib.nullcontext():
            yield
        self.check_s += clock() - t0

    def record(self, *items) -> None:
        self.fingerprint.update(json.dumps(items).encode())
        self.fingerprint.update(b"\n")

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        if len(self.problems) < 5:
            self.problems.append(why)


# -- experiment workloads ---------------------------------------------------


def experiment_setup(wl: Workload, seed: int, units: int):
    dataset = synthgen.generate(wl.synth)
    cfg = ExperimentConfig(
        dataset=wl.synth, p=P, methods=wl.methods, n_batches=wl.n_batches,
        policy=wl.policy, runs=units, base_seed=1000 * seed,
        out_dir=None, write_scatter=False,
    )
    splits = {
        cfg.base_seed + run: dataio.split_batches(dataset, wl.n_batches, P, seed=cfg.base_seed + run)
        for run in range(1, units + 1)
    }
    return cfg, dataset, splits


def experiment_body(wl: Workload, state, probe: Probe) -> float:
    """``run_experiment`` over the set-up splits; returns its wall time."""
    cfg, dataset, splits = state

    def replay_generate(params):
        if params != wl.synth:
            raise RuntimeError("run_experiment asked for a dataset set-up did not build")
        return dataset

    def replay_split(ds, n_batches, p, seed, strict=True, chronological=False):
        if ds is not dataset or (n_batches, p, strict, chronological) != (wl.n_batches, P, True, False):
            raise RuntimeError("run_experiment asked for a split set-up did not build")
        return splits[seed]

    def checked(run_sequence):
        def wrapper(g0, batches, engine_cfg):
            out = run_sequence(g0, batches, engine_cfg)
            with probe.checking():
                final, reports, snapshots = out
                problems = []
                for before, after, report, batch in zip([g0, *snapshots], snapshots, reports, batches):
                    problems += cycle_problems(before, after, report, batch, engine_cfg)
                if len(reports) != len(batches):
                    problems.append(f"{len(reports)} reports for {len(batches)} batches")
                if problems:
                    probe.fail(1, f"{engine_cfg.method}: {problems[0]}")
                probe.record(engine_cfg.method, owned_ids(final))
                sequences.append(engine_cfg.method)
            return out
        return wrapper

    def timed_eval(evaluate_snapshot):
        def wrapper(*args, **kwargs):
            t0 = clock()
            out = evaluate_snapshot(*args, **kwargs)
            probe.eval_s.append((clock() - t0) * (probe.scale or 1.0))
            return out
        return wrapper

    sequences: list[str] = []
    probe.attempted += cfg.runs * len(wl.methods)
    patches = Patches()
    patches.set(experiment, "generate", lambda _: replay_generate)
    patches.set(experiment, "split_batches", lambda _: replay_split)
    patches.set(experiment, "run_sequence", checked)
    patches.set(experiment, "evaluate_snapshot", timed_eval)
    probe.install(patches)
    probe.start()
    try:
        rows, _ = experiment.run_experiment(cfg)
    except Exception as exc:  # the program failed: every unfinished operation counts
        probe.fail(cfg.runs * len(wl.methods) - len(sequences), f"{type(exc).__name__}: {exc}")
        return probe.stop()
    finally:
        patches.undo()
    wall = probe.stop()

    missing = cfg.runs * len(wl.methods) - len(sequences)
    if missing:
        probe.fail(missing, f"{missing} update sequences never ran")
    else:  # one experiment cycle: batch b absorbed and evaluated by every method of a run
        n_methods, n_cycles = len(wl.methods), wl.n_batches - 2
        lat, ev = probe.cycle_s, probe.eval_s
        per_run = 1 + n_methods * (1 + n_cycles)  # no_update, then per method: enrolled + snapshots
        if (len(lat), len(ev)) != (cfg.runs * n_methods * n_cycles, cfg.runs * per_run):
            raise RuntimeError("run_experiment's update and evaluation calls are not those timed here")
        probe.cycle_s = [
            sum(lat[(run * n_methods + m) * n_cycles + b]
                + ev[run * per_run + 1 + m * (1 + n_cycles) + 1 + b] for m in range(n_methods))
            for run in range(cfg.runs)
            for b in range(n_cycles)
        ]
    for r in rows:
        probe.record(r["run"], r["batch"], r["method"], metrics.fmt9(r["eer"]),
                     metrics.fmt9(r["impostor_fraction"]), r["gallery_bytes"])
    last = wl.n_batches - 2
    probe.quality = {
        "final_eer": statistics.fmean(
            r["eer"] for r in rows if r["batch"] == last and r["method"] in QUALITY_METHODS
        ),
        "impostor_fraction": statistics.fmean(
            r["impostor_fraction"] for r in rows
            if r["batch"] >= 1 and r["method"] in QUALITY_METHODS
        ),
    }
    return wall


# -- online workload --------------------------------------------------------


def online_setup(wl: Workload, seed: int, units: int):
    dataset = synthgen.generate(replace(wl.synth, seed=seed))
    out = []
    for run in range(1, units + 1):
        split = dataio.split_batches(dataset, wl.n_batches, P, seed=1000 * seed + run)
        out.append((core.gallery_enroll(split.enroll, cap=P), split.adaptation))
    return out


def online_body(wl: Workload, state, probe: Probe) -> float:
    """Per unit: t* for the enrolled gallery, then one cycle per batch."""
    cfg = EngineConfig(method=selection.KMEANS, p=P, policy=wl.policy)
    impostor = []
    patches = Patches()
    probe.install(patches)
    probe.start()
    try:
        for gallery, batches in state:
            probe.attempted += len(batches)
            done = 0
            try:
                t_star = matching.estimate_threshold(gallery, cfg.policy, cfg.metric)
                for batch in batches:
                    after, report = engine.run_update_cycle(gallery, batch, cfg, t_star)
                    t_star = matching.estimate_threshold(after, cfg.policy, cfg.metric)
                    with probe.checking():
                        done += 1
                        problems = cycle_problems(gallery, after, report, batch, cfg)
                        if problems:
                            probe.fail(1, problems[0])
                        probe.record(metrics.fmt9(report.t_star_used),
                                     sorted(report.insertions), sorted(report.evictions))
                        impostor.append(metrics.impostor_fraction(after)[0])
                    gallery = after
            except Exception as exc:  # the program failed: the unit's remaining cycles count
                probe.fail(len(batches) - done, f"{type(exc).__name__}: {exc}")
            with probe.checking():
                probe.record(owned_ids(gallery))
    finally:
        patches.undo()
    wall = probe.stop()
    if impostor:
        probe.quality = {"impostor_fraction": statistics.fmean(impostor)}
    return wall


def setup(wl: Workload, seed: int, units: int):
    return (online_setup if wl.online else experiment_setup)(wl, seed, units)


def body(wl: Workload, state, probe: Probe) -> float:
    return (online_body if wl.online else experiment_body)(wl, state, probe)
