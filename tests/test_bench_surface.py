"""The benchmark's read surface: what ``perfbench/`` reads of the package.

``perfbench/`` is the one benchmark entry point, and it is not edited with
the package: it patches module attributes by name, builds its set-up through
``synthgen.generate``, ``dataio.split_batches`` and
``core.gallery_enroll(split.enroll, cap=P)``, stubs selection's exact and
greedy paths to check its path rule, and reads each gallery's per-user view
(``Gallery.users``) in its untimed checks. A rename or a removal on that
surface makes the benchmark crash or print ``correct: false`` without
failing any other test, so this module runs those readers on small inputs:

- ``layers.check_path_rule()`` is True (None would mean the stubbed names
  ``selection._enumerate_best``/``_greedy_select`` are gone);
- ``workloads.owned_ids`` reads the same ids as the gallery's
  ``sample_id`` and ``owner`` columns, enrolled and after a cycle;
- a tiny experiment unit and a tiny online unit run under every patch of
  ``layers.install`` with no problem, and every counter they reach reads
  above 0.
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

from selfgallery import engine, experiment, matching, selection
from selfgallery.engine import EngineConfig
from selfgallery.synthgen import SynthParams

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Patches, Recorder  # noqa: E402

# workloads.P = 6 templates per user: 42 samples a user for 7 batches, 72 for 12
EXPERIMENT = replace(
    workloads.WORKLOADS["dominating_mode"],
    synth=SynthParams(k_users=3, dim=4, separation=3.0, tail_eps=0.15, samples_per_user=42, seed=7),
    methods=(selection.KMEANS, selection.MDIST, selection.DEND, selection.KEEP_ALL),
)
ONLINE = replace(
    workloads.WORKLOADS["online_wide"],
    synth=SynthParams(k_users=3, dim=4, separation=3.0, tail_eps=0.1, samples_per_user=72),
)
REACHED = {
    "classify.comparisons", "classify.probes", "classify.accepted", "engine.insertions",
    "engine.evictions", "score_sets.comparisons", "select_kmeans.points", "kmeans.iters",
    "mdist.subsets", "dend.subsets",
}


def _ids_by_column(gallery) -> dict[int, list[int]]:
    return {u: sorted(gallery.sample_id[gallery.owner == u].tolist()) for u in gallery.user_ids}


def test_the_path_rule_is_checked_and_agrees():
    assert layers.check_path_rule() is True


def test_owned_ids_reads_the_gallery_columns():
    [(g0, batches)] = workloads.online_setup(ONLINE, seed=1, units=1)
    cfg = EngineConfig(method=selection.KMEANS, p=workloads.P, policy=ONLINE.policy)
    t_star = matching.estimate_threshold(g0, cfg.policy, cfg.metric)
    g1, report = engine.run_update_cycle(g0, batches[0], cfg, t_star)
    assert report.n_accepted and report.evictions  # the cycle changed the gallery
    for g in (g0, g1):
        assert workloads.owned_ids(g) == _ids_by_column(g)
        assert workloads.cycle_problems(g0, g1, report, batches[0], cfg) == []


@pytest.mark.parametrize("wl", [EXPERIMENT, ONLINE], ids=["experiment", "online"])
def test_a_traced_unit_runs_with_no_problem(wl):
    originals = {
        (module, name): getattr(module, name)
        for module, name in ((engine, "run_update_cycle"), (matching, "classify_batch"),
                             (selection, "select_mdist"), (experiment, "gallery_enroll"))
    }
    rec, patches = Recorder(), Patches()
    layers.install(rec, patches)
    try:
        probe = workloads.Probe(rec)
        probe.wall_s = workloads.body(wl, workloads.setup(wl, 1, 1), probe)
    finally:
        patches.undo()
    assert all(getattr(module, name) is fn for (module, name), fn in originals.items())
    assert (probe.failed, probe.problems) == (0, [])
    assert probe.attempted and probe.cycle_s and probe.quality
    assert {k: v for k, v in rec.counters.items() if not v > 0} == {}
    expected = REACHED - ({"score_sets.comparisons", "mdist.subsets", "dend.subsets"} if wl.online else set())
    assert expected <= set(rec.counters)
    metrics = layers.layer_metrics(rec, probe.wall_s, 0.0)
    assert metrics["engine.run_update_cycle.calls"] > 0
    assert metrics["matching.classify_batch.calls"] > 0
