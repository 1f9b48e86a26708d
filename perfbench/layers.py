"""Traced-run instrumentation: where spans go and how per-layer metrics are read.

Every wrapper sits on the name its caller resolves, and every count is
computed from the wrapped call's inputs and outputs.
"""

from __future__ import annotations

from math import comb

from selfgallery import core, dataio, engine, experiment, matching, metrics, selection, synthgen

from spans import Patches, Recorder, arg

SUBSET_METHODS = ("mdist", "dend")


def select_path(n: int, p: int) -> str:
    """The branch ``selection`` takes for ``n`` candidates and cap ``p``."""
    if n <= p:
        return "identity"
    return "exact" if comb(n, p) <= selection.EXACT_BUDGET else "greedy"


def check_path_rule() -> bool | None:
    """Does ``select_path`` agree with ``selection`` on both budget boundaries?

    The exact and greedy internals are swapped for stubs that record
    which branch ran, so the boundary (about a million subsets) costs
    nothing. Returns None when those internals no longer exist.
    """
    names = ("_enumerate_best", "_greedy_select")
    if not all(hasattr(selection, n) for n in names):
        return None
    taken: list[str] = []

    def stub(path):
        def select(cands, p, maximize):
            taken.append(path)
            return cands[:p]
        return lambda _: select

    patches = Patches()
    for name, path in zip(names, ("exact", "greedy")):
        patches.set(selection, name, stub(path))
    try:
        for p in (2, 6):
            n_max = p
            while comb(n_max + 1, p) <= selection.EXACT_BUDGET:
                n_max += 1
            for n in (p, p + 1, n_max, n_max + 1):
                cands = [
                    core.Template(sample=core.Sample(id=i, vector=[float(i)], true_user=1))
                    for i in range(n)
                ]
                for select in (selection.select_mdist, selection.select_dend):
                    taken.clear()
                    select(cands, p)
                    if (taken[0] if taken else "identity") != select_path(n, p):
                        return False
    finally:
        patches.undo()
    return True


def _count_classify(rec, args, kwargs, decisions):
    batch, gallery = arg(args, kwargs, 0, "batch"), arg(args, kwargs, 1, "gallery")
    rec.count("classify.comparisons", len(batch) * gallery.n_templates)
    rec.count("classify.probes", len(decisions))
    rec.count("classify.accepted", sum(1 for d in decisions if d.accepted))


def _count_cycle(rec, args, kwargs, out):
    report = out[1]
    rec.count("engine.insertions", len(report.insertions))
    rec.count("engine.evictions", len(report.evictions))


def _subset_select(rec, method, fn):
    def name(args, kwargs):
        n, p = len(arg(args, kwargs, 0, "candidates")), arg(args, kwargs, 1, "p")
        path = select_path(n, p)
        if path == "exact":
            rec.count(f"{method}.subsets", comb(n, p))
        return f"selection.select_{method}.{path}"

    return rec.wrap(name, fn)


def install(rec: Recorder, patches: Patches) -> None:
    """Span every layer boundary the workloads cross."""
    spans = {
        # set-up calls made by the benchmark itself
        (synthgen, "generate"): ("synthgen.generate", None),
        (dataio, "split_batches"): ("dataio.split_batches", None),
        (core, "gallery_enroll"): ("core.gallery_enroll", None),
        # the experiment harness and the names it resolves
        (experiment, "run_experiment"): ("experiment.run_experiment", None),
        (experiment, "gallery_enroll"): ("core.gallery_enroll", None),
        (experiment, "run_sequence"): ("engine.run_sequence", None),
        (experiment, "evaluate_snapshot"): ("metrics.evaluate_snapshot", None),
        (experiment, "impostor_fraction"): ("metrics.impostor_fraction", None),
        (metrics, "score_sets"): (
            "metrics.score_sets",
            lambda rec, a, kw, out: rec.count(
                "score_sets.comparisons",
                len(arg(a, kw, 0, "test")) * len(arg(a, kw, 1, "gallery").users),
            ),
        ),
        (metrics, "compute_eer"): ("metrics.compute_eer", None),
        # the update cycle
        (engine, "run_update_cycle"): ("engine.run_update_cycle", _count_cycle),
        (matching, "estimate_threshold"): ("matching.estimate_threshold", None),
        (matching, "impostor_pool"): (
            "matching.impostor_pool",
            lambda rec, a, kw, pool: rec.count("impostor_pool.pairs", pool.size),
        ),
        (matching, "classify_batch"): ("matching.classify_batch", _count_classify),
        (selection, "select_kmeans"): (
            "selection.select_kmeans",
            lambda rec, a, kw, out: rec.count(
                "select_kmeans.points",
                sum(len(c) for c in arg(a, kw, 0, "candidates_by_user").values()),
            ),
        ),
        (selection, "kmeans"): (
            "clustering.kmeans",
            lambda rec, a, kw, cl: rec.count("kmeans.iters", cl.n_iter),
        ),
    }
    for (module, attr), (name, counter) in spans.items():
        patches.set(module, attr, lambda fn, name=name, counter=counter: rec.wrap(name, fn, counter))
    for method in SUBSET_METHODS:
        patches.set(selection, f"select_{method}", lambda fn, m=method: _subset_select(rec, m, fn))


def layer_metrics(rec: Recorder, body_s: float, overhead_s: float) -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json, from one traced run.

    ``body_s`` is the traced body's wall time without the benchmark's own
    checks; the ``share.*`` metrics are fractions of it.
    """
    c = rec.counters
    m = {
        "synthgen.generate.busy_s": rec.busy("synthgen.generate"),
        "dataio.split_batches.busy_s": rec.busy("dataio.split_batches"),
        "core.gallery_enroll.busy_s": rec.busy("core.gallery_enroll"),
        "matching.impostor_pool.busy_s": rec.busy("matching.impostor_pool"),
        "matching.impostor_pool.pairs": c["impostor_pool.pairs"],
        "matching.estimate_threshold.calls": rec.calls("matching.estimate_threshold"),
        "matching.estimate_threshold.self_s": rec.self_time("matching.estimate_threshold"),
        "matching.classify_batch.calls": rec.calls("matching.classify_batch"),
        "matching.classify_batch.busy_s": rec.busy("matching.classify_batch"),
        "matching.classify_batch.comparisons": c["classify.comparisons"],
        "matching.classify_batch.accept_ratio": (
            c["classify.accepted"] / c["classify.probes"] if c["classify.probes"] else 0.0
        ),
    }
    for method in SUBSET_METHODS:
        base = f"selection.select_{method}"
        for path in ("identity", "exact", "greedy"):
            m[f"{base}.{path}.calls"] = rec.calls(f"{base}.{path}")
        for path in ("exact", "greedy"):
            m[f"{base}.{path}.busy_s"] = rec.busy(f"{base}.{path}")
        m[f"{base}.exact.subsets"] = c[f"{method}.subsets"]
    m.update({
        "selection.select_kmeans.calls": rec.calls("selection.select_kmeans"),
        "selection.select_kmeans.self_s": rec.self_time("selection.select_kmeans"),
        "selection.select_kmeans.points": c["select_kmeans.points"],
        "clustering.kmeans.busy_s": rec.busy("clustering.kmeans"),
        "clustering.kmeans.iters": c["kmeans.iters"],
        "engine.run_update_cycle.calls": rec.calls("engine.run_update_cycle"),
        "engine.run_update_cycle.busy_s": rec.busy("engine.run_update_cycle"),
        "engine.run_update_cycle.self_s": rec.self_time("engine.run_update_cycle"),
        "engine.insertions": c["engine.insertions"],
        "engine.evictions": c["engine.evictions"],
        "metrics.evaluate_snapshot.calls": rec.calls("metrics.evaluate_snapshot"),
        "metrics.evaluate_snapshot.self_s": rec.self_time("metrics.evaluate_snapshot"),
        "metrics.score_sets.busy_s": rec.busy("metrics.score_sets"),
        "metrics.score_sets.comparisons": c["score_sets.comparisons"],
        "metrics.compute_eer.busy_s": rec.busy("metrics.compute_eer"),
        "experiment.run_experiment.self_s": rec.self_time("experiment.run_experiment"),
        "trace.overhead_s": overhead_s,
    })
    shares = {
        "share.evaluation": rec.busy("metrics.evaluate_snapshot"),
        "share.selection_exact": sum(
            rec.busy(f"selection.select_{x}.exact") for x in SUBSET_METHODS
        ),
        "share.matching": rec.busy("matching.classify_batch")
        + rec.busy("matching.estimate_threshold"),
        "share.kmeans": rec.busy("selection.select_kmeans"),
        "share.engine_self": rec.self_time("engine.run_update_cycle"),
    }
    m.update({k: v / body_s for k, v in shares.items()})
    return m
