"""How the updating threshold trades acceptance volume against purity.

The threshold t* is estimated from the gallery itself: the pool of
cross-user template distances is an impostor-score sample, and t* is set
so that (an estimate of) the false-accept rate on that pool hits a target.

  * zero-FAR        -- t* = the smallest cross-user distance: no template
                       pair in the gallery would be falsely accepted.
  * FAR-quantile q  -- t* = the lower q-quantile of the pool: looser, lets
                       more genuine samples in, but also more impostors.

This script classifies the same batch under a sweep of policies and
reports how many samples get accepted and how many of those are wrong.

    python3 demos/03_threshold_policies.py
"""

from selfgallery import (
    SynthParams,
    ThresholdPolicy,
    classify_batch,
    estimate_threshold,
    gallery_enroll,
    generate,
    split_batches,
)

params = SynthParams(
    k_users=8, dim=12, sigma=1.0, separation=5.0, tail_eps=0.2,
    samples_per_user=24, seed=11,
)
split = split_batches(generate(params), n_batches=4, p=5, seed=3)
gallery = gallery_enroll(split.enroll, cap=5)
batch = split.adaptation[0]

policies = [("zero-FAR", ThresholdPolicy.zero_far())]
policies += [
    (f"FAR q={q}", ThresholdPolicy.far_quantile(q)) for q in (0.01, 0.05, 0.2, 0.5)
]

truth = {s.id: s.true_user for s in batch.samples}

print(f"batch of {len(batch)} samples\n")
print(f"{'policy':<12} {'t*':>8} {'accepted':>9} {'mislabeled':>11}")
for name, policy in policies:
    t_star = estimate_threshold(gallery, policy)
    decisions = classify_batch(batch, gallery, t_star)
    accepted = decisions[decisions.accepted]
    wrong = sum(truth[d.sample_id] != d.label for d in accepted)
    print(f"{name:<12} {t_star:>8.4f} {len(accepted):>9} {wrong:>11}")

print("\nLooser thresholds accept more of the batch but start pseudo-labeling"
      "\nsamples with the wrong identity -- exactly what a capped, compact"
      "\nselection criterion then has to clean up.")
