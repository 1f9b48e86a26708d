"""Quickstart: enroll a small gallery, feed it adaptation batches, and
watch the template sets drift toward the true user distributions.

Run from the repo root after installing the package:

    python3 demos/01_quickstart.py
"""

import numpy as np

from selfgallery import (
    EngineConfig,
    SynthParams,
    ThresholdPolicy,
    gallery_enroll,
    generate,
    run_sequence,
    split_batches,
)

# ---------------------------------------------------------------------------
# 1. Make a toy dataset: 6 users, 8-d feature vectors, 10% of samples drawn
#    near some *other* user's mode (mislabeled-looking outliers).
# ---------------------------------------------------------------------------
params = SynthParams(
    k_users=6, dim=8, sigma=1.0, separation=7.0, tail_eps=0.10,
    samples_per_user=30, seed=42,
)
dataset = generate(params)
print(f"dataset: {len(dataset)} samples, {params.k_users} users, dim={params.dim}")

# ---------------------------------------------------------------------------
# 2. Split into enrollment / adaptation batches / held-out test probes.
# ---------------------------------------------------------------------------
split = split_batches(dataset, n_batches=6, p=4, seed=0)
print(f"enrolled {len(split.enroll)} templates, "
      f"{len(split.adaptation)} adaptation batches of {len(split.adaptation[0])}")

gallery0 = gallery_enroll(split.enroll, cap=4)

# ---------------------------------------------------------------------------
# 3. Run the self-update loop with MDIST selection under a zero-FAR threshold.
# ---------------------------------------------------------------------------
config = EngineConfig(method="mdist", p=4, policy=ThresholdPolicy.zero_far())
final_gallery, reports, snapshots = run_sequence(
    gallery0, list(split.adaptation), config
)

print("\ncycle  t*        accepted  rejected  inserted  evicted")
for r in reports:
    print(f"{r.batch_index:>5}  {r.t_star_used:<8.4f}  {r.n_accepted:>8}  "
          f"{r.n_rejected:>8}  {len(r.insertions):>8}  {len(r.evictions):>7}")

# ---------------------------------------------------------------------------
# 4. How far did each user's template set move from its enrollment centroid?
# ---------------------------------------------------------------------------
print("\nuser  enrolled-centroid -> final-centroid shift")
vectors0, owner0, ids0 = gallery0.vectors, gallery0.owner, gallery0.sample_id
vectors, owner, ids = final_gallery.vectors, final_gallery.owner, final_gallery.sample_id
for user in final_gallery.user_ids:
    before = vectors0[owner0 == user].mean(axis=0)
    after = vectors[owner == user].mean(axis=0)
    kept = np.isin(ids[owner == user], ids0[owner0 == user]).sum()
    print(f"{user:>4}  shift={np.linalg.norm(after - before):.3f}  "
          f"({kept}/{np.count_nonzero(owner == user)} original templates kept)")
