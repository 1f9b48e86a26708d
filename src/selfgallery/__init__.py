"""Self-updating template-gallery engine for verification systems.

A gallery of per-user template sets is adapted over time: incoming
batches of unlabelled feature vectors are pseudo-labelled against an
updating threshold, accepted samples are inserted, and a fixed-size set
of p templates per user is retained by K-Means, MDIST or DEND selection.
"""

from .dataio import Split, load_dataset, split_batches, write_dataset
from .core import Batch, Gallery, Sample, Template, UserGallery, gallery_enroll
from .engine import EngineConfig, UpdateCycleReport, run_sequence, run_update_cycle
from .experiment import ExperimentConfig, run_experiment
from .matching import ThresholdPolicy, classify_batch, estimate_threshold
from .metrics import compute_eer, distance_columns, impostor_fraction, score_sets
from .metrics import storage_capped, storage_uncapped
from .selection import select_dend, select_kmeans, select_mdist
from .synthgen import SynthParams, generate

__all__ = [
    "Batch",
    "EngineConfig",
    "ExperimentConfig",
    "Gallery",
    "Sample",
    "Split",
    "SynthParams",
    "Template",
    "ThresholdPolicy",
    "UpdateCycleReport",
    "UserGallery",
    "classify_batch",
    "compute_eer",
    "distance_columns",
    "estimate_threshold",
    "gallery_enroll",
    "generate",
    "impostor_fraction",
    "load_dataset",
    "run_experiment",
    "run_sequence",
    "run_update_cycle",
    "score_sets",
    "select_dend",
    "select_kmeans",
    "select_mdist",
    "split_batches",
    "storage_capped",
    "storage_uncapped",
    "write_dataset",
]

__version__ = "0.1.0"
