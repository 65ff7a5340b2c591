"""Deterministic simulator of communication-efficient decentralized
continual learning: projected SGD over a gossip graph with a lossless
subspace-coefficient codec, plus baselines and metrics."""

from .gpm import ThresholdSchedule
from .tasks import generate_synthetic_sequence
from .topology import parse_topology
from .trainer import TrainConfig, run

__version__ = "0.1.0"

__all__ = [
    "ThresholdSchedule",
    "TrainConfig",
    "generate_synthetic_sequence",
    "parse_topology",
    "run",
]
