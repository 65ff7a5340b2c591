"""Deterministic simulator of communication-efficient decentralized
continual learning: projected SGD over a gossip graph with a lossless
subspace-coefficient codec, plus baselines and metrics."""

from .tasks import generate_synthetic_sequence
from .topology import Topology
from .trainer import TrainConfig, run

__version__ = "0.1.0"

__all__ = [
    "Topology",
    "TrainConfig",
    "generate_synthetic_sequence",
    "run",
]
