"""Task sequences: synthetic class-disjoint datasets, IID sharding, CSV IO."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class LabeledDataset:
    """One task's data; labels are local indices into ``classes``."""

    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    classes: list[int]  # global class ids, sorted ascending


@dataclass
class TaskShard:
    examples: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return self.examples.shape[0]


def generate_synthetic_sequence(
    t: int,
    classes_per_task: int,
    dim: int,
    per_class: int,
    seed: int,
    separation: float = 4.0,
) -> list[LabeledDataset]:
    """Gaussian blob tasks with globally disjoint label sets.

    Each class is an isotropic Gaussian with standard deviation
    1/separation around a random unit-norm mean.  Per class, the last fifth
    of the samples (at least one) is held out as the test split.
    """
    if t < 1 or classes_per_task < 2 or dim < 1 or per_class < 2:
        raise ValueError("need t >= 1, classes_per_task >= 2, dim >= 1, per_class >= 2")
    if separation <= 0:
        raise ValueError("separation must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 6)))
    noise_scale = 1.0 / separation
    tasks = []
    for task_idx in range(t):
        train_parts, test_parts = [], []
        train_labels, test_labels = [], []
        n_test = max(1, per_class // 5)
        n_train = per_class - n_test
        for local in range(classes_per_task):
            direction = rng.standard_normal(dim)
            mean = direction / np.sqrt(np.sum(direction * direction))
            samples = mean + noise_scale * rng.standard_normal((per_class, dim))
            train_parts.append(samples[:n_train])
            test_parts.append(samples[n_train:])
            train_labels.append(np.full(n_train, local, dtype=np.int64))
            test_labels.append(np.full(n_test, local, dtype=np.int64))
        classes = [task_idx * classes_per_task + j for j in range(classes_per_task)]
        tasks.append(
            LabeledDataset(
                train_x=np.concatenate(train_parts),
                train_y=np.concatenate(train_labels),
                test_x=np.concatenate(test_parts),
                test_y=np.concatenate(test_labels),
                classes=classes,
            )
        )
    return tasks


def shard_iid(dataset: LabeledDataset, n: int, seed: int) -> list[TaskShard]:
    """Split a task's training set into n near-equal shards, one per agent.

    A seeded permutation is cut into contiguous chunks; sizes differ by at
    most one, with the earlier agents taking the remainder.
    """
    size = dataset.train_x.shape[0]
    if n < 1:
        raise ValueError("need at least one shard")
    if size < n:
        raise ValueError(f"dataset has {size} samples, fewer than {n} agents")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 3)))
    perm = rng.permutation(size)
    base, rem = divmod(size, n)
    shards = []
    offset = 0
    for agent in range(n):
        take = base + (1 if agent < rem else 0)
        idx = perm[offset : offset + take]
        offset += take
        shards.append(
            TaskShard(
                examples=dataset.train_x[idx].copy(),
                labels=dataset.train_y[idx].copy(),
            )
        )
    return shards


def load_csv_dataset(path: str) -> LabeledDataset:
    """Parse ``label,feature...`` rows into a dataset with an 80/20 split.

    Label sets are remapped to local indices; the split is per class, first
    part train, remainder test, in file order.
    """
    features: list[list[float]] = []
    labels: list[int] = []
    width = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) < 2:
                raise ValueError(f"{path}:{lineno}: need a label and features")
            if width is None:
                width = len(parts) - 1
            elif len(parts) - 1 != width:
                raise ValueError(
                    f"{path}:{lineno}: expected {width} features, got {len(parts) - 1}"
                )
            try:
                label = int(parts[0])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad label {parts[0]!r}") from exc
            try:
                row = [float(p) for p in parts[1:]]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric feature") from exc
            if not all(math.isfinite(v) for v in row):
                raise ValueError(f"{path}:{lineno}: non-finite feature")
            labels.append(label)
            features.append(row)
    if not features:
        raise ValueError(f"{path}: no data rows")
    x = np.array(features, dtype=np.float64)
    y_global = np.array(labels, dtype=np.int64)
    classes = sorted(set(labels))
    local = {c: i for i, c in enumerate(classes)}
    y = np.array([local[v] for v in y_global], dtype=np.int64)
    train_parts, test_parts, train_labels, test_labels = [], [], [], []
    for c in range(len(classes)):
        idx = np.flatnonzero(y == c)
        n_train = max(1, int(len(idx) * 0.8)) if len(idx) > 1 else 1
        n_train = min(n_train, len(idx))
        train_parts.append(x[idx[:n_train]])
        train_labels.append(y[idx[:n_train]])
        test_parts.append(x[idx[n_train:]])
        test_labels.append(y[idx[n_train:]])
    return LabeledDataset(
        train_x=np.concatenate(train_parts),
        train_y=np.concatenate(train_labels),
        test_x=np.concatenate(test_parts) if any(p.size for p in test_parts) else np.zeros((0, x.shape[1])),
        test_y=np.concatenate(test_labels) if any(p.size for p in test_labels) else np.zeros(0, dtype=np.int64),
        classes=classes,
    )


def save_csv_dataset(dataset: LabeledDataset, path: str) -> None:
    """Write train then test rows as ``label,feature...`` with global labels."""
    with open(path, "w", encoding="utf-8") as handle:
        for x, y in ((dataset.train_x, dataset.train_y), (dataset.test_x, dataset.test_y)):
            for i in range(x.shape[0]):
                label = dataset.classes[int(y[i])]
                row = ",".join(repr(float(v)) for v in x[i])
                handle.write(f"{label},{row}\n")
