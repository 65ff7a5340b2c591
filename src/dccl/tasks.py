"""Task data and the seed streams: synthetic class-disjoint datasets, IID
sharding, each task's batch order, CSV IO.

Every random draw of a run comes from a named stream of a seed,
``derive_rng(seed, TAG_*, ...)`` (the ``SeedSequence`` of that tuple), so a
configuration reproduces itself exactly.  The tags below are the whole
table of first-level streams; no two kinds of draw share one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# the named seed streams: the tuple after the run seed (t the task)
TAG_INIT = 1  # (1, t): the trunk at task 0, and stl's fresh one at each task t
TAG_HEAD = 2  # (2, t): task t's head
TAG_SHARD = 3  # (3, t): task t's shard seed s, whose stream (s, 3) orders the rows
TAG_BATCH = 4  # (4, i, t, epoch): agent i's sample order in one epoch
TAG_PICK = 5  # (5,): the agent that grows codec's memory, one draw a task
TAG_DATA = 6  # (6,) after the data seed: the synthetic tasks
TAG_REP = 7  # (7, t): the picked agent's representation sample


def _entropy(seed: int, *rest: int) -> np.ndarray:
    """The uint32 words ``SeedSequence`` makes of ``(seed, *rest)``: the
    seed's little-endian 32-bit words, then one word per value of ``rest``."""
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    words = [seed >> s & 0xFFFFFFFF for s in range(0, max(seed.bit_length(), 1), 32)]
    return np.array(words + [int(v) for v in rest], dtype=np.uint32)


_M32 = 0xFFFFFFFF


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for every row of
    the uint32 matrix ``entropy``, in one pass: numpy's documented mixing
    (pool of four words, ``mix_entropy``, then eight output words), whose
    hash constants advance alike for every row of one length."""
    rows, length = entropy.shape
    const = 0x43B0D7E5

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * 0x931E8875 & _M32
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
        return out ^ out >> np.uint32(16)

    zero = np.zeros(rows, dtype=np.uint32)  # a row shorter than the pool is padded
    pool = [hashmix(entropy[:, i] if i < length else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, length):
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    state = np.empty((rows, 8), dtype=np.uint32)
    const = 0x8B51F9DD
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(const)
        const = const * 0x58F38DED & _M32
        value = value * np.uint32(const)
        state[:, i] = value ^ value >> np.uint32(16)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def derive_rng(*entropy: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(_entropy(*entropy)))


def _derive_int(*entropy: int) -> int:
    return int(np.random.SeedSequence(_entropy(*entropy)).generate_state(1)[0])


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


def check_synthetic(
    t: int, classes_per_task: int, dim: int, per_class: int,
    seed: int, separation: float,
) -> None:
    """Raise ``ValueError``, naming it first, for the first argument
    ``generate_synthetic_sequence`` rejects."""
    least = {"t": 1, "classes_per_task": 2, "dim": 1, "per_class": 2}
    for name, value in zip(least, (t, classes_per_task, dim, per_class)):
        if value < least[name]:
            raise ValueError(f"{name} must be at least {least[name]}, got {value}")
    if not separation > 0:
        raise ValueError(f"separation must be positive, got {separation}")
    _entropy(seed)  # raises for a negative seed


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
    check_synthetic(t, classes_per_task, dim, per_class, seed, separation)
    rng = derive_rng(seed, TAG_DATA)
    noise_scale = 1.0 / separation
    n_test = max(1, per_class // 5)
    n_train = per_class - n_test
    local = np.arange(classes_per_task, dtype=np.int64)
    tasks = []
    for task_idx in range(t):
        train_parts, test_parts = [], []
        for _ in range(classes_per_task):
            direction = rng.standard_normal(dim)
            mean = direction / np.sqrt(np.sum(direction * direction))
            samples = mean + noise_scale * rng.standard_normal((per_class, dim))
            train_parts.append(samples[:n_train])
            test_parts.append(samples[n_train:])
        tasks.append(
            LabeledDataset(
                train_x=np.concatenate(train_parts),
                train_y=np.repeat(local, n_train),
                test_x=np.concatenate(test_parts),
                test_y=np.repeat(local, n_test),
                classes=(local + task_idx * classes_per_task).tolist(),
            )
        )
    return tasks


def shard_iid(
    dataset: LabeledDataset, n: int, seed: int
) -> tuple[TaskShard, list[TaskShard]]:
    """Split a task's training set into n near-equal shards, one per agent.

    The rows are copied once, in a seeded order, into the pool; the shards
    are its contiguous chunks, views of it, whose sizes differ by at most
    one, with the earlier agents taking the remainder.  Returns the pool
    and the shards.
    """
    size = dataset.train_x.shape[0]
    if n < 1:
        raise ValueError("need at least one shard")
    if size < n:
        raise ValueError(f"dataset has {size} samples, fewer than {n} agents")
    perm = derive_rng(seed, TAG_SHARD).permutation(size)
    pool = TaskShard(examples=dataset.train_x[perm], labels=dataset.train_y[perm])
    base, rem = divmod(size, n)
    cuts = [agent * base + min(agent, rem) for agent in range(n + 1)]
    shards = [
        TaskShard(examples=pool.examples[s:e], labels=pool.labels[s:e])
        for s, e in zip(cuts, cuts[1:])
    ]
    return pool, shards


def _batches(
    shards: list[TaskShard], seed: int, task: int, epochs: int, rounds: int, size: int
) -> np.ndarray:
    """Row indices into the task's pool (``shard_iid``), which holds the
    shards in order, for every round of a task, shape (epochs * rounds, N,
    size)."""
    # in each epoch agent i's rows are its shard's permutation (the stream
    # derive_rng(seed, TAG_BATCH, i, task, epoch) would give), shifted to
    # the shard's offset and repeated to length
    n = len(shards)
    lengths = np.array([len(s) for s in shards])
    offsets = np.cumsum(lengths) - lengths
    entropy = np.tile(_entropy(seed, TAG_BATCH, 0, task, 0), (epochs, n, 1))
    entropy[..., -3] = np.arange(n)
    entropy[..., -1] = np.arange(epochs)[:, np.newaxis]
    words = iter(_seed_words(entropy.reshape(epochs * n, -1)))

    class NextWords(np.random.bit_generator.ISeedSequence):
        # PCG64 asks its seed once for four uint64 words: the next stream's;
        # a class made here, so that importing dccl loads no numpy.random
        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return next(words)

    # a shard's slice of an arange is its offset plus its own arange, so
    # shuffling the slice in place shifts the shard's permutation
    perms = np.tile(np.arange(lengths.sum()), (epochs, 1))
    spans = list(zip(offsets.tolist(), (offsets + lengths).tolist()))
    for perm in perms:
        for start, stop in spans:
            bits = np.random.PCG64(NextWords())
            np.random.Generator(bits).shuffle(perm[start:stop])
    cycle = np.arange(rounds * size).reshape(rounds, 1, size)
    cycle = cycle % lengths[:, np.newaxis] + offsets[:, np.newaxis]
    return perms[:, cycle].reshape(-1, n, size)


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
    classes = sorted(set(labels))
    y = np.searchsorted(classes, labels).astype(np.int64)
    train, test = [], []
    for c in range(len(classes)):
        idx = np.flatnonzero(y == c)
        n_train = max(1, int(len(idx) * 0.8))
        train.append(idx[:n_train])
        test.append(idx[n_train:])
    train, test = np.concatenate(train), np.concatenate(test)
    return LabeledDataset(x[train], y[train], x[test], y[test], classes)

