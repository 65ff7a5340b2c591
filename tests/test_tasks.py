"""Synthetic task generation, IID sharding, and CSV round trips."""

import re

import numpy as np
import pytest

from dccl import tasks
from dccl.tasks import (
    generate_synthetic_sequence,
    load_csv_dataset,
    shard_iid,
)
from reference import save_csv_dataset


def _logistic_oracle_accuracy(train_x, train_y, test_x, test_y):
    """Tiny two-class logistic regression trained by plain gradient descent."""
    w = np.zeros(train_x.shape[1])
    b = 0.0
    y = train_y.astype(float)
    for _ in range(300):
        z = train_x @ w + b
        p = 1.0 / (1.0 + np.exp(-z))
        gw = train_x.T @ (p - y) / len(y)
        gb = float(np.mean(p - y))
        w -= 0.5 * gw
        b -= 0.5 * gb
    pred = (test_x @ w + b) > 0.0
    return float(np.mean(pred == test_y.astype(bool)))


def test_two_separated_classes_are_linearly_learnable():
    seq = generate_synthetic_sequence(1, 2, 2, 100, 5, separation=4.0)
    task = seq[0]
    acc = _logistic_oracle_accuracy(task.train_x, task.train_y, task.test_x, task.test_y)
    assert acc > 0.95


def test_task_classes_are_disjoint_and_labels_local():
    seq = generate_synthetic_sequence(3, 4, 8, 30, 9)
    seen = set()
    for t, task in enumerate(seq):
        assert set(np.unique(task.train_y)) == set(range(4))
        assert set(np.unique(task.test_y)) <= set(range(4))
        overlap = seen.intersection(task.classes)
        assert not overlap
        seen.update(task.classes)
    assert seen == set(range(12))


def test_split_sizes_are_eighty_twenty():
    seq = generate_synthetic_sequence(1, 3, 4, 100, 2)
    task = seq[0]
    assert task.train_x.shape == (240, 4)
    assert task.test_x.shape == (60, 4)


def test_generation_is_deterministic():
    a = generate_synthetic_sequence(2, 2, 5, 40, 77)
    b = generate_synthetic_sequence(2, 2, 5, 40, 77)
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.train_x, tb.train_x)
        assert np.array_equal(ta.test_y, tb.test_y)
    c = generate_synthetic_sequence(2, 2, 5, 40, 78)
    assert not np.array_equal(a[0].train_x, c[0].train_x)
    with pytest.raises(ValueError, match="non-negative"):
        generate_synthetic_sequence(2, 2, 5, 40, -1)


@pytest.mark.parametrize(
    "args, message",
    [
        ((0, 2, 16, 10, 0, 4.0), "t must be at least 1, got 0"),
        ((2, 1, 16, 10, 0, 4.0), "classes_per_task must be at least 2, got 1"),
        ((2, 2, 0, 10, 0, 4.0), "dim must be at least 1, got 0"),
        ((2, 2, 16, 1, 0, 4.0), "per_class must be at least 2, got 1"),
        ((2, 2, 16, 10, 0, 0.0), "separation must be positive, got 0.0"),
        ((2, 2, 16, 10, 0, float("nan")), "separation must be finite, got nan"),
        ((2, 2, 16, 10, -1, 4.0), "seed must be non-negative, got -1"),
        ((2, 2, 16, 10, 0, float("inf")), "separation must be finite, got inf"),
    ],
)
def test_each_generator_bound_names_its_parameter(args, message):
    # a NaN separation would give tasks full of NaN, an infinite one
    # classes that are each one point repeated
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        generate_synthetic_sequence(*args)


def test_shard_sizes_match_paper_narrative():
    # 5000 training samples over 4 agents leaves 1250 each
    seq = generate_synthetic_sequence(1, 2, 3, 3125, 4)
    task = seq[0]
    assert task.train_x.shape[0] == 5000
    _, shards = shard_iid(task, 4, 123)
    assert [len(s) for s in shards] == [1250, 1250, 1250, 1250]


def test_shards_partition_the_training_set():
    seq = generate_synthetic_sequence(1, 2, 3, 50, 6)
    task = seq[0]
    pool, shards = shard_iid(task, 3, 9)
    sizes = sorted(len(s) for s in shards)
    assert max(sizes) - min(sizes) <= 1
    assert sum(sizes) == task.train_x.shape[0]
    rows = np.concatenate([s.examples for s in shards], axis=0)
    assert np.array_equal(
        np.sort(rows.view([("", rows.dtype)] * rows.shape[1]), axis=0),
        np.sort(
            task.train_x.view([("", task.train_x.dtype)] * task.train_x.shape[1]),
            axis=0,
        ),
    )
    # the rows are copied once, in the shard order, and the shards are views
    perm = np.random.default_rng(np.random.SeedSequence((9, 3))).permutation(len(rows))
    assert np.array_equal(pool.examples, task.train_x[perm])
    assert np.array_equal(pool.labels, task.train_y[perm])
    assert not np.shares_memory(pool.examples, task.train_x)
    for s in shards:
        assert np.shares_memory(s.examples, pool.examples)
        assert np.shares_memory(s.labels, pool.labels)


def test_shard_agent_ids_and_determinism():
    seq = generate_synthetic_sequence(1, 2, 3, 30, 6)
    task = seq[0]
    _, a = shard_iid(task, 4, 5)
    _, b = shard_iid(task, 4, 5)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.examples, sb.examples)
        assert np.array_equal(sa.labels, sb.labels)


def test_the_stream_table_names_every_first_level_stream_once():
    """Each first-level seed stream has its own tag, so no two kinds of
    draw share a stream."""
    table = {name: v for name, v in vars(tasks).items() if name.startswith("TAG_")}
    assert table == {
        "TAG_INIT": 1,
        "TAG_HEAD": 2,
        "TAG_SHARD": 3,
        "TAG_BATCH": 4,
        "TAG_PICK": 5,
        "TAG_DATA": 6,
        "TAG_REP": 7,
    }
    assert len(set(table.values())) == len(table)


def test_shard_rejects_tiny_dataset():
    seq = generate_synthetic_sequence(1, 2, 3, 2, 6)
    with pytest.raises(ValueError):
        shard_iid(seq[0], 64, 5)


def test_csv_inline_example(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("0,1.0,2.0\n1,3.0,4.0\n")
    ds = load_csv_dataset(str(path))
    total = ds.train_x.shape[0] + ds.test_x.shape[0]
    assert total == 2
    assert ds.train_x.shape[1] == 2
    assert ds.classes == [0, 1]


def test_csv_round_trip(tmp_path):
    seq = generate_synthetic_sequence(1, 3, 4, 20, 13)
    task = seq[0]
    path = tmp_path / "t.csv"
    save_csv_dataset(task, str(path))
    back = load_csv_dataset(str(path))
    assert np.array_equal(
        np.concatenate([task.train_x, task.test_x]),
        np.concatenate([back.train_x, back.test_x]),
    )
    assert np.array_equal(
        np.concatenate([task.train_y, task.test_y]),
        np.concatenate([back.train_y, back.test_y]),
    )
    assert back.classes == task.classes


def test_csv_parse_errors_carry_line_numbers(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("0,1.0,2.0\n1,3.0\n")
    with pytest.raises(ValueError, match="2"):
        load_csv_dataset(str(ragged))

    textual = tmp_path / "textual.csv"
    textual.write_text("0,1.0,2.0\n1,x,4.0\n")
    with pytest.raises(ValueError, match="2"):
        load_csv_dataset(str(textual))

    for bad in ("nan", "inf", "-inf"):
        nonfinite = tmp_path / "nonfinite.csv"
        nonfinite.write_text(f"0,1.0,2.0\n1,3.0,4.0\n0,1.0,{bad}\n")
        with pytest.raises(ValueError, match=":3: non-finite feature"):
            load_csv_dataset(str(nonfinite))

    badlabel = tmp_path / "badlabel.csv"
    badlabel.write_text("0.5,1.0,2.0\n")
    with pytest.raises(ValueError, match="1"):
        load_csv_dataset(str(badlabel))

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError):
        load_csv_dataset(str(empty))
