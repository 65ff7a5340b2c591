"""Whole runs: the task loop, determinism, the seed streams, the naming of
a non-finite run, the config's checks and the BLAS thread pin."""

import copy
import dataclasses
import pickle
import weakref

import numpy as np
import pytest

from dccl.gossip import NonFiniteError
from dccl.model import Mlp, Outer
from dccl.tasks import (
    TAG_BATCH,
    TAG_SHARD,
    _batches,
    _derive_int,
    _seed_words,
    derive_rng,
    generate_synthetic_sequence,
    seed_entropy,
    task_batches,
)
from dccl.topology import parse_topology
import dccl.trainer
from dccl.trainer import TrainConfig, run, _openblas


def _config(topology, agents, seed=7, method="codec", dims=None, **kw):
    defaults = dict(
        eta=0.1,
        epochs=2,
        batch_size=8,
        eps_base=0.95,
        eps_increment=0.003,
        topology=parse_topology(topology, agents),
        seed=seed,
        method=method,
        lam=5000.0,
        dims=dims or [16, 32, 16],
        rep_samples=16,
        debug_checks=False,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


@pytest.mark.parametrize(
    "bad_step, bad_loss, cause",
    [(2, None, "agent 2 has non-finite step"), (1, 3, "agent 1 has non-finite step"),
     (3, 1, "agent 1 has non-finite loss")],
)
def test_the_first_agent_with_a_non_finite_loss_mu_or_step_is_named(
    monkeypatch, bad_step, bad_loss, cause
):
    """The run names the first agent with any non-finite loss, mu or step,
    and for that agent the loss before the mu before the step.  Layer 1's
    gradient is a factor pair here, so an infinite entry of its coordinates
    makes a row of that agent's step inf or nan."""
    real = dccl.trainer.local_step

    def broken(*args, **kwargs):
        loss, mu, steps = real(*args, **kwargs)
        assert isinstance(steps[1], Outer)
        steps[1].coords[bad_step, 3, 2] = np.inf
        if bad_loss is not None:
            loss[bad_loss] = np.nan
        return loss, mu, steps

    monkeypatch.setattr(dccl.trainer, "local_step", broken)
    seq = generate_synthetic_sequence(1, 2, 16, 40, 4)
    with pytest.raises(NonFiniteError, match=f"^task 0, round 0: {cause}$"):
        with np.errstate(invalid="ignore"):  # inf times a zero delta is nan
            run(_config("ring", 4, epochs=1), seq)


def test_single_task_codec_equals_plain_decentralized_sgd():
    """The memory is empty throughout one task, so nothing is projected or
    encoded: codec is naive decentralized SGD bit for bit."""
    seq = generate_synthetic_sequence(1, 2, 16, 60, 5)
    for topology in ("ring", "full"):
        codec = run(_config(topology, 4, method="codec"), seq)
        naive = run(_config(topology, 4, method="naive"), seq)
        assert np.array_equal(codec.final_params, naive.final_params)
        assert np.array_equal(codec.loss, naive.loss)
        assert np.array_equal(codec.consensus_error, naive.consensus_error)
        assert np.all(codec.mu == 1.0)
        assert codec.accuracy[0, 0] == naive.accuracy[0, 0]


def test_runs_are_deterministic():
    seq = generate_synthetic_sequence(2, 2, 16, 60, 9)
    a = run(_config("ring", 4), seq)
    b = run(_config("ring", 4), seq)
    assert np.array_equal(a.final_params, b.final_params)
    for name in ("loss", "mu", "consensus_error"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert a.ledger == b.ledger


@pytest.mark.parametrize("seed", [0, 4, 2**32 - 1, 2**32, 2**40 + 5, 2**70])
def test_seed_streams_are_numpys_tuple_streams(seed):
    """Entropy built as uint32 words gives the streams ``SeedSequence``
    makes of the plain tuple, for seeds of 2**32 and above too."""
    want = np.random.default_rng(np.random.SeedSequence((seed, 4, 3, 2, 1)))
    got = derive_rng(seed, 4, 3, 2, 1)
    assert np.array_equal(got.integers(0, 2**62, 16), want.integers(0, 2**62, 16))
    state = np.random.SeedSequence((seed, TAG_SHARD, 3)).generate_state(1)[0]
    assert _derive_int(seed, TAG_SHARD, 3) == int(state)
    shards = [range(7), range(5), range(6)]  # only their lengths are read
    epochs = []
    for epoch in range(3):
        rows, offset = [], 0
        for i, shard in enumerate(shards):
            ss = np.random.SeedSequence((seed, TAG_BATCH, i, 2, epoch))
            perm = np.random.default_rng(ss).permutation(len(shard)) + offset
            rows.append(perm[np.arange(4 * 3) % len(shard)])
            offset += len(shard)
        epochs.append(np.stack(rows).reshape(3, 4, 3).swapaxes(0, 1))
    assert np.array_equal(_batches(shards, seed, 2, 3, 4, 3), np.concatenate(epochs))


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**70])
def test_seed_words_are_numpys_seed_sequence_state(seed):
    """The one-pass hash gives ``SeedSequence(row).generate_state(4,
    np.uint64)`` for every row, at entropy lengths 1 to 9 (shorter than the
    four-word pool, equal and longer) and for all-zero rows."""
    rng = np.random.default_rng(seed % 2**32)
    words = seed_entropy(seed)
    for length in range(1, 10):
        rows = rng.integers(0, 2**32, size=(6, length), dtype=np.uint64)
        rows = rows.astype(np.uint32)
        rows[1] = 0
        rows[2, : len(words)] = words[:length]
        want = [np.random.SeedSequence(r).generate_state(4, np.uint64) for r in rows]
        assert np.array_equal(_seed_words(rows), np.array(want))


def test_round_count_and_log_shape():
    seq = generate_synthetic_sequence(1, 2, 16, 50, 2)
    # 80 training rows over 4 agents: shards of 20, batches of 8 -> 3 rounds
    cfg = _config("ring", 4, epochs=2)
    result = run(cfg, seq)
    entry = result.ledger[0]
    assert entry.rounds == 6
    assert result.loss.shape == result.mu.shape == (6, 4)
    assert result.consensus_error.shape == (6,)
    assert np.all(result.mu == 1.0)  # task 1 is unconstrained


def test_debug_checks_pass_on_a_live_run():
    seq = generate_synthetic_sequence(2, 2, 16, 40, 4)
    run(_config("ring", 4, debug_checks=True), seq)
    run(_config("ring", 4, method="dewc", lam=10.0, debug_checks=True), seq)


def test_non_finite_training_data_stops_the_run_naming_the_agent():
    seq = generate_synthetic_sequence(2, 2, 16, 40, 4)
    seq[0].train_x[5, 3] = np.nan
    cfg = _config("ring", 4, epochs=1, method="naive")
    _, shards, _ = task_batches(seq[0], 4, cfg.seed, 0, cfg.epochs, cfg.batch_size)
    holder = next(i for i, s in enumerate(shards) if np.isnan(s.examples).any())
    want = rf"task 0, round \d+: agent {holder} has non-finite loss"
    with pytest.raises(NonFiniteError, match=want):
        run(cfg, seq)


def test_every_task_is_checked_before_the_first_round(monkeypatch):
    def no_round(*args, **kwargs):
        pytest.fail("a round ran before the whole task sequence was checked")

    monkeypatch.setattr(dccl.trainer, "local_step", no_round)
    seq = generate_synthetic_sequence(2, 2, 16, 40, 4)
    task = seq[1]
    cases = [
        (
            dict(train_x=task.train_x[:3], train_y=task.train_y[:3]),
            "task 1 has 3 training samples, fewer than 4 agents",
        ),
        (
            dict(test_x=task.test_x[:0], test_y=task.test_y[:0]),
            "task 1 has an empty test split",
        ),
        (
            dict(train_x=task.train_x[:, :8]),
            r"task 1 has train features of shape \(64, 8\), not \(rows, 16\)",
        ),
        (
            dict(test_x=task.test_x[:, :8]),
            r"task 1 has test features of shape \(16, 8\), not \(rows, 16\)",
        ),
        (dict(train_y=task.train_y + 5), r"task 1 has a train label outside 0\.\.1"),
        (dict(test_y=task.test_y + 5), r"task 1 has a test label outside 0\.\.1"),
    ]
    for fields, message in cases:
        seq[1] = dataclasses.replace(task, **fields)
        with pytest.raises(ValueError, match=message):
            run(_config("ring", 4), seq)


def test_stl_fills_only_the_diagonal():
    seq = generate_synthetic_sequence(3, 2, 16, 40, 8)
    result = run(_config("ring", 4, epochs=1, method="stl"), seq)
    for t in range(3):
        for i in range(t + 1):
            if i == t:
                assert not np.isnan(result.accuracy[t, i])
            else:
                assert np.isnan(result.accuracy[t, i])


def test_gpm_state_is_shared_and_grows(tmp_path):
    seq = generate_synthetic_sequence(2, 2, 16, 40, 6)
    result = run(_config("ring", 4), seq)
    assert result.gpm is not None
    assert all(r > 0 for r in result.gpm.ranks())
    for basis in result.gpm.layers:
        assert not basis.m.flags.writeable and not basis.o.flags.writeable
    naive = run(_config("ring", 4, method="naive"), seq)
    assert naive.gpm is None


@pytest.mark.parametrize("method, tasks", [("codec", 3), ("stl", 2)])
def test_no_array_of_an_earlier_task_lives_into_a_later_tasks_rounds(
    monkeypatch, method, tasks
):
    """Every unstacked model ``init_mlp`` makes, every stack a task's start
    replaces by its coefficients (``Mlp.factor``) and every stacked layer
    the training model no longer holds is freed before the next local step:
    no view, workspace or name of an earlier phase keeps a model-sized
    stack beside the task's own.  Only ``codec`` carries a memory."""
    refs = []  # (what, weak reference)
    held = set()  # the tasks that train a layer held as x0 + o c
    real_init, real_stacked = dccl.trainer.init_mlp, Mlp.stacked
    real_factor, real_step = Mlp.factor, dccl.trainer.local_step

    def init(*args, **kwargs):
        model = real_init(*args, **kwargs)
        refs.append(("an unstacked model", weakref.ref(model)))
        return model

    def stacked(self, n):
        model = real_stacked(self, n)
        for l, a in enumerate(model.layers):
            refs.append((f"stacked layer {l}", weakref.ref(a)))
        return model

    def factor(self, l, o):
        refs.append((f"layer {l}'s stack", weakref.ref(self.layers[l])))
        real_factor(self, l, o)

    def step(model, *args, **kwargs):
        training = {id(a) for a in model.layers}
        alive = [
            what for what, ref in refs if ref() is not None and id(ref()) not in training
        ]
        assert not alive, f"task {args[3]} trains beside {alive}"
        assert bool(args[0].layers) == (method == "codec")  # only codec has a memory
        if any(b is not None for b in model.bases):
            held.add(args[3])
        return real_step(model, *args, **kwargs)

    monkeypatch.setattr(dccl.trainer, "init_mlp", init)
    monkeypatch.setattr(Mlp, "stacked", stacked)
    monkeypatch.setattr(Mlp, "factor", factor)
    monkeypatch.setattr(dccl.trainer, "local_step", step)
    seq = generate_synthetic_sequence(tasks, 2, 16, 40, 8)
    run(_config("ring", 4, epochs=1, method=method), seq)
    assert held == ({1, 2} if method == "codec" else set())


def test_a_run_leaves_its_config_and_data_alone():
    """Every method, on two tasks: the config pickles to the same bytes and
    every array of the sequence holds the same values after the run."""
    seq = generate_synthetic_sequence(2, 2, 16, 40, 6)
    before = copy.deepcopy(seq)
    for method in ("codec", "dewc", "stl", "naive"):
        cfg = _config("ring", 4, epochs=1, method=method)
        pickled = pickle.dumps(cfg)
        run(cfg, seq)
        assert pickle.dumps(cfg) == pickled
        for data, want in zip(seq, before):
            for name in ("train_x", "train_y", "test_x", "test_y"):
                assert np.array_equal(getattr(data, name), getattr(want, name))
            assert data.classes == want.classes


def test_unknown_method_or_ewc_mode_rejected():
    """An unknown method is rejected when the config is made; a config
    takes no ``ewc_mode``, as ``dewc`` keeps one running Fisher state."""
    with pytest.raises(ValueError, match="unknown method 'codecs'"):
        _config("ring", 4, method="codecs")
    with pytest.raises(TypeError, match="ewc_mode"):
        _config("ring", 4, method="dewc", ewc_mode="online")


def test_library_config_is_held_to_the_cli_limits():
    """Every bound of a field is checked when the config is made."""
    with pytest.raises(ValueError, match="rep_samples must be at least 1, got 0"):
        _config("ring", 4, rep_samples=0)
    with pytest.raises(ValueError, match="lam must be non-negative and finite, got -5000.0"):
        _config("ring", 4, method="dewc", lam=-5000.0)
    with pytest.raises(ValueError, match="lam must be non-negative and finite, got nan"):
        _config("ring", 4, method="dewc", lam=float("nan"))
    with pytest.raises(ValueError, match="lam must be non-negative and finite, got inf"):
        _config("ring", 4, method="dewc", lam=float("inf"))
    for eta in (float("nan"), float("inf"), 0.0):
        with pytest.raises(
            ValueError, match=f"eta must be positive and finite, got {eta}"
        ):
            _config("ring", 4, eta=eta)
    for fields, message in (
        (dict(epochs=0), "epochs must be at least 1, got 0"),
        (dict(batch_size=0), "batch_size must be at least 1, got 0"),
        (dict(seed=-1), "seed must be non-negative, got -1"),
        (dict(dims=[16, 0, 16]), r"dims must list widths of at least 1, got \[16, 0, 16\]"),
    ):
        with pytest.raises(ValueError, match=message):
            _config("ring", 4, **fields)


def test_a_checked_config_is_frozen_and_has_no_defaults():
    """A config cannot change once checked, ``dims`` included, and every
    field is given: the CLI's schema is the only table of defaults."""
    cfg = _config("ring", 4, dims=[16, 32, 16])
    assert cfg.dims == (16, 32, 16)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.eta = -1.0
    assert [
        f.name
        for f in dataclasses.fields(TrainConfig)
        if f.default is not dataclasses.MISSING
        or f.default_factory is not dataclasses.MISSING
    ] == []


def test_library_thresholds_are_held_to_the_cli_limits():
    """A falling or infinite increment and a task-0 threshold outside
    (0, 1) are rejected when the config is made; a later task's threshold
    outside it, before training under every method, not only the projected
    ones."""
    for increment in (-0.01, float("nan")):
        with pytest.raises(ValueError, match="eps_increment must be non-negative"):
            _config("ring", 4, eps_increment=increment)
    # an infinite increment would make task 0's threshold 0.9 + inf * 0 = nan
    with pytest.raises(ValueError, match="^eps_increment must be .* finite, got inf$"):
        _config("ring", 4, eps_base=0.9, eps_increment=float("inf"))
    with pytest.raises(
        ValueError, match=r"^eps_base 1.5: threshold 1.5 for task 0 is outside \(0, 1\)$"
    ):
        _config("ring", 4, method="dewc", eps_base=1.5, eps_increment=0.0)
    rising = _config("ring", 4, method="dewc", eps_base=0.95, eps_increment=0.03)
    seq = generate_synthetic_sequence(3, 2, 16, 40, 6)
    with pytest.raises(
        ValueError,
        match=r"^eps_base 0.95 and eps_increment 0.03: threshold 1.01 for task 2 is outside",
    ):
        run(rising, seq)


def test_input_width_mismatch_rejected():
    seq = generate_synthetic_sequence(1, 2, 8, 40, 6)
    with pytest.raises(ValueError):
        run(_config("ring", 4), seq)


def test_a_run_holds_openblas_at_one_thread_and_restores_the_callers_count(
    monkeypatch,
):
    """With the caller at two OpenBLAS threads, a run evaluates at one and
    the count reads two again after it."""
    found = _openblas("get_num_threads", "set_num_threads")
    if found is None:
        pytest.skip("no OpenBLAS thread-count symbols in this process")
    get, put = found
    seen = []
    evaluate = dccl.trainer._evaluate

    def counted(*args):
        seen.append(get())
        evaluate(*args)

    monkeypatch.setattr(dccl.trainer, "_evaluate", counted)
    seq = generate_synthetic_sequence(2, 2, 16, 40, 6)
    before = get()
    put(2)
    try:
        run(_config("ring", 4, epochs=1), seq)
        assert get() == 2
    finally:
        put(before)
    assert seen == [1, 1]
