"""Diagonal Fisher estimation and the quadratic-anchor penalty."""

import copy
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from dccl.ewc import (
    FisherState,
    accumulate_fisher,
    ewc_grad,
    fisher_average,
    fisher_estimate,
)
from dccl.gpm import ThresholdSchedule
from dccl.metrics import compression_ratio
from dccl.model import flatten_params, init_mlp, loss_and_grad, sgd_step, unflatten_params
from dccl.tasks import TaskShard, generate_synthetic_sequence, shard_iid
from dccl.topology import parse_topology
from dccl.trainer import TrainConfig, run


def _model(seed=0, use_bias=False):
    rng = np.random.default_rng(seed)
    model = init_mlp([4, 6], rng, use_bias)
    model.add_head(0, 3, np.random.default_rng(seed + 1))
    return model


def _shard(seed=0, rows=6):
    rng = np.random.default_rng(seed)
    return TaskShard(
        examples=rng.standard_normal((rows, 4)),
        labels=rng.integers(0, 3, size=rows),
    )


def test_fisher_of_zero_inputs_is_exactly_zero():
    model = _model()
    shard = TaskShard(examples=np.zeros((5, 4)), labels=np.zeros(5, dtype=int))
    state = fisher_estimate(model, shard, 0)
    for f in state.f:
        assert np.all(f == 0.0)


def test_fisher_matches_per_sample_oracle():
    for use_bias in (False, True):
        model = _model(3, use_bias)
        shard = _shard(4, rows=7)
        state = fisher_estimate(model, shard, 0)
        # recompute: mean of squared per-sample trunk gradients
        trunk = model.layers + (model.layer_biases or [])
        sums = [np.zeros_like(w) for w in trunk]
        for i in range(7):
            _, grads = loss_and_grad(
                model, shard.examples[i : i + 1], shard.labels[i : i + 1], 0
            )
            for acc, g in zip(sums, grads.layers + (grads.layer_biases or [])):
                acc += g * g
        assert len(state.f) == len(trunk)
        for f, acc in zip(state.f, sums):
            assert np.max(np.abs(f - acc / 7.0)) <= 1e-12


def test_fisher_anchor_copies_current_trunk():
    model = _model(5)
    state = fisher_estimate(model, _shard(6), 0)
    for anchor, w in zip(state.anchor, model.layers):
        assert np.array_equal(anchor, w)
    model.layers[0][0, 0] += 1.0
    assert state.anchor[0][0, 0] != model.layers[0][0, 0]


def test_penalized_gradient_matches_finite_differences():
    model = _model(7)
    shard = _shard(8, rows=5)
    anchor_model = _model(9)
    fisher = FisherState(
        f=[np.abs(np.random.default_rng(10).standard_normal(w.shape)) for w in model.layers],
        anchor=[w.copy() for w in anchor_model.layers],
    )
    lam = 3.0

    def penalized_loss(flat):
        probe = copy.deepcopy(model)
        unflatten_params(probe, flat)
        loss, _ = loss_and_grad(probe, shard.examples, shard.labels, 0)
        for w, f, anchor in zip(probe.layers, fisher.f, fisher.anchor):
            loss += 0.5 * lam * float(np.sum(f * (w - anchor) ** 2))
        return loss

    _, grads = loss_and_grad(model, shard.examples, shard.labels, 0)
    grads = ewc_grad(model, grads, fisher, lam)
    probe = copy.deepcopy(model)
    unflatten_params(probe, np.zeros(flatten_params(probe).size))
    sgd_step(probe, grads, -1.0)
    analytic = flatten_params(probe)

    base = flatten_params(model)
    numeric = np.zeros_like(base)
    h = 1e-6
    for i in range(base.size):
        up = base.copy()
        up[i] += h
        down = base.copy()
        down[i] -= h
        numeric[i] = (penalized_loss(up) - penalized_loss(down)) / (2.0 * h)
    scale = max(1.0, float(np.max(np.abs(numeric))))
    assert np.max(np.abs(analytic - numeric)) <= 1e-6 * scale


def test_zero_lambda_or_missing_fisher_leaves_gradients_alone():
    model = _model(11)
    shard = _shard(12)
    _, grads = loss_and_grad(model, shard.examples, shard.labels, 0)
    layers_before = [g.copy() for g in grads.layers]
    out = ewc_grad(model, grads, None, 5.0)
    for a, b in zip(out.layers, layers_before):
        assert np.array_equal(a, b)
    fisher = fisher_estimate(model, shard, 0)
    out = ewc_grad(model, grads, fisher, 0.0)
    for a, b in zip(out.layers, layers_before):
        assert np.array_equal(a, b)


def test_fisher_average_is_elementwise_mean_with_chosen_anchor():
    a = FisherState(f=[np.full((2, 2), 2.0)], anchor=[np.full((2, 2), 1.0)])
    b = FisherState(f=[np.full((2, 2), 4.0)], anchor=[np.full((2, 2), 9.0)])
    avg = fisher_average([a, b])
    assert np.all(avg.f[0] == 3.0)
    assert np.all(avg.anchor[0] == 1.0)  # the first state's anchor
    with pytest.raises(ValueError):
        fisher_average([])


def test_penalty_is_added_in_place_into_the_same_gradients():
    model = _model(13, use_bias=True)
    shard = _shard(14)
    fisher = fisher_estimate(_model(15, use_bias=True), shard, 0)
    lam = 2.5
    _, grads = loss_and_grad(model, shard.examples, shard.labels, 0)
    trunk = [*grads.layers, *grads.layer_biases]
    params = [*model.layers, *model.layer_biases]
    want = [g + lam * f * (p - a) for g, p, f, a in zip(trunk, params, fisher.f, fisher.anchor)]
    head = grads.head.copy()
    out = ewc_grad(model, grads, fisher, lam)
    assert out is grads
    for slot, got, expected in zip(trunk, [*out.layers, *out.layer_biases], want):
        assert got is slot
        assert np.array_equal(got, expected)
    assert np.array_equal(out.head, head)


def test_fisher_states_are_read_only_and_shared():
    model = _model(16, use_bias=True)
    state = fisher_estimate(model, _shard(17), 0)
    for array in (*state.f, *state.anchor):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0
    with pytest.raises(FrozenInstanceError):
        state.f = []
    assert accumulate_fisher(None, state) is state
    other = fisher_estimate(model, _shard(18), 0)
    avg = fisher_average([state, other])
    assert avg.anchor is state.anchor
    running = accumulate_fisher(state, avg)
    assert running.anchor is avg.anchor
    for array in (*avg.f, *running.f):
        assert not array.flags.writeable


def test_accumulate_fisher_sums_and_rebases():
    a = FisherState(f=[np.full((2, 2), 2.0)], anchor=[np.full((2, 2), 1.0)])
    b = FisherState(f=[np.full((2, 2), 4.0)], anchor=[np.full((2, 2), 9.0)])
    running = accumulate_fisher(None, a)
    assert np.all(running.f[0] == 2.0)
    running = accumulate_fisher(running, b)
    assert np.all(running.f[0] == 6.0)
    assert np.all(running.anchor[0] == 9.0)


def _config(seed=3, **kw):
    defaults = dict(
        eta=0.1,
        epochs=2,
        batch_size=8,
        threshold=ThresholdSchedule(0.95, 0.003),
        topology=parse_topology("ring", 4),
        seed=seed,
        method="dewc",
        dims=[16, 32, 16],
        rep_samples=16,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


def test_zero_lambda_single_task_equals_naive():
    seq = generate_synthetic_sequence(1, 2, 16, 40, 3)
    dewc = run(_config(lam=0.0), seq)
    naive = run(_config(method="naive"), seq)
    assert np.max(np.abs(dewc.final_params - naive.final_params)) <= 1e-12


def test_dewc_sends_updates_uncompressed():
    seq = generate_synthetic_sequence(2, 2, 16, 40, 3)
    result = run(_config(lam=10.0), seq)
    for variant in ("pure_subspace", "all_inclusive"):
        assert compression_ratio(result.ledger, "overall", variant) == 1.0
        assert compression_ratio(result.ledger, "per_task", variant) == [1.0, 1.0]


def test_dewc_per_task_mode_runs():
    seq = generate_synthetic_sequence(2, 2, 16, 40, 3)
    online = run(_config(lam=10.0, ewc_mode="online"), seq)
    per_task = run(_config(lam=10.0, ewc_mode="per_task"), seq)
    # with a single past task the two bookkeeping modes coincide
    assert np.max(np.abs(online.final_params - per_task.final_params)) <= 1e-12
