"""Diagonal Fisher estimation and the quadratic-anchor penalty."""

import copy
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from dccl.ewc import (
    FisherState,
    accumulate_fisher,
    ewc_grad,
    fisher_estimate,
    fisher_mean,
)
from dccl.gpm import GpmState, ThresholdSchedule
from dccl.metrics import compression
from dccl.model import flatten_params, init_mlp, loss_and_grad, unflatten_params
from dccl.tasks import TaskShard, generate_synthetic_sequence
from dccl.topology import parse_topology
from dccl.trainer import Agents, TrainConfig, _boundary, run


def _model(seed=0):
    rng = np.random.default_rng(seed)
    model = init_mlp([4, 6], rng)
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
    model = _model(3)
    shard = _shard(4, rows=7)
    state = fisher_estimate(model, shard, 0)
    # recompute: mean of squared per-sample trunk gradients
    sums = [np.zeros_like(w) for w in model.layers]
    for i in range(7):
        _, grads = loss_and_grad(
            model, shard.examples[i : i + 1], shard.labels[i : i + 1], 0
        )
        for acc, g in zip(sums, grads):  # the trunk leads the gradient list
            acc += g * g
    assert len(state.f) == len(model.layers)
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
    rng = np.random.default_rng(10)
    fisher = FisherState(
        f=[np.abs(rng.standard_normal(p.shape)) for p in model.layers],
        anchor=[rng.standard_normal(p.shape) for p in model.layers],
    )
    lam = 3.0

    def penalized_loss(flat):
        probe = copy.deepcopy(model)
        unflatten_params(probe, flat)
        loss, _ = loss_and_grad(probe, shard.examples, shard.labels, 0)
        for p, f, anchor in zip(probe.layers, fisher.f, fisher.anchor):
            loss += 0.5 * lam * float(np.sum(f * (p - anchor) ** 2))
        return loss

    _, grads = loss_and_grad(model, shard.examples, shard.labels, 0)
    grads = ewc_grad(model, grads, fisher, lam)
    analytic = np.concatenate([g.ravel() for g in grads])

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
    before = [g.copy() for g in grads]
    fisher = fisher_estimate(model, shard, 0)
    # a Fisher of zeros carries no information, so it adds no penalty
    blank = FisherState(f=[np.zeros_like(f) for f in fisher.f], anchor=fisher.anchor)
    out = ewc_grad(model, grads, blank, 5.0)
    for a, b in zip(out, before):
        assert np.array_equal(a, b)
    out = ewc_grad(model, grads, fisher, 0.0)
    for a, b in zip(out, before):
        assert np.array_equal(a, b)


def test_penalty_is_added_in_place_into_the_same_gradients():
    model = _model(13)
    shard = _shard(14)
    fisher = fisher_estimate(_model(15), shard, 0)
    lam = 2.5
    _, grads = loss_and_grad(model, shard.examples, shard.labels, 0)
    slots = list(grads)
    n_trunk = len(model.layers)
    want = [
        g + lam * f * (p - a)
        for g, p, f, a in zip(grads, model.layers, fisher.f, fisher.anchor)
    ]
    heads = [g.copy() for g in grads[n_trunk:]]
    out = ewc_grad(model, grads, fisher, lam)
    assert out is grads
    for slot, got, expected in zip(slots, out, want):
        assert got is slot
        assert np.array_equal(got, expected)
    for got, expected in zip(out[n_trunk:], heads):
        assert np.array_equal(got, expected)


def test_fisher_states_are_read_only_and_shared():
    model = _model(16)
    state = fisher_estimate(model, _shard(17), 0)
    for array in (*state.f, *state.anchor):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0
    with pytest.raises(FrozenInstanceError):
        state.f = []
    assert accumulate_fisher(None, state) is state
    other = fisher_estimate(model, _shard(18), 0)
    running = accumulate_fisher(state, other)
    assert running.anchor is other.anchor
    for array in running.f:
        assert not array.flags.writeable


def test_the_pooled_fisher_phase_is_the_mean_of_the_agents_fishers():
    """At a dewc boundary, one pass over 7 agents' pooled shards of 3 to 9
    rows, each row weighted by 1 / (7 n_i), gives the mean of the agents'
    own Fishers: to 1e-12 of the largest entry, accumulated onto an earlier
    state, and anchored at the synced model's trunk."""
    rng = np.random.default_rng(19)
    model, other = (init_mlp([4, 6, 5], rng) for _ in range(2))
    for m in (model, other):
        m.add_head(0, 3, rng)
    shards = [_shard(20 + i, rows=3 + i) for i in range(7)]
    earlier = fisher_estimate(other, _shard(27), 0)
    agents = Agents(model=model.stacked(7), memory=GpmState.fresh([]), fisher=earlier)
    pool = TaskShard(
        examples=np.concatenate([s.examples for s in shards]),
        labels=np.concatenate([s.labels for s in shards]),
    )
    _boundary(agents, _config(), 0, pool, shards, np.random.default_rng(0))
    # the agents' mean, as reference_run takes it: agent 0's anchor
    stack = agents.model  # every agent holds the synced model
    states = [fisher_estimate(stack.view(i), s, 0) for i, s in enumerate(shards)]
    f = [np.mean(parts, axis=0) for parts in zip(*(s.f for s in states))]
    want = accumulate_fisher(earlier, FisherState(f=f, anchor=states[0].anchor))
    got = agents.fisher
    assert len(got.f) == len(want.f) == 2  # two layers
    for a, b in zip(got.f, want.f):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
    assert all(map(np.array_equal, got.anchor, want.anchor))
    with pytest.raises(ValueError, match="empty shard"):
        fisher_mean(model, shards[0], [len(shards[0]), 0], 0)


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


def test_a_zero_lambda_dewc_run_is_the_naive_run_bit_for_bit():
    """Without a penalty to step, a two-task dewc run takes naive's unpenalised
    rounds: every loss, consensus error and parameter is bitwise naive's."""
    seq = generate_synthetic_sequence(2, 2, 16, 40, 3)
    dewc = run(_config(lam=0.0), seq)
    naive = run(_config(method="naive"), seq)
    assert np.array_equal(dewc.loss, naive.loss)
    assert np.array_equal(dewc.consensus_error, naive.consensus_error)
    assert np.array_equal(dewc.final_params, naive.final_params)


def test_dewc_sends_updates_uncompressed():
    seq = generate_synthetic_sequence(2, 2, 16, 40, 3)
    result = run(_config(lam=10.0), seq)
    for variant in ("pure_subspace", "all_inclusive"):
        want = {"overall": 1.0, "per_task": [1.0, 1.0]}
        assert compression(result.ledger)[variant] == want


def test_dewc_without_a_hidden_layer_finishes():
    # dims [16]: the head reads the input, so no trunk layer has a Fisher diagonal
    seq = generate_synthetic_sequence(2, 2, 16, 40, 3)
    result = run(_config(dims=[16]), seq)
    assert not np.isnan(result.accuracy[np.tril_indices(2)]).any()
