"""Multi-head MLP forward/backward against finite differences."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dccl.model import (
    capture_representation,
    flatten_params,
    forward,
    init_mlp,
    loss_and_grad,
    param_arrays,
    sgd_step,
    task_params,
    trunk_params,
    unflatten_params,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


def _loss_of_flat(model, flat, batch, labels, task):
    probe = copy.deepcopy(model)
    unflatten_params(probe, flat)
    loss, _ = loss_and_grad(probe, batch, labels, task)
    return loss


def _fd_gradient(model, batch, labels, task, h=1e-6):
    base = flatten_params(model)
    grad = np.zeros_like(base)
    for i in range(base.size):
        up = base.copy()
        up[i] += h
        down = base.copy()
        down[i] -= h
        grad[i] = (
            _loss_of_flat(model, up, batch, labels, task)
            - _loss_of_flat(model, down, batch, labels, task)
        ) / (2.0 * h)
    return grad


def test_gradients_match_finite_differences():
    for use_bias in (False, True):
        model = init_mlp([4, 6, 5], _rng(1), use_bias)
        model.add_head(0, 3, _rng(2))
        batch = _rng(3).standard_normal((3, 4))
        labels = np.array([0, 2, 1])
        _, grads = loss_and_grad(model, batch, labels, 0)
        analytic = np.concatenate([g.ravel() for g in grads])
        numeric = _fd_gradient(model, batch, labels, 0)
        scale = max(1.0, float(np.max(np.abs(numeric))))
        assert np.max(np.abs(analytic - numeric)) <= 1e-6 * scale


def test_loss_with_zero_weights_is_log_classes():
    model = init_mlp([4, 6], _rng(5), False)
    model.add_head(0, 7, _rng(6))
    unflatten_params(model, np.zeros(flatten_params(model).size))
    batch = _rng(7).standard_normal((5, 4))
    loss, _ = loss_and_grad(model, batch, np.zeros(5, dtype=int), 0)
    assert loss == pytest.approx(math.log(7.0), abs=1e-12)


def test_loss_stays_finite_for_a_large_logit_gap():
    # one identity layer and a head that puts the wrong class 1000 ahead:
    # log(softmax) would underflow to log(0); log-sum-exp gives the gap
    model = init_mlp([2, 2], _rng(5), False)
    model.add_head(0, 2, _rng(6))
    model.layers[0][...] = np.eye(2)
    model.heads[0][...] = [[1000.0, 0.0], [0.0, 0.0]]
    loss, grads = loss_and_grad(model, np.array([[1.0, 0.0]]), np.array([1]), 0)
    assert np.isfinite(loss)
    assert loss == pytest.approx(1000.0, rel=1e-12)
    assert all(np.all(np.isfinite(g)) for g in grads)


def test_forward_without_trunk_layers():
    model = init_mlp([6], _rng(8), False)
    model.add_head(0, 4, _rng(9))
    batch = _rng(10).standard_normal((3, 6))
    trace = forward(model, batch, 0)
    assert trace.logits.shape == (3, 4)
    want = batch @ model.heads[0]
    assert np.max(np.abs(trace.logits - want)) <= 1e-13


def test_capture_representation_first_layer_is_input_transpose():
    model = init_mlp([5, 8, 4], _rng(11), False)
    model.add_head(0, 2, _rng(12))
    samples = _rng(13).standard_normal((7, 5))
    reps = capture_representation(model, samples, 0)
    assert len(reps) == 2
    assert reps[0].shape == (5, 7)
    assert np.array_equal(reps[0], samples.T)
    assert reps[1].shape == (8, 7)


def test_flatten_round_trip_is_exact():
    model = init_mlp([4, 6, 3], _rng(14), True)
    model.add_head(0, 2, _rng(15))
    model.add_head(1, 2, _rng(16))
    flat = flatten_params(model)
    probe = copy.deepcopy(model)
    unflatten_params(probe, flat.copy())
    assert np.array_equal(flatten_params(probe), flat)


def test_unflatten_rejects_wrong_length():
    model = init_mlp([4, 6], _rng(17), False)
    model.add_head(0, 2, _rng(18))
    with pytest.raises(ValueError):
        unflatten_params(model, np.zeros(flatten_params(model).size + 1))


def test_sgd_step_touches_only_current_task_head():
    model = init_mlp([4, 6], _rng(19), False)
    model.add_head(0, 3, _rng(20))
    model.add_head(1, 3, _rng(21))
    before = model.heads[0].copy()
    batch = _rng(22).standard_normal((4, 4))
    _, grads = loss_and_grad(model, batch, np.array([0, 1, 2, 0]), 1)
    sgd_step(model, 1, grads, 0.5)
    assert np.array_equal(model.heads[0], before)
    assert not np.array_equal(
        model.heads[1], init_mlp([4, 6], _rng(19), False).layers[0][:3, :3]
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    dims=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    use_bias=st.booleans(),
    stack=st.sampled_from([(), (3,)]),
    heads=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_gradients_line_up_with_task_params_and_spare_other_heads(
    dims, use_bias, stack, heads, seed
):
    rng = np.random.default_rng(seed)
    model = init_mlp(dims, rng, use_bias)
    if stack:
        model = model.stacked(stack[0])
    for t in range(heads):
        model.add_head(t, int(rng.integers(2, 4)), rng)
    for p in param_arrays(model):
        p[...] = rng.standard_normal(p.shape)
    task = int(rng.integers(0, heads))
    classes = model.heads[task].shape[-1]
    batch = rng.standard_normal((*stack, 4, dims[0]))
    labels = rng.integers(0, classes, size=(*stack, 4))
    _, grads = loss_and_grad(model, batch, labels, task)
    params = task_params(model, task)
    assert [g.shape for g in grads] == [p.shape for p in params]
    n_trunk = 2 * (len(dims) - 1) if use_bias else len(dims) - 1
    assert len(trunk_params(model)) == n_trunk
    assert all(p is q for p, q in zip(params, trunk_params(model)))
    assert params[n_trunk] is model.heads[task]
    assert len(param_arrays(model)) == n_trunk + heads * (len(params) - n_trunk)
    others = {
        t: [h.copy() for h in task_params(model, t)[n_trunk:]]
        for t in range(heads)
        if t != task
    }
    want = [p - 0.5 * g for p, g in zip(params, grads)]
    sgd_step(model, task, grads, 0.5)
    for got, expected in zip(task_params(model, task), want):
        assert np.array_equal(got, expected)
    for t, before in others.items():
        for got, kept in zip(task_params(model, t)[n_trunk:], before):
            assert np.array_equal(got, kept)


def test_init_is_deterministic_and_bounded():
    a = init_mlp([6, 10, 4], _rng(23), False)
    b = init_mlp([6, 10, 4], _rng(23), False)
    for wa, wb in zip(a.layers, b.layers):
        assert np.array_equal(wa, wb)
    bound = math.sqrt(6.0 / (6 + 10))
    assert np.max(np.abs(a.layers[0])) <= bound


def test_add_head_twice_rejected():
    model = init_mlp([4, 6], _rng(24), False)
    model.add_head(0, 2, _rng(25))
    with pytest.raises(ValueError):
        model.add_head(0, 2, _rng(26))


def test_forward_missing_head_rejected():
    model = init_mlp([4, 6], _rng(27), False)
    with pytest.raises(ValueError):
        forward(model, np.zeros((1, 4)), 3)


def test_loss_rejects_empty_batch_and_bad_labels():
    model = init_mlp([4, 6], _rng(28), False)
    model.add_head(0, 2, _rng(29))
    with pytest.raises(ValueError):
        loss_and_grad(model, np.zeros((0, 4)), np.zeros(0, dtype=int), 0)
    with pytest.raises(ValueError):
        loss_and_grad(model, np.zeros((2, 4)), np.array([0, 2]), 0)


def test_forward_rejects_wrong_width():
    model = init_mlp([4, 6], _rng(30), False)
    model.add_head(0, 2, _rng(31))
    with pytest.raises(ValueError):
        forward(model, np.zeros((2, 5)), 0)

