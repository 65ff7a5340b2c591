"""Multi-head MLP forward/backward against finite differences."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import output_delta

from dccl.model import (
    _output_delta,
    backward,
    capture_representation,
    flatten_params,
    forward,
    init_mlp,
    loss_and_grad,
    param_arrays,
    task_params,
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
    model = init_mlp([4, 6, 5], _rng(1))
    model.add_head(0, 3, _rng(2))
    batch = _rng(3).standard_normal((3, 4))
    labels = np.array([0, 2, 1])
    _, grads = loss_and_grad(model, batch, labels, 0)
    analytic = np.concatenate([g.ravel() for g in grads])
    numeric = _fd_gradient(model, batch, labels, 0)
    scale = max(1.0, float(np.max(np.abs(numeric))))
    assert np.max(np.abs(analytic - numeric)) <= 1e-6 * scale


def test_loss_with_zero_weights_is_log_classes():
    model = init_mlp([4, 6], _rng(5))
    model.add_head(0, 7, _rng(6))
    unflatten_params(model, np.zeros(flatten_params(model).size))
    batch = _rng(7).standard_normal((5, 4))
    loss, _ = loss_and_grad(model, batch, np.zeros(5, dtype=int), 0)
    assert loss == pytest.approx(math.log(7.0), abs=1e-12)


def test_loss_stays_finite_for_a_large_logit_gap():
    # one identity layer and a head that puts the wrong class 1000 ahead:
    # log(softmax) would underflow to log(0); log-sum-exp gives the gap
    model = init_mlp([2, 2], _rng(5))
    model.add_head(0, 2, _rng(6))
    model.layers[0][...] = np.eye(2)
    model.heads[0][...] = [[1000.0, 0.0], [0.0, 0.0]]
    loss, grads = loss_and_grad(model, np.array([[1.0, 0.0]]), np.array([1]), 0)
    assert np.isfinite(loss)
    assert loss == pytest.approx(1000.0, rel=1e-12)
    assert all(np.all(np.isfinite(g)) for g in grads)


def test_forward_without_trunk_layers():
    model = init_mlp([6], _rng(8))
    model.add_head(0, 4, _rng(9))
    batch = _rng(10).standard_normal((3, 6))
    trace = forward(model, batch, 0)
    assert trace.logits.shape == (3, 4)
    want = batch @ model.heads[0]
    assert np.max(np.abs(trace.logits - want)) <= 1e-13


def test_capture_representation_first_layer_is_input_transpose():
    model = init_mlp([5, 8, 4], _rng(11))
    model.add_head(0, 2, _rng(12))
    samples = _rng(13).standard_normal((7, 5))
    reps = capture_representation(model, samples, 0)
    assert len(reps) == 2
    assert reps[0].shape == (5, 7)
    assert np.array_equal(reps[0], samples.T)
    assert reps[1].shape == (8, 7)


def test_flatten_round_trip_is_exact():
    model = init_mlp([4, 6, 3], _rng(14))
    model.add_head(0, 2, _rng(15))
    model.add_head(1, 2, _rng(16))
    flat = flatten_params(model)
    probe = copy.deepcopy(model)
    unflatten_params(probe, flat.copy())
    assert np.array_equal(flatten_params(probe), flat)


def test_unflatten_rejects_wrong_length():
    model = init_mlp([4, 6], _rng(17))
    model.add_head(0, 2, _rng(18))
    with pytest.raises(ValueError):
        unflatten_params(model, np.zeros(flatten_params(model).size + 1))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    dims=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    stack=st.sampled_from([(), (3,)]),
    heads=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_gradients_line_up_with_task_params(dims, stack, heads, seed):
    rng = np.random.default_rng(seed)
    model = init_mlp(dims, rng)
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
    n_trunk = len(dims) - 1
    assert len(params) == n_trunk + 1
    assert all(p is q for p, q in zip(params, model.layers))
    assert params[n_trunk] is model.heads[task]
    arrays = param_arrays(model)
    assert len(arrays) == n_trunk + heads
    assert all(p is model.heads[t] for t, p in enumerate(arrays[n_trunk:]))


def _softmax_oracle(logits, labels):
    """The mean loss and output delta by numpy's class-axis reductions."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-1, keepdims=True)
    picked = np.take_along_axis(shifted, labels[..., np.newaxis], axis=-1)[..., 0]
    loss = np.mean(np.log(total[..., 0]) - picked, axis=-1)
    return loss, e / total - (labels[..., np.newaxis] == np.arange(logits.shape[-1]))


@pytest.mark.parametrize("classes", range(2, 13))
@pytest.mark.parametrize("stack", [(), (7,)])
def test_the_class_axis_loops_are_numpys_reductions(classes, stack):
    """The loss and the output delta are the formulas of numpy's class-axis
    reductions bit for bit, on plain and stacked batches: below 8 classes
    the per-class loops sum left to right, as numpy does over so short an
    axis, and from 8 on numpy's pairwise sum runs.  They are also the
    boolean-mask form bit for bit: each label's entry picked by flat index
    and the mean taken as a sum over the batch, with labels at both ends of
    the class range.  The logits of a row span up to ~30, so its
    exponentials span up to 13 decades."""
    rng = _rng(100 + classes)
    model = init_mlp([4, 6], rng)
    if stack:
        model = model.stacked(stack[0])
    model.add_head(0, classes, rng)
    for p in param_arrays(model):
        p[...] = rng.standard_normal(p.shape)
    batch = rng.standard_normal((*stack, 33, 4))
    labels = rng.integers(0, classes, size=(*stack, 33))
    labels[..., 0], labels[..., -1] = 0, classes - 1
    trace, loss, d = _output_delta(model, batch, labels, 0, None)
    bits = lambda a: np.asarray(a).view(np.uint64)
    for want_loss, want_d in (
        _softmax_oracle(trace.logits, labels), output_delta(trace.logits, labels)
    ):
        assert type(loss) is type(want_loss)
        assert np.array_equal(bits(loss), bits(want_loss))
        assert np.array_equal(bits(d), bits(want_d))
    assert np.array_equal(backward(model, batch, labels, 0)[0], want_loss)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("classes", [2, 9])
def test_a_non_finite_logit_gives_a_non_finite_loss(bad, classes):
    """An inf or nan logit makes its model's loss non-finite, and only
    its model's, so a run stops naming the agent
    (``test_non_finite_training_data_stops_the_run_naming_the_agent``)."""
    model = init_mlp([3, 4], _rng(40)).stacked(3)
    model.add_head(0, classes, _rng(41))
    model.heads[0][1, :, 1] = bad
    batch = _rng(42).standard_normal((3, 5, 3))
    labels = np.zeros((3, 5), dtype=int)
    with np.errstate(invalid="ignore"):  # inf - inf, as in a diverging run
        loss, _ = loss_and_grad(model, batch, labels, 0)
    assert np.isfinite(loss).tolist() == [True, False, True]


def test_a_held_layer_keeps_contiguous_transposes():
    """``factor`` keeps C-contiguous copies of ``x0^T`` and ``o^T``, also
    for a column slice ``o`` and one of width 0; views and stacks carry
    them, and ``fold`` drops them."""
    rng = _rng(50)
    model = init_mlp([5, 7, 4], rng).stacked(3)
    q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
    x0 = model.layers[1][0].copy()
    for l, o in ((1, q[:, 2:]), (0, np.zeros((5, 0)))):
        model.factor(l, o)
        base = model.bases[l]
        assert base.o is o
        for t, a in ((base.x0_t, base.x0), (base.o_t, o)):
            assert t.flags.c_contiguous and np.array_equal(t, a.T)
    assert np.array_equal(model.bases[1].x0, x0)
    assert model.view(2).bases == model.bases
    assert model.view(0).stacked(2).bases == model.bases
    model.fold()
    assert model.bases == [None, None]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    dims=st.lists(st.integers(1, 6), min_size=5, max_size=5),
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_factored_backward_is_the_folded_plain_one(dims, n, seed):
    """A stack whose 4-layer trunk is held over random memories (empty,
    partial or saturated, with ``o`` of width 0), each model at its own
    coefficients ``c``, gives the loss, the layer deltas and the gradients
    of each model folded plain to 1e-12 of their largest magnitude: a held
    layer's ``(X o)^T dz`` is ``o^T`` times the plain ``X^T dz``."""
    rng = np.random.default_rng(seed)
    model = init_mlp(dims, rng)
    model.add_head(0, 3, rng)
    for p in param_arrays(model):
        p[...] = rng.standard_normal(p.shape)
    held = model.stacked(n)
    for l, width in enumerate(dims[:-1]):
        rank = int(rng.integers(0, width + 1))
        if rank:
            q, _ = np.linalg.qr(rng.standard_normal((width, width)))
            held.factor(l, q[:, rank:])
            held.layers[l][...] = rng.standard_normal(held.layers[l].shape)
    batch = rng.standard_normal((n, 5, dims[0]))
    labels = rng.integers(0, 3, size=(n, 5))
    loss, trace, dzs, head = backward(held, batch, labels, 0)
    for i in range(n):
        plain = copy.deepcopy(held.view(i))
        plain.fold()
        want_loss, want = loss_and_grad(plain, batch[i], labels[i], 0)
        _, _, want_dzs, _ = backward(plain, batch[i], labels[i], 0)
        assert abs(loss[i] - want_loss) <= 1e-12 * max(1.0, abs(want_loss))
        got = [x[i].T @ dz[i] for x, dz in zip(trace.coords, dzs)] + [head[i]]
        for l, base in enumerate(held.bases):
            got_dz, want_dz = dzs[l][i], want_dzs[l]
            assert np.max(np.abs(got_dz - want_dz)) <= 1e-12 * np.max(np.abs(want_dz))
            if base is not None:
                got[l] = base.o @ got[l]  # the span(o) part of the plain gradient
                want[l] = base.o @ (base.o.T @ want[l])
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w), initial=0.0) <= 1e-12 * np.max(
                np.abs(w), initial=0.0
            )


def test_init_is_deterministic_and_bounded():
    a = init_mlp([6, 10, 4], _rng(23))
    b = init_mlp([6, 10, 4], _rng(23))
    for wa, wb in zip(a.layers, b.layers):
        assert np.array_equal(wa, wb)
    bound = math.sqrt(6.0 / (6 + 10))
    assert np.max(np.abs(a.layers[0])) <= bound


def test_add_head_twice_rejected():
    model = init_mlp([4, 6], _rng(24))
    model.add_head(0, 2, _rng(25))
    with pytest.raises(ValueError):
        model.add_head(0, 2, _rng(26))


def test_forward_missing_head_rejected():
    model = init_mlp([4, 6], _rng(27))
    with pytest.raises(ValueError):
        forward(model, np.zeros((1, 4)), 3)


def test_loss_rejects_empty_batch_and_bad_labels():
    model = init_mlp([4, 6], _rng(28))
    model.add_head(0, 2, _rng(29))
    with pytest.raises(ValueError):
        loss_and_grad(model, np.zeros((0, 4)), np.zeros(0, dtype=int), 0)
    with pytest.raises(ValueError):
        loss_and_grad(model, np.zeros((2, 4)), np.array([0, 2]), 0)


def test_forward_rejects_wrong_width():
    model = init_mlp([4, 6], _rng(30))
    model.add_head(0, 2, _rng(31))
    with pytest.raises(ValueError):
        forward(model, np.zeros((2, 5)), 0)

