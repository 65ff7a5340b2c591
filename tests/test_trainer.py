"""Round mechanics, consensus behavior, lossless compression, determinism."""

import copy
import dataclasses
import pickle
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dccl.ewc import FisherState, ewc_grad, implicit_rows
from dccl.gpm import GpmState, LayerBasis, ThresholdSchedule, project
from dccl.model import (
    Mlp,
    flatten_params,
    init_mlp,
    loss_and_grad,
    task_params,
    unflatten_params,
)
from dccl.tasks import (
    TAG_BATCH,
    TAG_SHARD,
    _batches,
    _derive_int,
    _entropy,
    _seed_words,
    derive_rng,
    generate_synthetic_sequence,
    shard_iid,
)
from dccl.topology import build_mixing, parse_topology
import dccl.trainer
from dccl.trainer import (
    Agents,
    NonFiniteError,
    Outer,
    TrainConfig,
    fanout,
    gossip_round,
    local_step,
    reset_aggregates,
    run,
    _BLOCK,
    _ROW_BUFSIZE,
    _bounds,
    _openblas_threads,
    _step,
)
from reference import consensus_error, reference_round

DIMS = [6, 10, 4]


def _make_agents(n, seed=0, identical=False, dims=DIMS, classes=3):
    models = []
    for i in range(n):
        rng = derive_rng(seed, 1, 0 if identical else i)
        model = init_mlp(dims, rng)
        model.add_head(0, classes, derive_rng(seed, 2, 0 if identical else i))
        models.append(model)
    stacked = models[0].stacked(n)
    for i, model in enumerate(models):
        unflatten_params(stacked.view(i), flatten_params(model))
    return Agents(model=stacked, memory=GpmState.fresh(dims[:-1]))


def _flats(agents):
    return [flatten_params(agents.model.view(i)) for i in range(agents.model.lead[0])]


def _zero_steps(agents):
    """Gradients for a round with no local step."""
    return [np.zeros_like(x) for x in task_params(agents.model, 0)]


def _own_aggregates(agents):
    agents.aggregates = [x.copy() for x in task_params(agents.model, 0)]


def _config(topology, agents, seed=7, method="codec", dims=None, **kw):
    defaults = dict(
        eta=0.1,
        epochs=2,
        batch_size=8,
        threshold=ThresholdSchedule(0.95, 0.003),
        topology=parse_topology(topology, agents),
        seed=seed,
        method=method,
        dims=dims or [16, 32, 16],
        rep_samples=16,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


def test_identical_agents_are_a_fixed_point():
    mixing = build_mixing(parse_topology("ring", 4))
    agents = _make_agents(4, identical=True)
    _own_aggregates(agents)
    before = _flats(agents)
    for _ in range(5):
        gossip_round(agents, mixing, 0, _zero_steps(agents), 0.1, debug=True)
    for got, b in zip(_flats(agents), before):
        assert np.array_equal(got, b)
    assert consensus_error(agents.model) == 0.0


def test_one_full_graph_round_reaches_the_mean():
    mixing = build_mixing(parse_topology("full", 3))
    agents = _make_agents(3)
    reset_aggregates(agents, mixing, 0)
    mean = np.mean(_flats(agents), axis=0)
    gossip_round(agents, mixing, 0, _zero_steps(agents), 0.1, debug=True)
    for got in _flats(agents):
        assert np.max(np.abs(got - mean)) <= 1e-12


def test_zero_gradient_ring_gossip_reaches_consensus_monotonically():
    mixing = build_mixing(parse_topology("ring", 8))
    agents = _make_agents(8)
    reset_aggregates(agents, mixing, 0)
    history = [consensus_error(agents.model)]
    for r in range(200):
        gossip_round(agents, mixing, 0, _zero_steps(agents), 0.1, debug=(r % 40 == 0))
        history.append(consensus_error(agents.model))
    assert history[-1] < 1e-12
    assert all(b <= a for a, b in zip(history, history[1:]))


def _blocked_round_inputs(spec, n, dims, seed=3):
    """Agents at random distinct states, with aggregates off their tracked
    values and random gradients, on a ``dims`` model with a 3-class head."""
    rng = np.random.default_rng(seed)
    model = init_mlp(dims, rng).stacked(n)
    model.add_head(0, 3, rng)
    for x in task_params(model, 0):
        x += rng.standard_normal(x.shape)
    aggs = [x + 0.1 * rng.standard_normal(x.shape) for x in task_params(model, 0)]
    grads = [rng.standard_normal(x.shape) for x in task_params(model, 0)]
    agents = Agents(model=model, memory=GpmState.fresh(dims[:-1]), aggregates=aggs)
    return agents, build_mixing(parse_topology(spec, n)), grads


@pytest.mark.parametrize(
    "spec, n, dims", [("torus:4x4", 16, [64, 256, 129]), ("ring", 64, [16, 100, 33])]
)
def test_the_blocked_round_is_the_whole_array_round(spec, n, dims):
    """The round swept in column blocks moves every array and aggregate bit
    for bit as ``d = -eta g; q = (a - x) + d; x += q; a += W q`` on whole
    arrays do: at N = 16 in blocks of 4,096 columns, where 256 x 129 ends in
    a ragged block of 256, and at N = 64 in blocks of 1,024.  Its consensus
    error is the two-pass one up to summation order."""
    agents, mixing, grads = _blocked_round_inputs(spec, n, dims)
    arrays = task_params(agents.model, 0)
    block = _BLOCK // n
    assert any(x[0].size > block and x[0].size % block for x in arrays)
    want_x = [x.copy() for x in arrays]
    want_aggs = [a.copy() for a in agents.aggregates]
    for x, g, a in zip(want_x, grads, want_aggs):
        q = (a - x) + -0.3 * g
        x += q
        a += (mixing @ q.reshape(n, -1)).reshape(a.shape)
    ce = gossip_round(agents, mixing, 0, grads, 0.3)
    for got, want in zip(arrays + agents.aggregates, want_x + want_aggs):
        assert np.array_equal(got, want)
    want_ce = consensus_error(agents.model)
    assert abs(ce - want_ce) <= 4e-16 * want_ce


@pytest.mark.parametrize("penalised", [False, True])
@pytest.mark.parametrize(
    "spec, n, dims",
    [
        ("torus:4x4", 16, [64, 256, 129]),
        ("ring", 64, [16, 100, 33]),
        ("torus:2x3", 6, [256, 128, 3]),
    ],
)
def test_a_round_fed_factor_pairs_is_the_round_fed_their_products(
    spec, n, dims, penalised
):
    """A round given each trunk gradient as its factor pair ``(coords,
    dz)`` moves every array and aggregate bit for bit as a round given the
    whole products does, with or without a ``dewc`` penalty, though it
    forms the pairs a block of whole rows at a time: at N = 16 in blocks of
    8 rows of 256 and 15 rows of 129, whose 1-row tail is folded into a
    16-row last block, at N = 64 in blocks of 5 rows of 100 (a 1-row tail
    again) and 15 of 33, and at N = 6 in blocks of 42 rows of 128 and a
    4-row tail.  It sums the squared deviations in the whole gradients'
    column blocks, so its consensus error is theirs bit for bit too.  This
    holds at these shapes, not at every one (see ``gossip_round``): at N =
    12 on the full graph with 64-256-128 layers and batches of 16, layer
    0's aggregate differs, as the whole sweep's last block is 1 column
    wide there."""
    agents, mixing, grads = _blocked_round_inputs(spec, n, dims)
    rng = np.random.default_rng(6)
    pairs = [
        Outer(rng.standard_normal((n, 8, k)), rng.standard_normal((n, 8, n_out)))
        for k, n_out in zip(dims, dims[1:])
    ]
    cuts = [_bounds(p, _BLOCK // n) for p in pairs]
    # a 1-row tail goes into the block before it, which is then the widest
    assert any(b[-1] - b[-2] > b[1] - b[0] for b in cuts) == (n != 6)
    whole = copy.deepcopy(agents)
    penalty = None
    if penalised:
        penalty = implicit_rows(_penalty_state(rng, agents.model), 50.0, 0.3)
    rest = grads[len(pairs) :]
    products = [np.asarray(p) for p in pairs] + [g.copy() for g in rest]
    want_ce = gossip_round(whole, mixing, 0, products, 0.3, penalty=penalty)
    ce = gossip_round(agents, mixing, 0, pairs + rest, 0.3, penalty=penalty)
    got = task_params(agents.model, 0) + agents.aggregates
    want = task_params(whole.model, 0) + whole.aggregates
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    assert ce == want_ce


def test_a_non_finite_step_stops_the_round_before_its_block_mixes():
    """Agent 7's nan in the first block of layer 0 stops the sweep there,
    with nothing moved, and the error names agent 2, whose inf in a later
    block of layer 1 comes first by agent."""
    agents, mixing, grads = _blocked_round_inputs("torus:4x4", 16, [64, 256, 129])
    grads[0][7, 0, 5] = np.nan
    grads[1][2, 200, 100] = np.inf  # column 25,900: block 6 of 9
    before = [x.copy() for x in task_params(agents.model, 0) + agents.aggregates]
    with pytest.raises(NonFiniteError, match="^agent 2 has non-finite step$"):
        gossip_round(agents, mixing, 0, grads, 0.3)
    for got, want in zip(task_params(agents.model, 0) + agents.aggregates, before):
        assert np.array_equal(got, want)


def _penalty_state(rng, model):
    """A Fisher state over a stacked model's trunk, with diagonals up to 40
    and anchors away from agent 0's trunk."""
    trunk = [p[0] for p in model.layers]
    return FisherState(
        f=[40.0 * rng.random(p.shape) for p in trunk],
        anchor=[p + rng.standard_normal(p.shape) for p in trunk],
    )


def test_a_penalised_round_is_the_round_of_the_explicit_formula_step():
    """A round given the gradients and the rows of ``implicit_rows`` moves
    every array and aggregate as a round given the implicit step built from
    the ``ewc_grad`` oracle, ``-eta (g + pen) / (1 + eta lam F)`` on the
    trunk and ``-eta g`` on the head, does: to 1e-12 of the largest
    magnitude, consensus error included, for layers swept in several
    column blocks and a ragged last one, in two rounds at two step sizes."""
    rng = np.random.default_rng(11)
    dims, n, lam = [64, 256, 129], 16, 50.0
    mixing = build_mixing(parse_topology("torus:4x4", n))
    model = init_mlp(dims, rng).stacked(n)
    model.add_head(0, 3, rng)
    for x in task_params(model, 0):
        x += 0.1 * rng.standard_normal(x.shape)
    state = _penalty_state(rng, model)
    fused = Agents(model=model, memory=GpmState.fresh(dims[:-1]))
    reset_aggregates(fused, mixing, 0)
    oracle = copy.deepcopy(fused)
    n_trunk = len(model.layers)
    for eta in (0.1, 0.01):
        grads = [rng.standard_normal(x.shape) for x in task_params(model, 0)]
        pen = ewc_grad(oracle.model, [g.copy() for g in grads], state, lam)
        steps = [-eta * g for g in pen]
        for j in range(n_trunk):
            steps[j] /= 1.0 + eta * lam * state.f[j]
        rows = implicit_rows(state, lam, eta)
        ce = gossip_round(fused, mixing, 0, grads, eta, penalty=rows, debug=True)
        want_ce = gossip_round(oracle, mixing, 0, [-d for d in steps], 1.0)
        assert abs(ce - want_ce) <= 1e-12 * want_ce
        got = task_params(fused.model, 0) + fused.aggregates
        want = task_params(oracle.model, 0) + oracle.aggregates
        for a, b in zip(got, want):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


@pytest.mark.parametrize("bufsize", [_ROW_BUFSIZE, 8192])  # numpy's default
def test_the_penalised_step_sums_in_one_order_bit_for_bit(bufsize):
    """On strided column blocks of ``(N, cols)`` gradients and parameters,
    with ``implicit_rows`` broadcast over the agents, ``_step`` is exactly
    ``((g * -alpha) + (x * -beta)) + gamma``, the order a ``dewc`` run's
    report bytes rest on, under a round's ufunc buffer and numpy's default;
    without rows it is exactly ``g * -eta``."""
    rng = np.random.default_rng(21)
    n, shape, eta = 16, (64, 40), 0.05
    state = FisherState(
        f=[rng.random(shape) * 10.0 ** rng.integers(-3, 3, shape)],
        anchor=[rng.standard_normal(shape)],
    )
    rows = implicit_rows(state, 50.0, eta)[0]
    x_all = rng.standard_normal((n, rows[0].size))
    g_all = 1e3 * rng.standard_normal((n, rows[0].size))
    old = np.setbufsize(bufsize)
    try:
        for s, e in [(0, 1024), (1024, 2559), (2559, 2560)]:
            g, x = g_all[:, s:e], x_all[:, s:e]
            neg_alpha, neg_beta, gamma = (r[s:e] for r in rows)
            want = ((g * neg_alpha) + (x * neg_beta)) + gamma
            out = np.empty(g.shape)
            got = _step(g.copy(), x, [neg_alpha, neg_beta, gamma], eta, out)
            assert got is out
            assert np.array_equal(got, want)
            plain = _step(g, x, None, eta, np.empty(g.shape))
            assert np.array_equal(plain, g * -eta)
    finally:
        np.setbufsize(old)


def test_a_non_finite_penalised_step_names_its_agent():
    """A nan gradient in the last block of a penalised layer stops the round
    before that block mixes; the error names the first agent with a
    non-finite step in that block or any later one: agent 2, whose head
    gradient is infinite, before agent 4 with the nan."""
    rng = np.random.default_rng(12)
    agents, mixing, grads = _blocked_round_inputs("torus:4x4", 16, [64, 256, 129])
    rows = implicit_rows(_penalty_state(rng, agents.model), 50.0, 0.1)
    grads[1][4, 255, 128] = np.nan  # the ragged last block
    grads[2][2, 0, 0] = np.inf
    before = [x.copy() for x in task_params(agents.model, 0) + agents.aggregates]
    with pytest.raises(NonFiniteError, match="^agent 2 has non-finite step$"):
        gossip_round(agents, mixing, 0, grads, 0.1, penalty=rows)
    after = task_params(agents.model, 0) + agents.aggregates
    for k in (0, 3):  # layer 0 and its aggregate moved, in 4 blocks
        assert not np.array_equal(after[k], before[k])
    for k in (1, 4):  # layer 1's first 8 blocks moved, the ragged ninth did not
        got, want = after[k].reshape(16, -1), before[k].reshape(16, -1)
        assert not np.array_equal(got[:, :32768], want[:, :32768])
        assert np.array_equal(got[:, 32768:], want[:, 32768:])
    for k in (2, 5):  # nor did the head
        assert np.array_equal(after[k], before[k])


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


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 9),
    kind=st.sampled_from(["ring", "torus", "full"]),
    rows_pick=st.integers(0, 8),
    compression=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_round_matches_per_message_reference(
    n, kind, rows_pick, compression, seed
):
    """A round moves every agent's arrays and aggregates as
    ``reference_round`` does, which sends each message on its own: per
    entry to 1e-12 of the array's largest magnitude, and to 1e-12 where
    that is below 1.  With compression, each trunk layer is held as ``x0 +
    o c`` over a random basis and the round runs on the coefficients ``c``;
    the reference moves the lifted layers ``x0 + o c`` by the lifted steps
    ``o d`` and sends ``o^T q``, ``o.shape[1] * cols`` scalars, which each
    receiver decodes as ``o c``.  A message carries every other array raw,
    and the round's consensus error is the two-pass one up to summation
    order."""
    rng = np.random.default_rng(seed)
    spec = kind
    if kind == "torus":
        divisors = [r for r in range(1, n + 1) if n % r == 0]
        rows = divisors[rows_pick % len(divisors)]
        spec = f"torus:{rows}x{n // rows}"
    mixing = build_mixing(parse_topology(spec, n))
    dims = [int(d) for d in rng.integers(1, 6, size=3)]
    model = init_mlp(dims, rng)
    model.add_head(0, int(rng.integers(2, 4)), rng)
    stacked = model.stacked(n)
    layers = []
    for l, width in enumerate(dims[:-1]):
        q, _ = np.linalg.qr(rng.standard_normal((width, width)))
        rank = int(rng.integers(0, width + 1))
        layers.append(LayerBasis(m=q[:, :rank], o=q[:, rank:]))
        if compression:  # as a run holds a layer with a memory
            stacked.factor(l, q[:, rank:])
    arrays = task_params(stacked, 0)
    for x in arrays:
        x[...] = rng.standard_normal(x.shape)
    steps = [rng.standard_normal(x.shape) for x in arrays]
    aggs = [rng.standard_normal(x.shape) for x in arrays]
    bases = stacked.bases + [None] * (len(arrays) - len(stacked.bases))

    def lifted(k, c, step=False):
        """Array k's entry ``c`` as the reference holds it: a factored
        layer's as ``x0 + o c``, or as ``o c`` for a step."""
        base = bases[k]
        if base is None:
            return c.copy()
        return base.o @ c if step else base.x0 + base.o @ c

    ref_x = [[lifted(k, x[i]) for k, x in enumerate(arrays)] for i in range(n)]
    ref_aggs = [[lifted(k, a[i]) for k, a in enumerate(aggs)] for i in range(n)]
    ref_steps = [[lifted(k, -0.3 * g[i], step=True) for k, g in enumerate(steps)] for i in range(n)]
    memory = GpmState(layers=layers)
    want = reference_round(ref_x, ref_aggs, ref_steps, mixing, memory if compression else None)
    sizes = [x[0].size for x in arrays]
    if compression:
        assert sizes[: len(layers)] == [b.o.shape[1] * d for b, d in zip(layers, dims[1:])]
    agents = Agents(model=stacked, memory=memory, aggregates=aggs)
    ce = gossip_round(agents, mixing, 0, steps, 0.3)
    want_ce = consensus_error(stacked)
    assert abs(ce - want_ce) <= 4e-16 * want_ce
    receivers = fanout(mixing)
    assert [sum(sizes) * int(k) for k in receivers] == want
    for k, (x, agg) in enumerate(zip(task_params(stacked, 0), agents.aggregates)):
        for got, ref in ((x, ref_x), (agg, ref_aggs)):
            ref_k = np.array([r[k] for r in ref])
            got_k = np.array([lifted(k, got[i]) for i in range(n)])
            bound = 1e-12 * min(1.0, np.max(np.abs(ref_k), initial=0.0))
            assert np.max(np.abs(got_k - ref_k), initial=0.0) <= bound
    messages = int(np.count_nonzero(mixing - np.diag(np.diag(mixing)) > 0.0))
    assert int(receivers.sum()) == messages


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 4),
    projection=st.booleans(),
    heads=st.integers(2, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_steps_are_minus_eta_g_and_a_round_spares_other_heads(
    n, projection, heads, seed
):
    rng = np.random.default_rng(seed)
    dims = [int(d) for d in rng.integers(1, 6, size=3)]
    model = init_mlp(dims, rng).stacked(n)
    for t in range(heads):
        model.add_head(t, 3, rng)
    layers = []
    for width in dims[:-1]:
        q, _ = np.linalg.qr(rng.standard_normal((width, width)))
        rank = int(rng.integers(0, width + 1))
        layers.append(LayerBasis(m=q[:, :rank], o=q[:, rank:]))
    agents = Agents(model=model, memory=GpmState(layers=layers))
    task = int(rng.integers(0, heads))
    bx = rng.standard_normal((n, 4, dims[0]))
    by = rng.integers(0, 3, size=(n, 4))
    _, raw = loss_and_grad(model, bx, by, task)
    grads = list(raw)
    if projection:  # as a run holds a layer with a memory: x0 + o c
        for l, basis in enumerate(layers):
            grads[l] = project(grads[l], basis.m)
            if basis.rank:
                model.factor(l, basis.o)
    before = {t: [p.copy() for p in task_params(model, t)] for t in range(heads)}
    _, _, steps = local_step(model, agents.memory, bx, by, task, projection=projection)
    assert [g.shape for g in steps] == [p.shape for p in task_params(model, task)]
    for l, (got, g, r) in enumerate(zip(steps, grads, raw)):
        if l < len(layers) and model.bases[l] is not None:
            # the coefficients (X o)^T dz of the projected gradient, rounded
            # otherwise, so held to the raw gradient's scale
            scale = np.max(np.abs(r), initial=0.0)
            err = np.max(np.abs(layers[l].o @ got - g), initial=0.0)
            assert err <= 1e-12 * scale
        else:
            assert np.array_equal(got, g)
    for t, kept in before.items():
        for p, k in zip(task_params(model, t), kept):
            assert np.array_equal(p, k)  # the step is not applied
    # with the own state as aggregate and no mixing, the round moves each
    # agent by its step d = -eta g: a factored layer's c from 0 to d
    want = [p + -0.3 * g for p, g in zip(task_params(model, task), steps)]
    mixing = np.eye(n)
    reset_aggregates(agents, mixing, task)
    gossip_round(agents, mixing, task, steps, 0.3)
    for got, expected in zip(task_params(model, task), want):
        assert np.array_equal(got, expected)
    n_trunk = len(model.layers)
    for t, kept in before.items():
        if t != task:
            for p, k in zip(task_params(model, t)[n_trunk:], kept[n_trunk:]):
                assert np.array_equal(p, k)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 4),
    batch=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_input_space_projection_matches_the_projected_gradient(
    n, batch, seed
):
    """Gradients taken on a layer held as ``x0 + o c`` are the coefficients
    of ``project(g, m)`` and mu is ``||g~|| / ||g||``, at every pair of
    layer ranks from empty to saturated, to 1e-12 of the largest
    magnitude."""
    rng = np.random.default_rng(seed)
    dims = [int(d) for d in rng.integers(1, 6, size=3)]
    model = init_mlp(dims, rng).stacked(n)
    model.add_head(0, 3, rng)
    for x in task_params(model, 0):  # one start for all, as after a boundary
        x += 0.1 * rng.standard_normal(x.shape[1:])
    bx = rng.standard_normal((n, batch, dims[0]))
    by = rng.integers(0, 3, size=(n, batch))
    _, raw = loss_and_grad(model, bx, by, 0)
    qs = [np.linalg.qr(rng.standard_normal((w, w)))[0] for w in dims[:-1]]
    for r0 in range(dims[0] + 1):
        for r1 in range(dims[1] + 1):
            layers = [
                LayerBasis(m=q[:, :r], o=q[:, r:]) for q, r in zip(qs, (r0, r1))
            ]
            factored = copy.deepcopy(model)
            for l, b in enumerate(layers):
                if b.rank:
                    factored.factor(l, b.o)
            _, mu, grads = local_step(
                factored, GpmState(layers=layers), bx, by, 0, projection=True
            )
            grads[:2] = [b.o @ c if b.rank else c for b, c in zip(layers, grads)]
            want = [project(g, b.m) for g, b in zip(raw, layers)] + raw[2:]
            for got, w, g in zip(grads, want, raw):
                err = np.max(np.abs(got - w), initial=0.0)
                assert err <= 1e-12 * np.max(np.abs(g), initial=0.0)
            kept = sum(np.sum(w * w, axis=(-2, -1)) for w in want[:2])
            total = sum(np.sum(g * g, axis=(-2, -1)) for g in raw[:2])
            want_mu = np.ones(n)
            nonzero = total != 0.0
            want_mu[nonzero] = np.sqrt(kept[nonzero] / total[nonzero])
            assert np.max(np.abs(mu - want_mu)) <= 1e-12
            if r0 == r1 == 0:
                assert np.array_equal(mu, np.ones(n))


def test_mu_from_the_batch_grams_is_the_mu_of_the_whole_gradients(monkeypatch):
    """At the ``wide`` benchmark's shapes (16 agents, batches of 16,
    64-256-128 layers held at random ranks) every trunk gradient is past
    the size rule, so ``local_step`` returns factor pairs and takes mu's
    kept and lost norms from the batch Grams.  The pairs form bit for bit
    the gradients a step that forms every product whole returns, and mu is
    that step's mu to 1e-15 relative (4.4e-16 is the largest seen over 60
    such draws)."""
    rng = np.random.default_rng(8)
    dims, n = [64, 256, 128], 16
    for ranks in [(1, 1), (17, 200), (32, 128), (46, 236)]:
        agents = _held_agents(rng, dims, n, ranks, 0, classes=2)
        bx = rng.standard_normal((n, 16, dims[0]))
        by = rng.integers(0, 2, size=(n, 16))
        args = (agents.model, agents.memory, bx, by, 0)
        _, mu, grads = local_step(*args, projection=True)
        assert all(isinstance(g, Outer) for g in grads[:2])
        with monkeypatch.context() as m:
            m.setattr(dccl.trainer, "_factored", lambda c, dz: False)
            _, whole_mu, whole = local_step(*args, projection=True)
        assert all(np.array_equal(np.asarray(a), b) for a, b in zip(grads, whole))
        assert np.all(np.abs(mu - whole_mu) <= 1e-15 * whole_mu)


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
    words = _entropy(seed)
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


@pytest.mark.parametrize("method, n_tasks", [("codec", 1), ("codec", 2), ("dewc", 2)])
def test_scalar_accounting_matches_closed_form(method, n_tasks):
    seq = generate_synthetic_sequence(n_tasks, 2, 16, 50, 2)
    cfg = _config("ring", 4, epochs=1, method=method)
    result = run(cfg, seq)
    trunk = 16 * 32 + 32 * 16
    head_scalars = 16 * 2
    # ranks[t] is the memory task t projected with, ranks[t + 1] the one it
    # broadcast: task t's memory comes from a run on the first t + 1 tasks
    ranks = [[0, 0]]
    if method != "dewc":
        for t in range(n_tasks - 1):
            ranks.append(run(cfg, seq[: t + 1]).gpm.ranks())
        ranks.append(result.gpm.ranks())
    assert [entry.task for entry in result.ledger] == list(range(n_tasks))
    for t, entry in enumerate(result.ledger):
        n_rounds = entry.rounds
        assert n_rounds == 3  # shards of 20 rows, batches of 8, one epoch
        # directed ring: each round's 4 messages reach exactly one peer each
        assert entry.layer_full[0] == n_rounds * 4 * 16 * 32
        assert entry.layer_full[1] == n_rounds * 4 * 32 * 16
        if method == "codec":
            r = ranks[t]
            assert entry.layer_actual == [
                n_rounds * 4 * (16 - r[0]) * 32,
                n_rounds * 4 * (32 - r[1]) * 16,
            ]
        else:
            assert entry.layer_actual == entry.layer_full
        assert entry.extra_scalars == n_rounds * 4 * head_scalars
        sync = 4 * (trunk + (t + 1) * head_scalars)  # the model holds t + 1 heads
        if method == "dewc":
            # the trunk Fisher diagonal is gathered and sent back; no memory
            exchange_full = exchange_actual = 2 * 3 * trunk
        else:
            exchange_full = 3 * (16 * ranks[t + 1][0] + 32 * ranks[t + 1][1])
            exchange_actual = exchange_full
            if method == "codec":  # both spans travel, for decoding
                exchange_actual = 3 * (16 * 16 + 32 * 32)
        assert entry.overhead_full == sync + exchange_full
        assert entry.overhead_actual == sync + exchange_actual
    if method == "codec":
        assert all(0 < r < n for r, n in zip(ranks[1], (16, 32)))  # task 1 compresses


def test_debug_checks_pass_on_a_live_run():
    seq = generate_synthetic_sequence(2, 2, 16, 40, 4)
    run(_config("ring", 4, debug_checks=True), seq)
    run(_config("ring", 4, method="dewc", lam=10.0, debug_checks=True), seq)


def test_non_finite_training_data_stops_the_run_naming_the_agent():
    seq = generate_synthetic_sequence(2, 2, 16, 40, 4)
    seq[0].train_x[5, 3] = np.nan
    cfg = _config("ring", 4, epochs=1, method="naive")
    _, shards = shard_iid(seq[0], 4, _derive_int(cfg.seed, TAG_SHARD, 0))
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
    """An unknown method stops the run; a config takes no ``ewc_mode``, as
    ``dewc`` keeps one running Fisher state."""
    seq = generate_synthetic_sequence(1, 2, 16, 40, 6)
    with pytest.raises(ValueError, match="unknown method 'codecs'"):
        run(_config("ring", 4, method="codecs"), seq)
    with pytest.raises(TypeError, match="ewc_mode"):
        _config("ring", 4, method="dewc", ewc_mode="online")


def test_library_config_is_held_to_the_cli_limits():
    seq = generate_synthetic_sequence(1, 2, 16, 40, 6)
    with pytest.raises(ValueError, match="rep_samples must be at least 1, got 0"):
        run(_config("ring", 4, rep_samples=0), seq)
    with pytest.raises(ValueError, match="lam must be non-negative and finite, got -5000.0"):
        run(_config("ring", 4, method="dewc", lam=-5000.0), seq)
    with pytest.raises(ValueError, match="lam must be non-negative and finite, got nan"):
        run(_config("ring", 4, method="dewc", lam=float("nan")), seq)
    with pytest.raises(ValueError, match="lam must be non-negative and finite, got inf"):
        run(_config("ring", 4, method="dewc", lam=float("inf")), seq)
    for eta in (float("nan"), float("inf"), 0.0):
        with pytest.raises(
            ValueError, match=f"eta must be positive and finite, got {eta}"
        ):
            run(_config("ring", 4, eta=eta), seq)
    for fields, message in (
        (dict(epochs=0), "epochs must be at least 1, got 0"),
        (dict(batch_size=0), "batch_size must be at least 1, got 0"),
        (dict(seed=-1), "seed must be non-negative, got -1"),
        (dict(dims=[16, 0, 16]), r"dims must list widths of at least 1, got \[16, 0, 16\]"),
    ):
        with pytest.raises(ValueError, match=message):
            run(_config("ring", 4, **fields), seq)


def test_library_thresholds_are_held_to_the_cli_limits():
    """A falling schedule is rejected when it is made, and a threshold
    outside (0, 1) under every method, not only the projected ones."""
    seq = generate_synthetic_sequence(3, 2, 16, 40, 6)
    for increment in (-0.01, float("nan")):
        with pytest.raises(ValueError, match="increment_per_task must be non-negative"):
            run(_config("ring", 4, threshold=ThresholdSchedule(0.97, increment)), seq)
    stray = ThresholdSchedule(1.5, 0.0)
    with pytest.raises(ValueError, match=r"threshold 1.5 for task 0 is outside \(0, 1\)"):
        run(_config("ring", 4, method="dewc", threshold=stray), seq)


def test_input_width_mismatch_rejected():
    seq = generate_synthetic_sequence(1, 2, 8, 40, 6)
    with pytest.raises(ValueError):
        run(_config("ring", 4), seq)


@pytest.mark.parametrize("case", ["codec", "dewc", "codec_half_rank"])
def test_a_step_and_round_hold_no_gradient_stack(case):
    """Heap peaks of one local step and gossip round at the ``wide``
    benchmark's shapes: the plain layers of a first ``codec`` task or of
    ``dewc`` under a penalty, or, at a later ``codec`` task whose memories
    are half rank, the coefficients of the layers held as ``x0 + o c`` plus
    the live head.

    Every trunk gradient here is past the size rule, so the local step
    leaves only batch-sized factor pairs, and the round forms each block
    of a pair's rows in one half of one buffer of ``N x min(_BLOCK / N,
    widest cols)`` doubles, 512 KiB here, and its step in the other.  The
    round's own peak above what the local step left is that buffer plus a
    block's column mean (about 38 KiB of the 64 KiB allowed); a fresh
    mixing product, a whole-array update ``q`` or a whole-array penalised
    step adds at least one more block.  Over step and round the peak, in
    units of the exchanged agent stack, is the local step's batch-sized
    arrays': 0.38 for ``codec`` and for ``dewc``, and 1.1 at half rank,
    where the stack of coefficients is smaller.  A stack of gradients
    would add 1.
    """
    rng = np.random.default_rng(0)
    dims, n = [64, 256, 128], 16
    model = init_mlp(dims, rng).stacked(n)
    model.add_head(0, 2, rng)
    for x in task_params(model, 0):
        x += 0.01 * rng.standard_normal(x.shape)
    memory = GpmState.fresh(dims[:-1])
    if case == "codec_half_rank":
        layers = []
        for l, width in enumerate(dims[:-1]):
            q, _ = np.linalg.qr(rng.standard_normal((width, width)))
            layers.append(LayerBasis(m=q[:, : width // 2], o=q[:, width // 2 :]))
            model.factor(l, layers[-1].o)
            model.layers[l] += 0.01 * rng.standard_normal(model.layers[l].shape)
        memory = GpmState(layers=layers)
    agents = Agents(model=model, memory=memory)
    mixing = build_mixing(parse_topology("torus:4x4", n))
    reset_aggregates(agents, mixing, 0)
    penalty = None
    if case == "dewc":  # rows made once per task, before its rounds
        trunk = model.layers
        fisher = FisherState(
            f=[rng.random(p.shape[1:]) for p in trunk],
            anchor=[p[0].copy() for p in trunk],
        )
        penalty = implicit_rows(fisher, 5000.0, 0.01)
    bx = rng.standard_normal((n, 16, dims[0]))
    by = rng.integers(0, 2, size=(n, 16))
    stack = sum(x.nbytes for x in task_params(model, 0))
    widest = max(x[0].size for x in task_params(model, 0))
    block = 8 * n * min(_BLOCK // n, widest)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _, _, grads = local_step(
            model, agents.memory, bx, by, 0, projection=case != "dewc"
        )
        stepped, step_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        gossip_round(agents, mixing, 0, grads, 0.01, penalty=penalty)
        round_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert round_peak - stepped <= block + 64 * 1024
    bound = {"codec": 0.45, "dewc": 0.45, "codec_half_rank": 1.2}[case]
    assert (max(step_peak, round_peak) - base) / stack <= bound


def _held_agents(rng, dims, n, ranks, task, classes=3):
    """Agents at one start whose layer l has a memory of rank ``ranks[l]``,
    held as ``x0 + o c`` where the rank is positive, each agent's ``c``,
    plain layers and head then moved apart."""
    model = init_mlp(dims, rng).stacked(n)
    model.add_head(task, classes, rng)
    layers = []
    for l, (width, rank) in enumerate(zip(dims[:-1], ranks)):
        q, _ = np.linalg.qr(rng.standard_normal((width, width)))
        layers.append(LayerBasis(m=q[:, :rank], o=q[:, rank:]))
        if rank:
            model.factor(l, layers[-1].o)
    for x in task_params(model, task):
        x += 0.1 * rng.standard_normal(x.shape)
    agents = Agents(model=model, memory=GpmState(layers=layers))
    agents.aggregates = [x.copy() for x in task_params(model, task)]
    return agents


def test_a_workspace_step_and_round_are_the_fresh_ones():
    """``local_step`` and ``gossip_round`` with a workspace give bitwise
    the loss, mu, gradients, states, aggregates and consensus error of fresh
    arrays, for two tasks with one workspace each, whose memories differ:
    a plain layer, layers held at low and high rank (the direct lost norm
    and the Grams) and a saturated one of width 0 in either task.  From
    the second round on the workspace's buffers are the same arrays."""
    rng = np.random.default_rng(5)
    dims, n, batch = [6, 10, 8, 4], 5, 3
    mixing = build_mixing(parse_topology("ring", n))
    for task, ranks in enumerate([(0, 7, 8), (2, 10, 3)]):
        fresh = _held_agents(rng, dims, n, ranks, task)
        held = copy.deepcopy(fresh)
        ws, kept = {}, None
        for _ in range(3):
            bx = rng.standard_normal((n, batch, dims[0]))
            by = rng.integers(0, 3, size=(n, batch))
            out = [
                local_step(a.model, a.memory, bx, by, task, projection=True, ws=w)
                for a, w in ((fresh, None), (held, ws))
            ]
            (loss, mu, grads), (ws_loss, ws_mu, ws_grads) = out
            assert np.array_equal(loss, ws_loss) and np.array_equal(mu, ws_mu)
            assert all(map(np.array_equal, grads, ws_grads))
            ce = gossip_round(fresh, mixing, task, grads, 0.2)
            assert gossip_round(held, mixing, task, ws_grads, 0.2, ws=ws) == ce
            pairs = zip(task_params(fresh.model, task), task_params(held.model, task))
            assert all(np.array_equal(a, b) for a, b in pairs)
            assert all(map(np.array_equal, fresh.aggregates, held.aggregates))
            if kept is not None:
                assert {k: id(v) for k, v in ws.items()} == kept
            kept = {k: id(v) for k, v in ws.items()}


def test_a_round_after_the_first_makes_no_large_block():
    """At the ``many`` benchmark's shapes (64 agents, batches of 16, two
    classes and 16-32-16 layers, held over a memory or not, or ``dewc``
    under a penalty) a round that reuses its task's workspace allocates no
    block of 64 KiB or more: no bytecode of the step or the round, a numpy
    call included, raises the heap by that much.  So does a penalised
    ``dewc`` round at 16 agents with 16-512-16 layers, whose steps the
    round forms in strided column blocks of 4,096, and so do unpenalised
    rounds over strided blocks: 16-128-16 layers at 64 agents (blocks of
    1,024 of 2,048 columns) and 64-256-129 ones at 16 (a ragged last block
    of 256 of 33,024).  Without the workspace the first layer's activations
    alone are 256 KiB, and a ufunc that casts or broadcasts over short
    rows, or reads a strided block, buffers 64 KiB."""
    rng = np.random.default_rng(2)
    batch = 16
    worst = {}
    cases = {
        "plain": ([16, 32, 16], "ring", 64, (0, 0), False),
        "held": ([16, 32, 16], "ring", 64, (5, 20), False),
        "dewc": ([16, 32, 16], "ring", 64, (0, 0), True),
        "dewc, strided blocks": ([16, 512, 16], "torus:4x4", 16, (0, 0), True),
        "strided blocks": ([16, 128, 16], "ring", 64, (0, 0), False),
        "ragged last block": ([64, 256, 129], "torus:4x4", 16, (0, 0), False),
    }
    for case, (dims, spec, n, ranks, penalised) in cases.items():
        mixing = build_mixing(parse_topology(spec, n))
        agents = _held_agents(rng, dims, n, ranks, 0, classes=2)
        bx = rng.standard_normal((n, batch, dims[0]))
        by = rng.integers(0, 2, size=(n, batch))
        ws, penalty = {}, None
        if penalised:
            trunk = agents.model.layers
            fisher = FisherState(
                f=[rng.random(p.shape[1:]) for p in trunk],
                anchor=[p[0].copy() for p in trunk],
            )
            penalty = implicit_rows(fisher, 5000.0, 0.01)

        def one_round():
            _, _, grads = local_step(
                agents.model, agents.memory, bx, by, 0, projection=not penalised, ws=ws
            )
            gossip_round(agents, mixing, 0, grads, 0.01, penalty=penalty, ws=ws)

        one_round()
        rise = 0

        def trace(frame, event, arg):
            nonlocal rise
            frame.f_trace_opcodes = True
            peak = tracemalloc.get_traced_memory()[1]
            rise = max(rise, peak - trace.last)
            tracemalloc.reset_peak()
            trace.last = tracemalloc.get_traced_memory()[0]
            return trace

        previous = sys.gettrace()  # a coverage tool's, if any
        tracemalloc.start()
        try:
            trace.last = tracemalloc.get_traced_memory()[0]
            sys.settrace(trace)
            try:
                one_round()
            finally:
                sys.settrace(previous)
        finally:
            tracemalloc.stop()
        worst[case] = rise
    assert max(worst.values()) < 64 * 1024, worst


def test_a_run_holds_openblas_at_one_thread_and_restores_the_callers_count(
    monkeypatch,
):
    """With the caller at two OpenBLAS threads, a run evaluates at one and
    the count reads two again after it."""
    found = _openblas_threads()
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
