"""The gossip round: consensus behavior, the blocked sweep against whole
arrays and factor pairs, the penalised step, the per-message reference,
the naming of a non-finite step, and what a round allocates."""

import copy
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dccl.ewc import FisherState, ewc_grad, implicit_rows
from dccl.gossip import (
    NonFiniteError,
    gossip_round,
    reset_aggregates,
    _BLOCK,
    _ROW_BUFSIZE,
    _bounds,
    _step,
)
from dccl.gpm import GpmState, LayerBasis
from dccl.metrics import fanout
from dccl.model import (
    Outer,
    flatten_params,
    init_mlp,
    local_step,
    task_params,
    unflatten_params,
)
from dccl.tasks import derive_rng
from dccl.topology import build_mixing, parse_topology
from reference import consensus_error, held_agents, reference_round

DIMS = [6, 10, 4]


def _round(agents, w, task, grads, eta, **kw):
    """``gossip_round`` on ``agents``' model and aggregates, after a local
    step whose loss and mu are finite."""
    n = len(w)
    return gossip_round(
        agents.model, agents.aggregates, w, task, np.zeros(n), np.ones(n), grads, eta, **kw
    )


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
    return SimpleNamespace(model=stacked, aggregates=[])


def _flats(agents):
    return [flatten_params(agents.model.view(i)) for i in range(agents.model.lead[0])]


def _zero_steps(agents):
    """Gradients for a round with no local step."""
    return [np.zeros_like(x) for x in task_params(agents.model, 0)]


def _own_aggregates(agents):
    agents.aggregates = [x.copy() for x in task_params(agents.model, 0)]


def test_identical_agents_are_a_fixed_point():
    mixing = build_mixing(parse_topology("ring", 4))
    agents = _make_agents(4, identical=True)
    _own_aggregates(agents)
    before = _flats(agents)
    for _ in range(5):
        _round(agents, mixing, 0, _zero_steps(agents), 0.1, debug=True)
    for got, b in zip(_flats(agents), before):
        assert np.array_equal(got, b)
    assert consensus_error(agents.model) == 0.0


def test_one_full_graph_round_reaches_the_mean():
    mixing = build_mixing(parse_topology("full", 3))
    agents = _make_agents(3)
    agents.aggregates = reset_aggregates(agents.model, mixing, 0)
    mean = np.mean(_flats(agents), axis=0)
    _round(agents, mixing, 0, _zero_steps(agents), 0.1, debug=True)
    for got in _flats(agents):
        assert np.max(np.abs(got - mean)) <= 1e-12


def test_zero_gradient_ring_gossip_reaches_consensus_monotonically():
    mixing = build_mixing(parse_topology("ring", 8))
    agents = _make_agents(8)
    agents.aggregates = reset_aggregates(agents.model, mixing, 0)
    history = [consensus_error(agents.model)]
    for r in range(200):
        _round(agents, mixing, 0, _zero_steps(agents), 0.1, debug=(r % 40 == 0))
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
    agents = SimpleNamespace(model=model, aggregates=aggs)
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
    ce = _round(agents, mixing, 0, grads, 0.3)
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
    want_ce = _round(whole, mixing, 0, products, 0.3, penalty=penalty)
    ce = _round(agents, mixing, 0, pairs + rest, 0.3, penalty=penalty)
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
        _round(agents, mixing, 0, grads, 0.3)
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
    fused = SimpleNamespace(model=model, aggregates=reset_aggregates(model, mixing, 0))
    oracle = copy.deepcopy(fused)
    n_trunk = len(model.layers)
    for eta in (0.1, 0.01):
        grads = [rng.standard_normal(x.shape) for x in task_params(model, 0)]
        pen = ewc_grad(oracle.model, [g.copy() for g in grads], state, lam)
        steps = [-eta * g for g in pen]
        for j in range(n_trunk):
            steps[j] /= 1.0 + eta * lam * state.f[j]
        rows = implicit_rows(state, lam, eta)
        ce = _round(fused, mixing, 0, grads, eta, penalty=rows, debug=True)
        want_ce = _round(oracle, mixing, 0, [-d for d in steps], 1.0)
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
        _round(agents, mixing, 0, grads, 0.1, penalty=rows)
    after = task_params(agents.model, 0) + agents.aggregates
    for k in (0, 3):  # layer 0 and its aggregate moved, in 4 blocks
        assert not np.array_equal(after[k], before[k])
    for k in (1, 4):  # layer 1's first 8 blocks moved, the ragged ninth did not
        got, want = after[k].reshape(16, -1), before[k].reshape(16, -1)
        assert not np.array_equal(got[:, :32768], want[:, :32768])
        assert np.array_equal(got[:, 32768:], want[:, 32768:])
    for k in (2, 5):  # nor did the head
        assert np.array_equal(after[k], before[k])


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
    agents = SimpleNamespace(model=stacked, aggregates=aggs)
    ce = _round(agents, mixing, 0, steps, 0.3)
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
    mixing = build_mixing(parse_topology("torus:4x4", n))
    agents = SimpleNamespace(model=model, aggregates=reset_aggregates(model, mixing, 0))
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
        loss, mu, grads = local_step(model, memory, bx, by, 0, projection=case != "dewc")
        stepped, step_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        gossip_round(
            model, agents.aggregates, mixing, 0, loss, mu, grads, 0.01, penalty=penalty
        )
        round_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert round_peak - stepped <= block + 64 * 1024
    bound = {"codec": 0.45, "dewc": 0.45, "codec_half_rank": 1.2}[case]
    assert (max(step_peak, round_peak) - base) / stack <= bound


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
        fresh = held_agents(rng, dims, n, ranks, task)
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
            ce = _round(fresh, mixing, task, grads, 0.2)
            assert _round(held, mixing, task, ws_grads, 0.2, ws=ws) == ce
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
        agents = held_agents(rng, dims, n, ranks, 0, classes=2)
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
            loss, mu, grads = local_step(
                agents.model, agents.memory, bx, by, 0, projection=not penalised, ws=ws
            )
            gossip_round(
                agents.model, agents.aggregates, mixing, 0, loss, mu, grads, 0.01,
                penalty=penalty, ws=ws,
            )

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
