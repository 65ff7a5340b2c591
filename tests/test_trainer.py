"""Round mechanics, consensus behavior, lossless compression, determinism."""

import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dccl.ewc import FisherState
from dccl.gpm import GpmState, LayerBasis, ThresholdSchedule, project
from dccl.model import (
    flatten_params,
    init_mlp,
    loss_and_grad,
    task_params,
    trunk_params,
    unflatten_params,
)
from dccl.tasks import generate_synthetic_sequence, shard_iid
from dccl.topology import build_mixing, parse_topology
import dccl.trainer
from dccl.trainer import (
    TAG_BATCH,
    TAG_SHARD,
    Agents,
    NonFiniteError,
    TrainConfig,
    consensus_error,
    derive_rng,
    fanout,
    gossip_round,
    local_step,
    message_sizes,
    reset_aggregates,
    run,
    _batches,
    _derive_int,
)

DIMS = [6, 10, 4]


def _make_agents(n, seed=0, identical=False, dims=DIMS, classes=3):
    models = []
    for i in range(n):
        rng = derive_rng(seed, 1, 0 if identical else i)
        model = init_mlp(dims, rng, False)
        model.add_head(0, classes, derive_rng(seed, 2, 0 if identical else i))
        models.append(model)
    stacked = models[0].stacked(n)
    for i, model in enumerate(models):
        unflatten_params(stacked.view(i), flatten_params(model))
    return Agents(model=stacked, memory=GpmState.fresh(dims[:-1]))


def _flats(agents):
    return [flatten_params(agents.model.view(i)) for i in range(agents.model.lead[0])]


def _zero_steps(agents):
    """Steps for a round with no local step."""
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
        gossip_round(agents, mixing, 0, _zero_steps(agents), debug=True)
    for got, b in zip(_flats(agents), before):
        assert np.array_equal(got, b)
    assert consensus_error(agents.model) == 0.0


def test_one_full_graph_round_reaches_the_mean():
    mixing = build_mixing(parse_topology("full", 3))
    agents = _make_agents(3)
    reset_aggregates(agents, mixing, 0)
    mean = np.mean(_flats(agents), axis=0)
    gossip_round(agents, mixing, 0, _zero_steps(agents), debug=True)
    for got in _flats(agents):
        assert np.max(np.abs(got - mean)) <= 1e-12


def test_zero_gradient_ring_gossip_reaches_consensus_monotonically():
    mixing = build_mixing(parse_topology("ring", 8))
    agents = _make_agents(8)
    reset_aggregates(agents, mixing, 0)
    history = [consensus_error(agents.model)]
    for r in range(200):
        gossip_round(agents, mixing, 0, _zero_steps(agents), debug=(r % 40 == 0))
        history.append(consensus_error(agents.model))
    assert history[-1] < 1e-12
    assert all(b <= a for a, b in zip(history, history[1:]))


def _reference_round(xs, steps, aggs, bases, w, n_layers, compression):
    """One gossip round message by message, as separate nodes would run it.

    Every agent holds its own arrays.  A sender forms its update
    ``q = (a - x) + d``, encodes the trunk layers with its own basis copy
    and sends one message per receiver; each receiver decodes with its own
    copy and adds w_ji * q_hat.
    """
    n = len(xs)
    messages = []
    for i in range(n):
        qs = []
        for k in range(len(xs[i])):
            qs.append((aggs[i][k] - xs[i][k]) + steps[i][k])
            xs[i][k] = xs[i][k] + qs[-1]
        payload = [
            bases[i].layers[k].o.T @ q if compression and k < n_layers else q
            for k, q in enumerate(qs)
        ]
        messages.append(payload)
        for k, q in enumerate(qs):
            aggs[i][k] = aggs[i][k] + w[i, i] * q
    scalars = []
    for i, payload in enumerate(messages):
        receivers = [j for j in range(n) if j != i and w[j, i] > 0.0]
        scalars.append(sum(p.size for p in payload) * len(receivers))
        for j in receivers:
            for k, part in enumerate(payload):
                if compression and k < n_layers:
                    part = bases[j].layers[k].o @ part
                aggs[j][k] += w[j, i] * part
    return scalars


def _round_inputs(rng, n, dims, use_bias):
    """A stacked model, random bases, steps and aggregates for one round.

    As in a run, every trunk update lies in span(o): the trunk aggregates
    are ``x + o R1`` and the trunk steps ``o R2``.  Biases and heads are
    unconstrained.
    """
    model = init_mlp(dims, rng, use_bias)
    model.add_head(0, int(rng.integers(2, 4)), rng)
    stacked = model.stacked(n)
    arrays = task_params(stacked, 0)
    for x in arrays:
        x[...] = rng.standard_normal(x.shape)
    steps = [rng.standard_normal(x.shape) for x in arrays]
    aggs = [rng.standard_normal(x.shape) for x in arrays]
    layers = []
    for l, width in enumerate(dims[:-1]):
        q, _ = np.linalg.qr(rng.standard_normal((width, width)))
        rank = int(rng.integers(0, width + 1))
        layers.append(LayerBasis(m=q[:, :rank], o=q[:, rank:]))
        coeffs = (n, width - rank, dims[l + 1])
        aggs[l] = arrays[l] + q[:, rank:] @ rng.standard_normal(coeffs)
        steps[l] = q[:, rank:] @ rng.standard_normal(coeffs)
    return stacked, layers, steps, aggs


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 9),
    kind=st.sampled_from(["ring", "torus", "full"]),
    rows_pick=st.integers(0, 8),
    compression=st.booleans(),
    use_bias=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_round_matches_per_message_reference(
    n, kind, rows_pick, compression, use_bias, seed
):
    rng = np.random.default_rng(seed)
    spec = kind
    if kind == "torus":
        divisors = [r for r in range(1, n + 1) if n % r == 0]
        rows = divisors[rows_pick % len(divisors)]
        spec = f"torus:{rows}x{n // rows}"
    mixing = build_mixing(parse_topology(spec, n))
    dims = [int(d) for d in rng.integers(1, 6, size=3)]
    stacked, layers, steps, aggs = _round_inputs(rng, n, dims, use_bias)
    arrays = task_params(stacked, 0)
    agents = Agents(model=stacked, memory=GpmState(layers=layers), aggregates=aggs)
    ref_x = [[x[i].copy() for x in arrays] for i in range(n)]
    ref_steps = [[d[i].copy() for d in steps] for i in range(n)]
    ref_aggs = [[a[i].copy() for a in aggs] for i in range(n)]
    # each node holds its own copy of the broadcast basis
    ref_bases = [
        GpmState(layers=[LayerBasis(m=b.m.copy(), o=b.o.copy()) for b in layers])
        for _ in range(n)
    ]
    n_layers = len(dims) - 1
    want = _reference_round(
        ref_x, ref_steps, ref_aggs, ref_bases, mixing, n_layers, compression
    )
    sizes = message_sizes(stacked, agents.memory, 0, compression)
    receivers = fanout(mixing)
    assert gossip_round(agents, mixing, 0, steps) is None
    assert [sum(sizes) * int(k) for k in receivers] == want
    for k, (x, agg) in enumerate(zip(task_params(stacked, 0), agents.aggregates)):
        for i in range(n):
            assert np.max(np.abs(x[i] - ref_x[i][k]), initial=0.0) <= 1e-12
            assert np.max(np.abs(agg[i] - ref_aggs[i][k]), initial=0.0) <= 1e-12
    messages = int(np.count_nonzero(mixing - np.diag(np.diag(mixing)) > 0.0))
    assert int(receivers.sum()) == messages
    raw = message_sizes(stacked, agents.memory, 0, False)
    for l in range(n_layers):
        sent = layers[l].o.shape[1] if compression else dims[l]
        assert sizes[l] == sent * dims[l + 1]
        assert raw[l] == dims[l] * dims[l + 1]
    extra = sum(a[0].size for a in arrays[n_layers:])
    assert sum(sizes[n_layers:]) == extra


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 6),
    kind=st.sampled_from(["ring", "full"]),
    use_bias=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_factored_round_is_the_plain_round_in_the_complement(
    n, kind, use_bias, seed
):
    """Rounds on the coefficients ``c`` of layers held as ``x0 + o c`` move
    every agent as rounds on the plain layers with steps ``o d`` do, to
    1e-12 of the largest magnitude, and no agent leaves ``x0 + span(o)``:
    an update with a span(m) component cannot be represented."""
    rng = np.random.default_rng(seed)
    dims = [int(d) for d in rng.integers(1, 6, size=3)]
    model = init_mlp(dims, rng, use_bias)
    model.add_head(0, 3, rng)
    plain, factored = model.stacked(n), model.stacked(n)
    layers = []
    for l, width in enumerate(dims[:-1]):
        q, _ = np.linalg.qr(rng.standard_normal((width, width)))
        layers.append(LayerBasis(m=q[:, : l + 1], o=q[:, l + 1 :]))
        factored.factor(l, layers[-1].o)
    mixing = build_mixing(parse_topology(kind, n))
    a = Agents(model=plain, memory=GpmState(layers=layers))
    b = Agents(model=factored, memory=a.memory)
    reset_aggregates(a, mixing, 0)
    reset_aggregates(b, mixing, 0)
    for _ in range(3):
        steps = [rng.standard_normal(x.shape) for x in task_params(factored, 0)]
        lifted = [basis.o @ d for basis, d in zip(layers, steps)]
        gossip_round(a, mixing, 0, lifted + [d.copy() for d in steps[len(layers):]])
        gossip_round(b, mixing, 0, steps, debug=True)
    for l, (basis, c) in enumerate(zip(layers, factored.layers)):
        x0 = factored.bases[l][0]
        want = plain.layers[l]
        scale = np.max(np.abs(want))
        assert np.max(np.abs(x0 + basis.o @ c - want)) <= 1e-12 * scale
        assert np.max(np.abs(basis.m.T @ (want - x0))) <= 1e-12 * scale
    rest = zip(task_params(factored, 0)[len(layers):], task_params(plain, 0)[len(layers):])
    for x, want in rest:
        scale = np.max(np.abs(want), initial=0.0)
        assert np.max(np.abs(x - want), initial=0.0) <= 1e-12 * scale


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 4),
    use_bias=st.booleans(),
    projection=st.booleans(),
    heads=st.integers(2, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_steps_are_minus_eta_g_and_a_round_spares_other_heads(
    n, use_bias, projection, heads, seed
):
    rng = np.random.default_rng(seed)
    dims = [int(d) for d in rng.integers(1, 6, size=3)]
    model = init_mlp(dims, rng, use_bias).stacked(n)
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
    _, _, steps = local_step(
        model, agents.memory, bx, by, task, 0.3, projection=projection
    )
    assert [d.shape for d in steps] == [p.shape for p in task_params(model, task)]
    for l, (d, g, r) in enumerate(zip(steps, grads, raw)):
        if l < len(layers) and model.bases[l] is not None:
            # the coefficients (X o)^T dz of the projected step, rounded
            # otherwise, so held to the raw step's scale
            scale = np.max(np.abs(0.3 * r), initial=0.0)
            err = np.max(np.abs(layers[l].o @ d + 0.3 * g), initial=0.0)
            assert err <= 1e-12 * scale
        else:
            assert np.array_equal(d, -0.3 * g)
    for t, kept in before.items():
        for p, k in zip(task_params(model, t), kept):
            assert np.array_equal(p, k)  # the step is not applied
    mixing = build_mixing(parse_topology("full", n))
    reset_aggregates(agents, mixing, task)
    gossip_round(agents, mixing, task, steps)
    n_trunk = len(trunk_params(model))
    for t, kept in before.items():
        if t != task:
            for p, k in zip(task_params(model, t)[n_trunk:], kept[n_trunk:]):
                assert np.array_equal(p, k)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 4),
    use_bias=st.booleans(),
    batch=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_input_space_projection_matches_the_projected_gradient(
    n, use_bias, batch, seed
):
    """Steps taken on a layer held as ``x0 + o c`` are the coefficients of
    ``-eta project(g, m)`` and mu is ``||g~|| / ||g||``, at every pair of
    layer ranks from empty to saturated, to 1e-12 of the largest
    magnitude."""
    rng = np.random.default_rng(seed)
    dims = [int(d) for d in rng.integers(1, 6, size=3)]
    model = init_mlp(dims, rng, use_bias).stacked(n)
    model.add_head(0, 3, rng)
    for x in task_params(model, 0):  # one start for all, as after a boundary
        x += 0.1 * rng.standard_normal(x.shape[1:])
    bx = rng.standard_normal((n, batch, dims[0]))
    by = rng.integers(0, 3, size=(n, batch))
    _, raw = loss_and_grad(model, bx, by, 0)
    eta = 0.3
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
            _, mu, steps = local_step(
                factored, GpmState(layers=layers), bx, by, 0, eta, projection=True
            )
            steps[:2] = [b.o @ d if b.rank else d for b, d in zip(layers, steps)]
            want = [project(g, b.m) for g, b in zip(raw, layers)] + raw[2:]
            for d, w, g in zip(steps, want, raw):
                err = np.max(np.abs(d + eta * w), initial=0.0)
                assert err <= 1e-12 * np.max(np.abs(eta * g), initial=0.0)
            kept = sum(np.sum(w * w, axis=(-2, -1)) for w in want[:2])
            total = sum(np.sum(g * g, axis=(-2, -1)) for g in raw[:2])
            want_mu = np.ones(n)
            nonzero = total != 0.0
            want_mu[nonzero] = np.sqrt(kept[nonzero] / total[nonzero])
            assert np.max(np.abs(mu - want_mu)) <= 1e-12
            if r0 == r1 == 0:
                assert np.array_equal(mu, np.ones(n))


def test_compression_does_not_change_the_trajectory():
    seq = generate_synthetic_sequence(2, 2, 16, 60, 3)
    on = run(_config("ring", 4, method="codec"), seq)
    off = run(_config("ring", 4, method="codec_fullcomm"), seq)
    assert np.array_equal(on.final_params, off.final_params)
    assert [(r.loss, r.ce, r.mu) for r in on.logs] == [
        (r.loss, r.ce, r.mu) for r in off.logs
    ]
    for t in range(2):
        for i in range(t + 1):
            assert on.accuracy.get(t, i) == off.accuracy.get(t, i)


def test_single_agent_codec_is_bitwise_invariant():
    seq = generate_synthetic_sequence(2, 2, 16, 40, 5)
    on = run(_config("full", 1, method="codec"), seq)
    off = run(_config("full", 1, method="codec_fullcomm"), seq)
    assert np.array_equal(on.final_params, off.final_params)


def test_single_task_codec_equals_plain_decentralized_sgd():
    """The memory is empty throughout one task, so nothing is projected or
    encoded: codec is naive decentralized SGD bit for bit."""
    seq = generate_synthetic_sequence(1, 2, 16, 60, 5)
    for topology in ("ring", "full"):
        codec = run(_config(topology, 4, method="codec"), seq)
        naive = run(_config(topology, 4, method="naive"), seq)
        assert np.array_equal(codec.final_params, naive.final_params)
        assert [(r.loss, r.ce) for r in codec.logs] == [
            (r.loss, r.ce) for r in naive.logs
        ]
        assert all(r.mu == 1.0 for r in codec.logs)
        assert codec.accuracy.get(0, 0) == naive.accuracy.get(0, 0)


def test_runs_are_deterministic():
    seq = generate_synthetic_sequence(2, 2, 16, 60, 9)
    a = run(_config("ring", 4), seq)
    b = run(_config("ring", 4), seq)
    assert np.array_equal(a.final_params, b.final_params)
    assert [(r.task, r.round, r.agent, r.loss, r.ce, r.mu, r.scalars_sent) for r in a.logs] == [
        (r.task, r.round, r.agent, r.loss, r.ce, r.mu, r.scalars_sent) for r in b.logs
    ]


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
    rows, offset = [], 0
    for i, shard in enumerate(shards):
        ss = np.random.SeedSequence((seed, TAG_BATCH, i, 2, 1))
        perm = np.random.default_rng(ss).permutation(len(shard)) + offset
        rows.append(perm[np.arange(4 * 3) % len(shard)])
        offset += len(shard)
    want_idx = np.stack(rows).reshape(3, 4, 3).swapaxes(0, 1)
    assert np.array_equal(_batches(shards, seed, 2, 1, 4, 3), want_idx)


def test_round_count_and_log_shape():
    seq = generate_synthetic_sequence(1, 2, 16, 50, 2)
    # 80 training rows over 4 agents: shards of 20, batches of 8 -> 3 rounds
    cfg = _config("ring", 4, epochs=2)
    result = run(cfg, seq)
    entry = result.ledger[0]
    assert entry.rounds == 6
    assert len(result.logs) == 6 * 4
    mus = {r.mu for r in result.logs}
    assert mus == {1.0}  # task 1 is unconstrained


@pytest.mark.parametrize(
    "method, n_tasks, use_bias",
    [("codec_fullcomm", 1, False), ("codec", 2, False), ("dewc", 2, True)],
)
def test_scalar_accounting_matches_closed_form(method, n_tasks, use_bias):
    seq = generate_synthetic_sequence(n_tasks, 2, 16, 50, 2)
    cfg = _config("ring", 4, epochs=1, method=method, use_bias=use_bias)
    result = run(cfg, seq)
    biases = 32 + 16 if use_bias else 0
    trunk = 16 * 32 + 32 * 16 + biases
    head_scalars = 16 * 2 + (2 if use_bias else 0)
    # ranks[t] is the memory task t projected with, ranks[t + 1] the one it
    # broadcast: task t's memory comes from a run on the first t + 1 tasks
    ranks = [[0, 0]]
    if method != "dewc":
        for t in range(n_tasks - 1):
            prefix = dataclasses.replace(seq, tasks=seq.tasks[: t + 1])
            ranks.append(run(cfg, prefix).gpm.ranks())
        ranks.append(result.gpm.ranks())
    assert [entry.task for entry in result.ledger] == list(range(n_tasks))
    for t, entry in enumerate(result.ledger):
        n_rounds = entry.rounds
        assert n_rounds == 3  # shards of 20 rows, batches of 8, one epoch
        # directed ring: each round's 4 messages reach exactly one peer each
        assert entry.messages == n_rounds * 4
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
        assert entry.extra_scalars == n_rounds * 4 * (biases + head_scalars)
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
    seq.tasks[0].train_x[5, 3] = np.nan
    cfg = _config("ring", 4, epochs=1, method="naive")
    shards = shard_iid(seq.tasks[0], 4, _derive_int(cfg.seed, TAG_SHARD, 0))
    holder = next(i for i, s in enumerate(shards) if np.isnan(s.examples).any())
    want = rf"task 0, round \d+: agent {holder} has non-finite loss"
    with pytest.raises(NonFiniteError, match=want):
        run(cfg, seq)


def test_every_task_is_checked_before_the_first_round(monkeypatch):
    def no_round(*args, **kwargs):
        pytest.fail("a round ran before the whole task sequence was checked")

    monkeypatch.setattr(dccl.trainer, "local_step", no_round)
    seq = generate_synthetic_sequence(2, 2, 16, 40, 4)
    task = seq.tasks[1]
    seq.tasks[1] = dataclasses.replace(task, train_x=task.train_x[:3], train_y=task.train_y[:3])
    with pytest.raises(ValueError, match="task 1 has 3 training samples, fewer than 4 agents"):
        run(_config("ring", 4), seq)
    seq.tasks[1] = dataclasses.replace(task, test_x=task.test_x[:0], test_y=task.test_y[:0])
    with pytest.raises(ValueError, match="task 1 has an empty test split"):
        run(_config("ring", 4), seq)


def test_stl_fills_only_the_diagonal():
    seq = generate_synthetic_sequence(3, 2, 16, 40, 8)
    result = run(_config("ring", 4, epochs=1, method="stl"), seq)
    for t in range(3):
        for i in range(t + 1):
            if i == t:
                assert not np.isnan(result.accuracy.get(t, i))
            else:
                assert np.isnan(result.accuracy.get(t, i))


def test_gpm_state_is_shared_and_grows(tmp_path):
    seq = generate_synthetic_sequence(2, 2, 16, 40, 6)
    result = run(_config("ring", 4), seq)
    assert result.gpm is not None
    assert all(r > 0 for r in result.gpm.ranks())
    for basis in result.gpm.layers:
        assert not basis.m.flags.writeable and not basis.o.flags.writeable
    naive = run(_config("ring", 4, method="naive"), seq)
    assert naive.gpm is None


def test_baselines_leave_the_callers_config_alone():
    seq = generate_synthetic_sequence(1, 2, 16, 40, 6)
    for method in ("naive", "stl", "dewc"):
        cfg = _config("ring", 4, epochs=1, method=method)
        run(cfg, seq)
        assert cfg == _config("ring", 4, epochs=1, method=method)


def test_learning_rate_decay_changes_late_rounds():
    seq = generate_synthetic_sequence(1, 2, 16, 60, 12)
    flat = run(_config("ring", 4, epochs=4), seq)
    decayed = run(_config("ring", 4, epochs=4, lr_decay=True), seq)
    assert not np.array_equal(flat.final_params, decayed.final_params)


def test_unknown_method_or_ewc_mode_rejected():
    seq = generate_synthetic_sequence(1, 2, 16, 40, 6)
    with pytest.raises(ValueError, match="unknown method 'codecs'"):
        run(_config("ring", 4, method="codecs"), seq)
    with pytest.raises(ValueError, match="unknown ewc mode 'offline'"):
        run(_config("ring", 4, method="dewc", ewc_mode="offline"), seq)


def test_library_config_is_held_to_the_cli_limits():
    seq = generate_synthetic_sequence(1, 2, 16, 40, 6)
    with pytest.raises(ValueError, match="rep_samples must be at least 1, got 0"):
        run(_config("ring", 4, rep_samples=0), seq)
    with pytest.raises(ValueError, match="lam must be non-negative, got -5000.0"):
        run(_config("ring", 4, method="dewc", lam=-5000.0), seq)
    with pytest.raises(ValueError, match="lam must be non-negative, got nan"):
        run(_config("ring", 4, method="dewc", lam=float("nan")), seq)
    with pytest.raises(ValueError, match="lam must be finite, got inf"):
        run(_config("ring", 4, method="dewc", lam=float("inf")), seq)
    for eta in (float("nan"), float("inf"), 0.0):
        with pytest.raises(
            ValueError, match=f"eta must be positive and finite, got {eta}"
        ):
            run(_config("ring", 4, eta=eta), seq)


def test_library_thresholds_are_held_to_the_cli_limits():
    """A falling schedule is rejected when it is made, and a threshold
    outside (0, 1) under every method, not only the projected ones."""
    seq = generate_synthetic_sequence(3, 2, 16, 40, 6)
    for increment in (-0.01, float("nan")):
        with pytest.raises(ValueError, match="threshold increment must be non-negative"):
            run(_config("ring", 4, threshold=ThresholdSchedule(0.97, increment)), seq)
    stray = ThresholdSchedule(1.5, 0.0)
    with pytest.raises(ValueError, match=r"threshold 1.5 for task 0 is outside \(0, 1\)"):
        run(_config("ring", 4, method="dewc", threshold=stray), seq)


def test_input_width_mismatch_rejected():
    seq = generate_synthetic_sequence(1, 2, 8, 40, 6)
    with pytest.raises(ValueError):
        run(_config("ring", 4), seq)


@pytest.mark.parametrize("case", ["codec", "dewc", "codec_half_rank"])
def test_round_heap_peak_stays_near_two_agent_stacks(case):
    """Heap peak of one local step, gossip round and consensus error at the
    ``wide`` benchmark's shapes, in units of the exchanged agent stack: the
    plain layers of a first ``codec`` task or of ``dewc``, or, at a later
    ``codec`` task whose memories are half rank, the coefficients of the
    layers held as ``x0 + o c`` plus the live head.

    The steps are one stack, and the round's update ``q`` for the widest
    layer about one more; its mixing product goes into the spent step's
    buffer.  ``dewc``'s penalty forms one layer-sized temporary at a time,
    and the factored step only batch-sized ones (its lost norm from the
    ``(batch, batch)`` Grams), all below the round's peak.  One more
    stack-sized temporary lifts the peak to 2.3-2.55 stacks:
    ``lam * f * (x - x*)`` as one expression or a fresh mixing product;
    in the factored case, ``(X m)^T dz`` lifts it to 2.34 and the plain
    layer ``x0 + o c`` in the forward pass to 2.9.
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
    fishers = ()
    if case == "dewc":
        trunk = trunk_params(model)
        fishers = (
            FisherState(
                f=[rng.random(p.shape[1:]) for p in trunk],
                anchor=[p[0].copy() for p in trunk],
            ),
        )
    bx = rng.standard_normal((n, 16, dims[0]))
    by = rng.integers(0, 2, size=(n, 16))
    stack = sum(x.nbytes for x in task_params(model, 0))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _, _, steps = local_step(
            model, agents.memory, bx, by, 0, 0.01,
            projection=case != "dewc", fisher_states=fishers, lam=5000.0,
        )
        gossip_round(agents, mixing, 0, steps)
        del steps
        consensus_error(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - base) / stack <= 2.15
