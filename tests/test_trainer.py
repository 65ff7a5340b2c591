"""Round mechanics, consensus behavior, lossless compression, determinism."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    TAG_SHARD,
    Agents,
    NonFiniteError,
    TaskComm,
    TrainConfig,
    consensus_error,
    derive_rng,
    gossip_round,
    local_step,
    reset_aggregates,
    run,
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


def _entry(n_layers=len(DIMS) - 1):
    return TaskComm(task=0, layer_full=[0] * n_layers, layer_actual=[0] * n_layers)


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
        gossip_round(
            agents, mixing, 0, _zero_steps(agents), _entry(), compression=True, debug=True
        )
    for got, b in zip(_flats(agents), before):
        assert np.array_equal(got, b)
    assert consensus_error(agents.model) == 0.0


def test_one_full_graph_round_reaches_the_mean():
    mixing = build_mixing(parse_topology("full", 3))
    agents = _make_agents(3)
    reset_aggregates(agents, mixing, 0)
    mean = np.mean(_flats(agents), axis=0)
    gossip_round(
        agents, mixing, 0, _zero_steps(agents), _entry(), compression=False, debug=True
    )
    for got in _flats(agents):
        assert np.max(np.abs(got - mean)) <= 1e-12


def test_zero_gradient_ring_gossip_reaches_consensus_monotonically():
    mixing = build_mixing(parse_topology("ring", 8))
    agents = _make_agents(8)
    reset_aggregates(agents, mixing, 0)
    history = [consensus_error(agents.model)]
    entry = _entry()
    for r in range(200):
        gossip_round(
            agents,
            mixing,
            0,
            _zero_steps(agents),
            entry,
            compression=True,
            debug=(r % 40 == 0),
        )
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
    model = init_mlp(dims, rng, use_bias)
    model.add_head(0, int(rng.integers(2, 4)), rng)
    stacked = model.stacked(n)
    arrays = task_params(stacked, 0)
    for x in arrays:
        x[...] = rng.standard_normal(x.shape)
    steps = [rng.standard_normal(x.shape) for x in arrays]
    aggs = [rng.standard_normal(x.shape) for x in arrays]
    layers = []
    for width in dims[:-1]:
        q, _ = np.linalg.qr(rng.standard_normal((width, width)))
        rank = int(rng.integers(0, width + 1))
        layers.append(LayerBasis(m=q[:, :rank], o=q[:, rank:]))
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
        ref_x, ref_steps, ref_aggs, ref_bases, mixing.w, n_layers, compression
    )
    entry = _entry(n_layers)
    got = gossip_round(agents, mixing, 0, steps, entry, compression=compression)
    assert got == want
    for k, (x, agg) in enumerate(zip(task_params(stacked, 0), agents.aggregates)):
        for i in range(n):
            assert np.max(np.abs(x[i] - ref_x[i][k]), initial=0.0) <= 1e-12
            assert np.max(np.abs(agg[i] - ref_aggs[i][k]), initial=0.0) <= 1e-12
    messages = int(np.count_nonzero(mixing.w - np.diag(np.diag(mixing.w)) > 0.0))
    assert entry.messages == messages
    for l in range(n_layers):
        sent = layers[l].o.shape[1] if compression else dims[l]
        assert entry.layer_actual[l] == messages * sent * dims[l + 1]
        assert entry.layer_full[l] == messages * dims[l] * dims[l + 1]
    extra = sum(a[0].size for a in arrays[n_layers:])
    assert entry.extra_scalars == messages * extra


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
    before = {t: [p.copy() for p in task_params(model, t)] for t in range(heads)}
    _, grads = loss_and_grad(model, bx, by, task)
    if projection:
        for l, basis in enumerate(layers):
            grads[l] = project(grads[l], basis.m)
    _, _, steps = local_step(
        model, agents.memory, bx, by, task, 0.3, projection=projection
    )
    assert [d.shape for d in steps] == [p.shape for p in task_params(model, task)]
    for d, g in zip(steps, grads):
        assert np.array_equal(d, -0.3 * g)
    for t, kept in before.items():
        for p, k in zip(task_params(model, t), kept):
            assert np.array_equal(p, k)  # the step is not applied
    mixing = build_mixing(parse_topology("full", n))
    reset_aggregates(agents, mixing, task)
    gossip_round(
        agents, mixing, task, steps, _entry(len(dims) - 1), compression=projection
    )
    n_trunk = len(trunk_params(model))
    for t, kept in before.items():
        if t != task:
            for p, k in zip(task_params(model, t)[n_trunk:], kept[n_trunk:]):
                assert np.array_equal(p, k)


def test_compression_does_not_change_the_trajectory():
    seq = generate_synthetic_sequence(2, 2, 16, 60, 3)
    on = run(_config("ring", 4, method="codec"), seq)
    off = run(_config("ring", 4, method="codec_fullcomm"), seq)
    assert np.max(np.abs(on.final_params - off.final_params)) <= 1e-9
    for t in range(2):
        for i in range(t + 1):
            assert on.accuracy.get(t, i) == pytest.approx(
                off.accuracy.get(t, i), abs=1e-6
            )


def test_single_agent_codec_is_bitwise_invariant():
    seq = generate_synthetic_sequence(2, 2, 16, 40, 5)
    on = run(_config("full", 1, method="codec"), seq)
    off = run(_config("full", 1, method="codec_fullcomm"), seq)
    assert np.array_equal(on.final_params, off.final_params)


def test_single_task_codec_equals_plain_decentralized_sgd():
    seq = generate_synthetic_sequence(1, 2, 16, 60, 5)
    codec = run(_config("ring", 4, method="codec"), seq)
    naive = run(_config("ring", 4, method="naive"), seq)
    assert np.max(np.abs(codec.final_params - naive.final_params)) <= 1e-12
    assert codec.accuracy.get(0, 0) == naive.accuracy.get(0, 0)


def test_runs_are_deterministic():
    seq = generate_synthetic_sequence(2, 2, 16, 60, 9)
    a = run(_config("ring", 4), seq)
    b = run(_config("ring", 4), seq)
    assert np.array_equal(a.final_params, b.final_params)
    assert [(r.task, r.round, r.agent, r.loss, r.ce, r.mu, r.scalars_sent) for r in a.logs] == [
        (r.task, r.round, r.agent, r.loss, r.ce, r.mu, r.scalars_sent) for r in b.logs
    ]


def test_round_count_and_log_shape():
    seq = generate_synthetic_sequence(1, 2, 16, 50, 2)
    # 80 training rows over 4 agents: shards of 20, batches of 8 -> 3 rounds
    cfg = _config("ring", 4, epochs=2)
    result = run(cfg, seq)
    entry = result.ledger.tasks[0]
    assert entry.rounds == 6
    assert len(result.logs) == 6 * 4
    mus = {r.mu for r in result.logs}
    assert mus == {1.0}  # task 1 is unconstrained


def test_scalar_accounting_matches_closed_form():
    seq = generate_synthetic_sequence(1, 2, 16, 50, 2)
    cfg = _config("ring", 4, epochs=1, method="codec_fullcomm")
    result = run(cfg, seq)
    entry = result.ledger.tasks[0]
    n_rounds = entry.rounds
    # directed ring: each message reaches exactly one peer
    assert entry.layer_full[0] == n_rounds * 4 * 16 * 32
    assert entry.layer_full[1] == n_rounds * 4 * 32 * 16
    assert entry.layer_actual == entry.layer_full
    head_scalars = 16 * 2
    assert entry.extra_scalars == n_rounds * 4 * head_scalars
    per_model = 16 * 32 + 32 * 16 + head_scalars
    ranks = result.gpm.ranks()
    basis_cost = 3 * (16 * ranks[0] + 32 * ranks[1])
    assert entry.overhead_full == 4 * per_model + basis_cost
    assert entry.overhead_actual == entry.overhead_full


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


def test_input_width_mismatch_rejected():
    seq = generate_synthetic_sequence(1, 2, 8, 40, 6)
    with pytest.raises(ValueError):
        run(_config("ring", 4), seq)
