"""Round mechanics, consensus behavior, lossless compression, determinism."""

import numpy as np
import pytest

from dccl.gpm import GpmState, LayerBasis, ThresholdSchedule
from dccl.linalg import orthonormal_complement
from dccl.model import flatten_params, init_mlp
from dccl.tasks import generate_synthetic_sequence
from dccl.topology import build_mixing, parse_topology
from dccl.trainer import (
    AgentState,
    ProtocolError,
    TaskComm,
    TrainConfig,
    consensus_error,
    derive_rng,
    get_extra_flat,
    get_trunk_flat,
    gossip_round,
    reset_aggregates,
    run_dewc,
    run_naive,
    run_sequence,
    run_stl,
)

DIMS = [6, 10, 4]


def _make_agents(n, seed=0, identical=False, dims=DIMS, classes=3):
    agents = []
    for i in range(n):
        rng = derive_rng(seed, 1, 0 if identical else i)
        model = init_mlp(dims, rng, False)
        model.add_head(0, classes, derive_rng(seed, 2, 0 if identical else i))
        agents.append(
            AgentState(
                id=i,
                model=model,
                gpm=GpmState.fresh(dims[:-1]),
                trunk_aggregate=np.zeros(0),
                extra_aggregate=np.zeros(0),
            )
        )
    return agents


def _entry(n_layers=len(DIMS) - 1):
    return TaskComm(task=0, layer_full=[0] * n_layers, layer_actual=[0] * n_layers)


def _own_aggregates(agents):
    for a in agents:
        a.trunk_aggregate = get_trunk_flat(a.model)
        a.extra_aggregate = get_extra_flat(a.model, 0)


def _config(topology, agents, seed=7, compression=True, dims=None, **kw):
    defaults = dict(
        eta=0.1,
        epochs=2,
        batch_size=8,
        threshold=ThresholdSchedule(0.95, 0.003),
        topology=parse_topology(topology, agents),
        agents=agents,
        seed=seed,
        compression=compression,
        dims=dims or [16, 32, 16],
        rep_samples=16,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


def test_identical_agents_are_a_fixed_point():
    mixing = build_mixing(parse_topology("ring", 4))
    agents = _make_agents(4, identical=True)
    _own_aggregates(agents)
    before = [flatten_params(a.model).copy() for a in agents]
    for _ in range(5):
        gossip_round(agents, mixing, 0, None, _entry(), compression=True, debug=True)
    for a, b in zip(agents, before):
        assert np.array_equal(flatten_params(a.model), b)
    assert consensus_error(agents) == 0.0


def test_one_full_graph_round_reaches_the_mean():
    mixing = build_mixing(parse_topology("full", 3))
    agents = _make_agents(3)
    reset_aggregates(agents, mixing, 0)
    flats = [flatten_params(a.model) for a in agents]
    mean = np.mean(flats, axis=0)
    gossip_round(agents, mixing, 0, None, _entry(), compression=False, debug=True)
    for a in agents:
        got = flatten_params(a.model)
        assert np.max(np.abs(got - mean)) <= 1e-12


def test_zero_gradient_ring_gossip_reaches_consensus_monotonically():
    mixing = build_mixing(parse_topology("ring", 8))
    agents = _make_agents(8)
    reset_aggregates(agents, mixing, 0)
    history = [consensus_error(agents)]
    entry = _entry()
    for r in range(200):
        gossip_round(
            agents, mixing, 0, None, entry, compression=True, debug=(r % 40 == 0)
        )
        history.append(consensus_error(agents))
    assert history[-1] < 1e-12
    assert all(b <= a for a, b in zip(history, history[1:]))


def test_compression_does_not_change_the_trajectory():
    seq = generate_synthetic_sequence(2, 2, 16, 60, 3)
    on = run_sequence(_config("ring", 4, compression=True), seq)
    off = run_sequence(_config("ring", 4, compression=False), seq)
    assert np.max(np.abs(on.final_params - off.final_params)) <= 1e-9
    for t in range(2):
        for i in range(t + 1):
            assert on.accuracy.get(t, i) == pytest.approx(
                off.accuracy.get(t, i), abs=1e-6
            )


def test_single_agent_codec_is_bitwise_invariant():
    seq = generate_synthetic_sequence(2, 2, 16, 40, 5)
    on = run_sequence(_config("full", 1, compression=True), seq)
    off = run_sequence(_config("full", 1, compression=False), seq)
    assert np.array_equal(on.final_params, off.final_params)


def test_single_task_codec_equals_plain_decentralized_sgd():
    seq = generate_synthetic_sequence(1, 2, 16, 60, 5)
    codec = run_sequence(_config("ring", 4, compression=True), seq)
    naive = run_naive(_config("ring", 4, compression=False), seq)
    assert np.max(np.abs(codec.final_params - naive.final_params)) <= 1e-12
    assert codec.accuracy.get(0, 0) == naive.accuracy.get(0, 0)


def test_runs_are_deterministic_and_thread_insensitive():
    seq = generate_synthetic_sequence(2, 2, 16, 60, 9)
    a = run_sequence(_config("ring", 4), seq)
    b = run_sequence(_config("ring", 4), seq)
    assert np.array_equal(a.final_params, b.final_params)
    assert [(r.task, r.round, r.agent, r.loss, r.ce, r.mu, r.scalars_sent) for r in a.logs] == [
        (r.task, r.round, r.agent, r.loss, r.ce, r.mu, r.scalars_sent) for r in b.logs
    ]
    threaded = run_sequence(_config("ring", 4, threads=4), seq)
    assert np.array_equal(a.final_params, threaded.final_params)


def test_round_count_and_log_shape():
    seq = generate_synthetic_sequence(1, 2, 16, 50, 2)
    # 80 training rows over 4 agents: shards of 20, batches of 8 -> 3 rounds
    cfg = _config("ring", 4, epochs=2)
    result = run_sequence(cfg, seq)
    entry = result.ledger.tasks[0]
    assert entry.rounds == 6
    assert len(result.logs) == 6 * 4
    mus = {r.mu for r in result.logs}
    assert mus == {1.0}  # task 1 is unconstrained


def test_scalar_accounting_matches_closed_form():
    seq = generate_synthetic_sequence(1, 2, 16, 50, 2)
    cfg = _config("ring", 4, epochs=1, compression=False)
    result = run_sequence(cfg, seq)
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
    run_sequence(_config("ring", 4, debug_checks=True), seq)
    run_dewc(_config("ring", 4, debug_checks=True), seq, lam=10.0)


def test_desynchronized_bases_raise_protocol_error():
    mixing = build_mixing(parse_topology("ring", 2))
    agents = _make_agents(2, identical=True)
    _own_aggregates(agents)
    # agent 0 privately grows its memory, so its coefficients no longer
    # match what agent 1 expects
    n = DIMS[0]
    e1 = np.zeros((n, 1))
    e1[0, 0] = 1.0
    agents[0].gpm.layers[0] = LayerBasis(m=e1, o=orthonormal_complement(e1))
    with pytest.raises(ProtocolError, match="agent 0"):
        gossip_round(agents, mixing, 0, None, _entry(), compression=True)


def test_stl_fills_only_the_diagonal():
    seq = generate_synthetic_sequence(3, 2, 16, 40, 8)
    result = run_stl(_config("ring", 4, epochs=1), seq)
    for t in range(3):
        for i in range(t + 1):
            if i == t:
                assert not np.isnan(result.accuracy.get(t, i))
            else:
                assert np.isnan(result.accuracy.get(t, i))


def test_gpm_state_is_shared_and_grows(tmp_path):
    seq = generate_synthetic_sequence(2, 2, 16, 40, 6)
    result = run_sequence(_config("ring", 4), seq)
    assert result.gpm is not None
    assert all(r > 0 for r in result.gpm.ranks())
    naive = run_naive(_config("ring", 4), seq)
    assert naive.gpm is None


def test_baselines_leave_the_callers_config_alone():
    seq = generate_synthetic_sequence(1, 2, 16, 40, 6)
    for run in (run_naive, run_stl, run_dewc):
        cfg = _config("ring", 4, epochs=1)
        run(cfg, seq)
        assert cfg.compression is True
        assert cfg == _config("ring", 4, epochs=1)


def test_learning_rate_decay_changes_late_rounds():
    seq = generate_synthetic_sequence(1, 2, 16, 60, 12)
    flat = run_sequence(_config("ring", 4, epochs=4), seq)
    decayed = run_sequence(_config("ring", 4, epochs=4, lr_decay=True), seq)
    assert not np.array_equal(flat.final_params, decayed.final_params)


def test_agent_topology_mismatch_rejected():
    seq = generate_synthetic_sequence(1, 2, 16, 40, 6)
    cfg = _config("ring", 4)
    cfg.agents = 5
    with pytest.raises(ValueError):
        run_sequence(cfg, seq)


def test_input_width_mismatch_rejected():
    seq = generate_synthetic_sequence(1, 2, 8, 40, 6)
    with pytest.raises(ValueError):
        run_sequence(_config("ring", 4), seq)
