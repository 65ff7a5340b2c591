"""Whole runs of ``run`` against the plain per-agent reference engine of
``reference.py``, which sends every message on its own."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dccl.gpm import ThresholdSchedule
from dccl.tasks import generate_synthetic_sequence
from dccl.topology import Topology, parse_topology
from dccl.trainer import EWC_MODES, METHODS, TrainConfig, run
from reference import reference_run

# largest difference allowed in a float result, relative to the largest
# magnitude of the compared quantity: rounding only, never an algorithm change
TOL = 1e-12


def _close(got, want, what):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, what
    scale = np.max(np.abs(want), initial=0.0)
    err = np.max(np.abs(got - want), initial=0.0)
    assert err <= TOL * scale, f"{what}: off by {err:.3e} of {scale:.3e}"


def _custom_graph(n, rng):
    """A random connected undirected graph: a random spanning tree plus extras."""
    adj = np.zeros((n, n))
    order = rng.permutation(n)
    for k in range(1, n):
        i, j = order[k], order[int(rng.integers(0, k))]
        adj[i, j] = adj[j, i] = 1.0
    extra = np.triu(rng.random((n, n)) < 0.3, 1)
    adj[extra | extra.T] = 1.0
    np.fill_diagonal(adj, 0.0)
    return Topology("custom", n, adjacency=adj)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    method=st.sampled_from(METHODS),
    graph=st.sampled_from(["ring", "torus", "full", "custom"]),
    n=st.integers(1, 5),
    tasks=st.integers(1, 3),
    use_bias=st.booleans(),
    lr_decay=st.booleans(),
    ewc_mode=st.sampled_from(EWC_MODES),
    seed=st.integers(0, 2**31 - 1),
)
# layer 0 (width 2) saturates after task 0, so tasks 1 and 2 train it with
# coefficients of width 0 beside a factored layer 1 of rank 1
@example(
    method="codec", graph="ring", n=3, tasks=3, use_bias=False, lr_decay=False,
    ewc_mode="online", seed=14,
)
# the coefficient state with biases and the step-size decay on torus:2x3
@example(
    method="codec", graph="torus", n=6, tasks=3, use_bias=True, lr_decay=True,
    ewc_mode="online", seed=6,
)
def test_run_matches_the_per_agent_reference(
    method, graph, n, tasks, use_bias, lr_decay, ewc_mode, seed
):
    rng = np.random.default_rng(seed)
    if graph == "torus":
        rows = int(rng.choice([r for r in range(1, n + 1) if n % r == 0]))
        topology = parse_topology(f"torus:{rows}x{n // rows}", n)
    elif graph == "custom":
        topology = _custom_graph(n, rng)
    else:
        topology = parse_topology(graph, n)
    dim = int(rng.integers(2, 6))
    hidden = rng.integers(1, 6, size=int(rng.integers(1, 3)))
    seq = generate_synthetic_sequence(
        tasks, int(rng.integers(2, 4)), dim, int(rng.integers(4, 9)), seed
    )
    cfg = TrainConfig(
        eta=float(rng.choice([0.05, 0.3])),
        epochs=int(rng.integers(1, 3)),
        batch_size=int(rng.integers(1, 5)),
        threshold=ThresholdSchedule(float(rng.choice([0.6, 0.9])), 0.02),
        topology=topology,
        seed=seed,
        method=method,
        lam=float(rng.choice([0.0, 2.0])),
        ewc_mode=ewc_mode,
        dims=[dim, *(int(d) for d in hidden)],
        use_bias=use_bias,
        rep_samples=int(rng.integers(1, 9)),
        lr_decay=lr_decay,
    )
    got = run(cfg, seq)
    acc, logs, final, memory = reference_run(cfg, seq)
    assert np.array_equal(got.accuracy, acc, equal_nan=True)
    rows = [
        (e.task, r, i, sent)
        for e in got.ledger
        for r in range(e.rounds)
        for i, sent in enumerate(e.scalars_sent)
    ]
    assert rows == [(*r[:3], r[6]) for r in logs]
    want = np.array([row[3:6] for row in logs]).reshape(-1, 3)
    _close(got.loss.ravel(), want[:, 0], "loss")
    _close(np.repeat(got.consensus_error, n), want[:, 1], "consensus error")
    _close(got.mu.ravel(), want[:, 2], "mu")
    _close(got.final_params, final, "final parameters")
    if memory is None:
        assert got.gpm is None
    else:
        assert got.gpm.ranks() == memory.ranks()
        for l, (a, b) in enumerate(zip(got.gpm.layers, memory.layers)):
            _close(a.m, b.m, f"layer {l} memory")
            # compared as a span: past the residual's rank, the columns of o
            # are whatever completion LAPACK picks for a null space
            _close(a.o @ a.o.T, b.o @ b.o.T, f"layer {l} complement")
