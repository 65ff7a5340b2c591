"""Whole runs of ``run`` against the plain per-agent reference engine of
``reference.py``, which sends every message on its own."""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dccl.tasks import generate_synthetic_sequence
from dccl.topology import Topology, parse_topology
import dccl.model
import dccl.trainer
from dccl.trainer import _BLOCK, METHODS, Outer, TrainConfig, run
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


def _projectors(m):
    """Each column's projector ``m_j m_j^T``, shape (cols, dim, dim)."""
    return np.einsum("ij,kj->jik", m, m)


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


# codec runs on a ring of 4 agents over 3 tasks, swept in blocks of 30
# elements: alone they reach every branch of the round's sweep and of the
# loss (``test_the_examples_reach_every_branch``)
_SMALL_BLOCK_RUNS = [
    dict(method="codec", graph="ring", n=4, tasks=3, block=30, seed=seed)
    for seed in (767, 371)
]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    method=st.sampled_from(METHODS),
    graph=st.sampled_from(["ring", "torus", "full", "custom"]),
    n=st.integers(1, 5),
    tasks=st.integers(1, 3),
    block=st.sampled_from([4, 7, 12, 30, _BLOCK]),
    seed=st.integers(0, 2**31 - 1),
)
# layer 0 (width 2) saturates after task 0, so tasks 1 and 2 train it with
# coefficients of width 0 beside a factored layer 1 of rank 1
@example(method="codec", graph="ring", n=3, tasks=3, block=_BLOCK, seed=14)
# the coefficient state on torus:2x3
@example(method="codec", graph="torus", n=6, tasks=3, block=_BLOCK, seed=6)
@example(**_SMALL_BLOCK_RUNS[0])
@example(**_SMALL_BLOCK_RUNS[1])
def test_run_matches_the_per_agent_reference(**draw):
    _check_run(**draw)


def _check_run(method, graph, n, tasks, block, seed):
    """One run of ``run``, its round swept in blocks of ``block`` elements,
    against ``reference_run``."""
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
        tasks, int(rng.integers(2, 10)), dim, int(rng.integers(4, 9)), seed
    )
    cfg = TrainConfig(
        eta=float(rng.choice([0.05, 0.3])),
        epochs=int(rng.integers(1, 3)),
        batch_size=int(rng.integers(1, 5)),
        eps_base=float(rng.choice([0.6, 0.9])),
        eps_increment=0.02,
        topology=topology,
        seed=seed,
        method=method,
        lam=float(rng.choice([0.0, 2.0])),
        dims=[dim, *(int(d) for d in hidden)],
        rep_samples=int(rng.integers(1, 9)),
        debug_checks=False,
    )
    with mock.patch.object(dccl.trainer, "_BLOCK", block):
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
            # a column's sign follows the completion of o before it, so each
            # column is compared as its projector m_j m_j^T
            _close(_projectors(a.m), _projectors(b.m), f"layer {l} memory")
            # compared as a span: past the residual's rank, the columns of o
            # are whatever completion LAPACK picks for a null space
            _close(a.o @ a.o.T, b.o @ b.o.T, f"layer {l} complement")


def test_the_examples_reach_every_branch():
    """The small-block examples alone reach every branch of the round's
    sweep (pair and whole gradients in several blocks, a ragged whole
    block, a folded 1-row tail, deviation sums that span pair blocks), both
    forms of mu's lost norm and both paths of the loss's class reduction."""
    seen = set()
    bounds, lost_sq = dccl.trainer._bounds, dccl.trainer._lost_sq
    over_classes = dccl.model._over_classes

    def counted_bounds(g, cols):
        cuts = bounds(g, cols)
        pair = isinstance(g, Outer)
        if len(cuts) > 2:
            seen.add("pair blocks" if pair else "whole blocks")
        if not pair and len(cuts) > 2 and cuts[-1] % cols:
            seen.add("ragged whole block")
        if pair:
            n_out = g.shape[-1]
            if cuts[-1] - cuts[-2] > max(2, cols // 2 // n_out) * n_out:
                seen.add("folded tail")
            if any(c % cols for c in cuts[1:-1]):
                seen.add("deviations across pair blocks")
        return cuts

    def counted_lost_sq(x, m, dz, *rest):
        grams = dccl.trainer._factored(x @ m, dz)
        seen.add("lost norm from Grams" if grams else "lost norm whole")
        return lost_sq(x, m, dz, *rest)

    def counted_over_classes(ufunc, a):
        seen.add("class reduction" if a.shape[-1] >= 8 else "class loop")
        return over_classes(ufunc, a)

    with (
        mock.patch.object(dccl.trainer, "_bounds", counted_bounds),
        mock.patch.object(dccl.trainer, "_lost_sq", counted_lost_sq),
        mock.patch.object(dccl.model, "_over_classes", counted_over_classes),
    ):
        for draw in _SMALL_BLOCK_RUNS:
            _check_run(**draw)
    assert seen == {
        "pair blocks", "whole blocks", "ragged whole block", "folded tail",
        "deviations across pair blocks", "lost norm from Grams", "lost norm whole",
        "class reduction", "class loop",
    }
