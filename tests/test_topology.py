"""Graph construction, mixing weights, and the consensus-feasibility check.

The mixing matrix is built from the adjacency by matrix expressions; the
reference here is a per-edge loop over per-kind neighbor lists.  The
spectral gap is cross-checked against a dense numpy.linalg.eigvals of the
disagreement operator built here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dccl.topology import (
    Topology,
    build_mixing,
    load_custom_topology,
    parse_topology,
    validate_assumption3,
)


def test_parse_ring_full_torus():
    assert parse_topology("ring", 5).kind == "ring"
    assert parse_topology("full", 3).kind == "full"
    torus = parse_topology("torus:2x3", 6)
    assert torus.kind == "torus"
    assert (torus.rows, torus.cols) == (2, 3)


def test_parse_torus_dimension_mismatch():
    with pytest.raises(ValueError, match="9"):
        parse_topology("torus:3x3", 8)


def test_parse_unknown_topology():
    with pytest.raises(ValueError):
        parse_topology("hypercube", 8)


def test_parse_bad_torus_spec():
    with pytest.raises(ValueError):
        parse_topology("torus:3", 3)


def _row(topology, i):
    """Node i's in-neighborhood, itself included: the support of adjacency row i."""
    return {int(j) for j in np.flatnonzero(topology.adjacency[i])}


def test_ring_neighbors_include_self_and_successor():
    topo = parse_topology("ring", 4)
    assert _row(topo, 3) == {3, 0}
    assert _row(topo, 1) == {1, 2}


def test_torus_neighbors_wrap_both_axes():
    topo = parse_topology("torus:4x4", 16)
    assert _row(topo, 5) == {5, 1, 9, 4, 6}
    assert _row(topo, 0) == {0, 12, 4, 3, 1}


def test_small_torus_merges_duplicate_edges():
    topo = parse_topology("torus:2x2", 4)
    # up and down point at the same node, so only two distinct peers remain
    assert _row(topo, 0) == {0, 1, 2}


def test_full_neighbors_are_everyone():
    topo = parse_topology("full", 3)
    assert _row(topo, 0) == {0, 1, 2}


def test_custom_topology_round_trip(tmp_path):
    path = tmp_path / "adj.txt"
    path.write_text("1 1 0\n1 1 1\n0 1 1\n")
    topo = parse_topology(f"custom:{path}", 3)
    assert _row(topo, 0) == {0, 1}
    assert _row(topo, 1) == {0, 1, 2}


def test_custom_topology_disconnected_rejected(tmp_path):
    path = tmp_path / "adj.txt"
    path.write_text("1 1 0 0\n1 1 0 0\n0 0 1 1\n0 0 1 1\n")
    with pytest.raises(ValueError, match="disconnected"):
        parse_topology(f"custom:{path}", 4)


def test_custom_topology_asymmetric_rejected(tmp_path):
    path = tmp_path / "adj.txt"
    path.write_text("1 1\n0 1\n")
    with pytest.raises(ValueError, match="symmetric"):
        load_custom_topology(str(path), 2)


def test_custom_topology_bad_entry_names_line(tmp_path):
    path = tmp_path / "adj.txt"
    path.write_text("1 1\n1 2\n")
    with pytest.raises(ValueError, match=":2:"):
        load_custom_topology(str(path), 2)


def test_mixing_is_doubly_stochastic():
    for text, n in (
        ("ring", 4),
        ("ring", 9),
        ("torus:2x4", 8),
        ("torus:3x3", 9),
        ("full", 6),
    ):
        w = build_mixing(parse_topology(text, n)).w
        assert np.all(w >= 0.0)
        assert np.max(np.abs(w.sum(axis=0) - 1.0)) <= 1e-12
        assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-12


def _random_connected(n, density, seed):
    rng = np.random.default_rng(seed)
    adj = np.eye(n)
    for i in range(1, n):  # a random spanning tree keeps the graph connected
        j = int(rng.integers(0, i))
        adj[i, j] = adj[j, i] = 1.0
    extra = np.triu(rng.random((n, n)) < density, k=1)
    return np.maximum(adj, extra + extra.T)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 12),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_mixing_is_doubly_stochastic_on_random_connected_graphs(n, density, seed):
    adj = _random_connected(n, density, seed)
    mixing = build_mixing(Topology("custom", n, adjacency=adj))
    w = mixing.w
    assert np.all(w >= 0.0)
    assert np.array_equal(w, w.T)
    assert np.max(np.abs(w.sum(axis=0) - 1.0)) <= 1e-12
    assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-12
    assert np.all((w > 0.0) == (adj > 0.0))
    assert validate_assumption3(mixing).passed


def test_ring_mixing_weights_are_half_half():
    w = build_mixing(parse_topology("ring", 5)).w
    for i in range(5):
        assert w[i, i] == 0.5
        assert w[i, (i + 1) % 5] == 0.5
    assert np.count_nonzero(w) == 10


def test_full_mixing_is_uniform():
    w = build_mixing(parse_topology("full", 4)).w
    assert np.max(np.abs(w - 0.25)) <= 1e-15


def test_powers_converge_to_uniform():
    # contraction is geometric in sqrt_rho; the slow ring-16 case needs more
    # steps than the faster graphs
    cases = [
        ("ring", 4, 500),
        ("ring", 8, 500),
        ("ring", 16, 1600),
        ("torus:2x2", 4, 500),
        ("torus:4x4", 16, 500),
        ("full", 16, 2),
    ]
    for text, n, k in cases:
        w = build_mixing(parse_topology(text, n)).w
        p = np.linalg.matrix_power(w, k)
        assert np.max(np.abs(p - 1.0 / n)) <= 1e-12, (text, n, k)


def test_sqrt_rho_matches_eig_oracle():
    for text, n in (("ring", 4), ("ring", 8), ("torus:2x4", 8), ("full", 5)):
        mixing = build_mixing(parse_topology(text, n))
        b = (np.eye(n) - np.ones((n, n)) / n) @ mixing.w
        want = float(np.max(np.abs(np.linalg.eigvals(b))))
        assert mixing.sqrt_rho == pytest.approx(want, abs=1e-10)


def test_validator_passes_connected_graphs():
    for text, n in (("ring", 1), ("ring", 4), ("torus:2x4", 8), ("full", 16)):
        report = validate_assumption3(build_mixing(parse_topology(text, n)))
        assert report.passed
        assert report.sqrt_rho < 1.0


def test_validator_fails_identity_blocks():
    # two isolated agents: stochastic but never mixing
    report = validate_assumption3(np.eye(2))
    assert not report.passed
    assert report.sqrt_rho >= 1.0 - 1e-12


def test_validator_fails_non_stochastic_without_raising():
    report = validate_assumption3(np.array([[0.9, 0.2], [0.1, 0.8]]))
    assert not report.passed


def test_validator_report_prints_sqrt_rho():
    report = validate_assumption3(build_mixing(parse_topology("ring", 4)))
    text = "\n".join(report.lines())
    assert "0.7071" in text
    assert "PASS" in text


def _reference_neighbors(topology, i):
    """Neighbor lists per graph kind, self first, as walked edge by edge."""
    n = topology.n
    if n == 1:
        return [0]
    if topology.kind == "ring":
        return [i, (i + 1) % n]
    if topology.kind == "full":
        return [i] + [j for j in range(n) if j != i]
    if topology.kind == "torus":
        r, c = divmod(i, topology.cols)
        seen = [i]
        for rr, cc in (
            ((r - 1) % topology.rows, c),
            ((r + 1) % topology.rows, c),
            (r, (c - 1) % topology.cols),
            (r, (c + 1) % topology.cols),
        ):
            j = rr * topology.cols + cc
            if j not in seen:
                seen.append(j)
        return seen
    return [i] + [j for j in range(n) if j != i and topology.adjacency[i, j] > 0]


def _reference_mixing(topology):
    """Per-edge loop: 1/2 and 1/2 on the ring, Metropolis weights otherwise."""
    n = topology.n
    w = np.zeros((n, n))
    if n == 1:
        w[0, 0] = 1.0
    elif topology.kind == "ring":
        for i in range(n):
            w[i, i] = 0.5
            w[i, (i + 1) % n] = 0.5
    else:
        degs = [len(_reference_neighbors(topology, i)) - 1 for i in range(n)]
        for i in range(n):
            for j in _reference_neighbors(topology, i):
                if j != i:
                    w[i, j] = 1.0 / (1.0 + max(degs[i], degs[j]))
            w[i, i] = 1.0 - float(np.sum(w[i]))
    return w


@st.composite
def _topologies(draw):
    kind = draw(st.sampled_from(["ring", "torus", "full", "custom"]))
    if kind == "torus":
        rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
        return Topology("torus", rows * cols, rows=rows, cols=cols)
    n = draw(st.integers(1, 24))
    if kind == "custom":
        density = draw(st.floats(0.0, 1.0))
        seed = draw(st.integers(0, 2**32 - 1))
        return Topology("custom", n, adjacency=_random_connected(n, density, seed))
    return Topology(kind, n)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(topology=_topologies())
def test_matrix_built_mixing_equals_the_per_edge_loop(topology):
    assert np.array_equal(build_mixing(topology).w, _reference_mixing(topology))
    for i in range(topology.n):
        assert _row(topology, i) == set(_reference_neighbors(topology, i))


def test_custom_adjacency_is_checked_when_the_topology_is_built():
    with pytest.raises(ValueError, match="symmetric"):
        Topology("custom", 2, adjacency=np.array([[1.0, 1.0], [0.0, 1.0]]))
    split = np.kron(np.eye(2), np.ones((2, 2)))  # two separate pairs
    with pytest.raises(ValueError, match="disconnected"):
        Topology("custom", 4, adjacency=split)
    with pytest.raises(ValueError, match="0 or 1"):
        Topology("custom", 2, adjacency=np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError, match="3 agents"):
        Topology("custom", 3, adjacency=np.ones((2, 2)))


def test_built_adjacency_has_self_loops_and_is_read_only():
    given_adj = np.array([[0.0, 1.0], [1.0, 0.0]])
    topology = Topology("custom", 2, adjacency=given_adj)
    assert np.array_equal(topology.adjacency, np.ones((2, 2)))
    assert given_adj[0, 0] == 0.0  # the caller's matrix is left alone
    with pytest.raises(ValueError):
        topology.adjacency[0, 1] = 0.0


def _ring_mixing(n):
    w = np.zeros((n, n))
    for i in range(n):
        w[i, i] = 0.5
        w[i, (i + 1) % n] = 0.5
    return w


def _nontrivial_radius_oracle(w):
    n = w.shape[0]
    b = (np.eye(n) - np.ones((n, n)) / n) @ w
    return float(np.max(np.abs(np.linalg.eigvals(b))))


def test_spectral_radius_uniform_matrix_is_zero():
    for n in (1, 2, 5, 8):
        w = np.ones((n, n)) / n
        assert validate_assumption3(w).sqrt_rho <= 1e-12


def test_spectral_radius_single_agent_is_zero():
    assert validate_assumption3(np.array([[1.0]])).sqrt_rho == 0.0


def test_spectral_radius_directed_ring_four():
    w = _ring_mixing(4)
    got = validate_assumption3(w).sqrt_rho
    # second eigenvalue of the 4-cycle half-laziness matrix: |(1 + i) / 2|
    assert got == pytest.approx(0.7071067811865476, abs=1e-10)
    assert got == pytest.approx(_nontrivial_radius_oracle(w), abs=1e-10)


def test_spectral_radius_matches_eig_oracle_on_random_mixings():
    rng = np.random.default_rng(37)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        w = np.eye(n) * rng.uniform(0.2, 0.8)
        # symmetric doubly stochastic: convex mix of identity and permutations
        remaining = 1.0 - w[0, 0]
        for _ in range(3):
            perm = rng.permutation(n)
            p = np.zeros((n, n))
            p[np.arange(n), perm] = 1.0
            p = (p + p.T) / 2.0
            share = remaining * rng.uniform(0.2, 0.8)
            w += share * p
            remaining -= share
        w += remaining * np.eye(n)
        got = validate_assumption3(w).sqrt_rho
        want = _nontrivial_radius_oracle(w)
        assert abs(got - want) <= 1e-9


def test_spectral_radius_rejects_non_stochastic_input():
    for w in (np.array([[0.5, 0.2], [0.5, 0.8]]), np.zeros((2, 3))):
        report = validate_assumption3(w)
        assert not report.passed
        assert np.isnan(report.sqrt_rho)
