"""Graph construction, mixing weights, and the consensus-feasibility check."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dccl.topology import (
    Topology,
    build_mixing,
    load_custom_topology,
    neighbors,
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


def test_ring_neighbors_include_self_and_successor():
    topo = parse_topology("ring", 4)
    assert neighbors(topo, 3) == [3, 0]
    assert neighbors(topo, 1) == [1, 2]


def test_torus_neighbors_wrap_both_axes():
    topo = parse_topology("torus:4x4", 16)
    assert set(neighbors(topo, 5)) == {5, 1, 9, 4, 6}
    assert set(neighbors(topo, 0)) == {0, 12, 4, 3, 1}


def test_small_torus_merges_duplicate_edges():
    topo = parse_topology("torus:2x2", 4)
    # up and down point at the same node, so only two distinct peers remain
    assert set(neighbors(topo, 0)) == {0, 1, 2}


def test_full_neighbors_are_everyone():
    topo = parse_topology("full", 3)
    assert set(neighbors(topo, 0)) == {0, 1, 2}


def test_custom_topology_round_trip(tmp_path):
    path = tmp_path / "adj.txt"
    path.write_text("1 1 0\n1 1 1\n0 1 1\n")
    topo = parse_topology(f"custom:{path}", 3)
    assert set(neighbors(topo, 0)) == {0, 1}
    assert set(neighbors(topo, 1)) == {0, 1, 2}


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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 12),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_mixing_is_doubly_stochastic_on_random_connected_graphs(n, density, seed):
    rng = np.random.default_rng(seed)
    adj = np.eye(n)
    for i in range(1, n):  # a random spanning tree keeps the graph connected
        j = int(rng.integers(0, i))
        adj[i, j] = adj[j, i] = 1.0
    extra = np.triu(rng.random((n, n)) < density, k=1)
    adj = np.maximum(adj, extra + extra.T)
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
