"""Dense linear algebra helpers against independent oracles.

The fixtures come from numpy.linalg (QR for orthonormal bases), and the
spectral radius is cross-checked against a dense numpy.linalg.eigvals
of the disagreement operator built here.
"""

import numpy as np
import pytest

from dccl.linalg import (
    frobenius_norm,
    orthonormal_complement,
    spectral_radius_nontrivial,
)


def test_frobenius_norm_of_three_four_five():
    assert frobenius_norm(np.array([[3.0, 4.0]])) == pytest.approx(5.0, abs=1e-14)


def test_orthonormal_complement_of_empty_is_identity():
    o = orthonormal_complement(np.zeros((5, 0)))
    assert o.shape == (5, 5)
    assert np.array_equal(o, np.eye(5))


def test_orthonormal_complement_of_full_basis_is_empty():
    u, _ = np.linalg.qr(np.random.default_rng(11).standard_normal((4, 4)))
    o = orthonormal_complement(u)
    assert o.shape == (4, 0)


def test_orthonormal_complement_properties():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(1, 12))
        r = int(rng.integers(0, n + 1))
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        m = u[:, :r]
        o = orthonormal_complement(m)
        assert o.shape == (n, n - r)
        if n - r:
            assert np.max(np.abs(o.T @ o - np.eye(n - r))) <= 1e-9
        if r and n - r:
            assert np.max(np.abs(m.T @ o)) <= 1e-9
        assert np.max(np.abs(m @ m.T + o @ o.T - np.eye(n))) <= 1e-9


def test_orthonormal_complement_rejects_skewed_columns():
    bad = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        orthonormal_complement(bad)


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
        assert spectral_radius_nontrivial(w) <= 1e-12


def test_spectral_radius_single_agent_is_zero():
    assert spectral_radius_nontrivial(np.array([[1.0]])) == 0.0


def test_spectral_radius_directed_ring_four():
    w = _ring_mixing(4)
    got = spectral_radius_nontrivial(w)
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
        got = spectral_radius_nontrivial(w)
        want = _nontrivial_radius_oracle(w)
        assert abs(got - want) <= 1e-9


def test_spectral_radius_rejects_non_stochastic_input():
    with pytest.raises(ValueError):
        spectral_radius_nontrivial(np.array([[0.5, 0.2], [0.5, 0.8]]))
    with pytest.raises(ValueError):
        spectral_radius_nontrivial(np.zeros((2, 3)))
