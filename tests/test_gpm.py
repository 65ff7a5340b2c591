"""Projection memory: basis growth, orthogonal projection, and the codec.

The memory-growth oracle recomputes the selection rule from scratch with
numpy.linalg.svd: project the representation off the current span, take the
SVD of the residual, and keep the smallest prefix whose captured energy
(plus what the span already covers) crosses the threshold.
"""

import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dccl.gpm import (
    GpmState,
    LayerBasis,
    load_state,
    project,
    save_state,
    update_memory,
)
from dccl.topology import Topology
from dccl.trainer import TrainConfig


def _basis(rng, n, r):
    # one complete QR: the first r columns are the memory, the rest its complement
    q, _ = np.linalg.qr(rng.standard_normal((n, max(r, 1))), mode="complete")
    return LayerBasis(m=q[:, :r], o=q[:, r:])


def _state(rng, dims, ranks):
    return GpmState(layers=[_basis(rng, n, r) for n, r in zip(dims, ranks)])


def test_project_with_empty_memory_is_identity():
    g = np.random.default_rng(1).standard_normal((6, 4))
    out = project(g, np.zeros((6, 0)))
    assert np.array_equal(out, g)


def test_project_onto_full_span_gives_zero():
    rng = np.random.default_rng(2)
    basis = _basis(rng, 5, 5)
    g = rng.standard_normal((5, 3))
    assert np.max(np.abs(project(g, basis.m))) <= 1e-12


def test_project_against_first_axis_zeroes_first_row():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((4, 3))
    e1 = np.zeros((4, 1))
    e1[0, 0] = 1.0
    out = project(g, e1)
    assert np.max(np.abs(out[0])) <= 1e-14
    assert np.array_equal(out[1:], g[1:])


def test_projection_is_idempotent():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        r = int(rng.integers(0, n + 1))
        basis = _basis(rng, n, r)
        g = rng.standard_normal((n, int(rng.integers(1, 6))))
        once = project(g, basis.m)
        twice = project(once, basis.m)
        assert np.max(np.abs(twice - once)) <= 1e-10 * max(1.0, np.max(np.abs(g)))
        if r:
            assert np.max(np.abs(basis.m.T @ once)) <= 1e-10 * max(1.0, np.max(np.abs(g)))


def test_project_rejects_row_mismatch():
    with pytest.raises(ValueError):
        project(np.zeros((4, 2)), np.zeros((5, 1)))


def _oracle_new_rank(m, rep, eps):
    total = np.linalg.norm(rep) ** 2
    if total == 0.0:
        return 0
    if m.shape[1]:
        covered = np.linalg.norm(m.T @ rep) ** 2
        residual = rep - m @ (m.T @ rep)
    else:
        covered = 0.0
        residual = rep
    if covered >= eps * total:
        return 0
    s = np.linalg.svd(residual, compute_uv=False)
    energy = covered
    for k, sv in enumerate(s, start=1):
        energy += sv * sv
        if energy >= eps * total:
            return min(k, m.shape[0] - m.shape[1])
    return min(int(np.sum(s > 0)), m.shape[0] - m.shape[1])


def test_rank_one_representation_adds_one_column():
    rng = np.random.default_rng(5)
    state = GpmState.fresh([6])
    direction = rng.standard_normal((6, 1))
    rep = direction @ rng.standard_normal((1, 20))
    new = update_memory(state, [rep], 0.9)
    assert new.layers[0].rank == 1
    # the added column spans the same line as the construction direction
    unit = direction / np.linalg.norm(direction)
    dot = abs(float(new.layers[0].m[:, 0] @ unit[:, 0]))
    assert dot == pytest.approx(1.0, abs=1e-10)


def test_covered_representation_changes_nothing():
    rng = np.random.default_rng(6)
    state = _state(rng, [7], [3])
    m = state.layers[0].m
    rep = m @ rng.standard_normal((3, 15))
    new = update_memory(state, [rep], 0.97)
    assert new.layers[0].rank == 3
    assert np.array_equal(new.layers[0].m, m)


def test_energy_equal_to_the_target_is_enough_to_stop_growing():
    """GPM's criterion is "at least eps of the energy": the residual
    energies of diag(3, 4) are 16 and then 25 of 25, and at eps 0.64 the
    target is exactly 16.0, so one direction meets it."""
    state = update_memory(GpmState.fresh([2]), [np.diag([3.0, 4.0])], 0.64)
    assert state.ranks() == [1]


def test_covered_energy_equal_to_the_target_keeps_the_basis():
    """The rank-1 memory of diag(3, 4) at eps 0.64 covers 16.0 of its 25,
    exactly the target, so the same representation leaves the layer's
    basis object in place."""
    rep = np.diag([3.0, 4.0])
    state = update_memory(GpmState.fresh([2]), [rep], 0.64)
    assert update_memory(state, [rep], 0.64).layers[0] is state.layers[0]


def test_untouched_layers_are_the_same_objects():
    rng = np.random.default_rng(61)
    # zero representation, covered representation, saturated layer, growth
    state = _state(rng, [5, 6, 3, 4], [2, 3, 3, 0])
    reps = [
        np.zeros((5, 8)),
        state.layers[1].m @ rng.standard_normal((3, 8)),
        rng.standard_normal((3, 8)),
        rng.standard_normal((4, 8)),
    ]
    new = update_memory(state, reps, 0.9)
    for old, kept in zip(state.layers[:3], new.layers[:3]):
        assert kept is old
    assert new.layers[3] is not state.layers[3]
    assert new.layers[3].rank > 0


def test_bases_are_read_only():
    rng = np.random.default_rng(62)
    grown = update_memory(GpmState.fresh([4]), [rng.standard_normal((4, 6))], 0.5)
    for basis in (_basis(rng, 4, 2), GpmState.fresh([4]).layers[0], grown.layers[0]):
        for array in (basis.m, basis.o):
            assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            basis.o[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            basis.m[...] += 1.0
        with pytest.raises(FrozenInstanceError):
            basis.m = np.zeros((4, 0))
    with pytest.raises(FrozenInstanceError):
        grown.layers = []


def test_memory_growth_matches_prefix_energy_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 10))
        r = int(rng.integers(0, n))
        eps = float(rng.uniform(0.5, 0.99))
        state = _state(rng, [n], [r])
        kind = rng.integers(0, 3)
        if kind == 0:
            rep = rng.standard_normal((n, int(rng.integers(1, 25))))
        elif kind == 1:
            k = int(rng.integers(1, n + 1))
            rep = rng.standard_normal((n, k)) @ rng.standard_normal((k, 12))
        else:
            rep = state.layers[0].m @ rng.standard_normal((r, 12)) if r else np.zeros((n, 12))
        want = r + _oracle_new_rank(state.layers[0].m, rep, eps)
        new = update_memory(state, [rep], eps)
        assert new.layers[0].rank == want
        got_m = new.layers[0].m
        if want:
            assert np.max(np.abs(got_m.T @ got_m - np.eye(want))) <= 1e-9
        # old span is preserved exactly
        if r:
            assert np.array_equal(got_m[:, :r], state.layers[0].m)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 16),
    samples=st.integers(1, 24),
    eps=st.floats(0.3, 0.99),
    leak=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_growth_in_complement_coordinates_until_saturation(n, samples, eps, leak, seed):
    rng = np.random.default_rng(seed)
    state = GpmState.fresh([n])
    grew = True
    for _ in range(2 * n + 1):
        old = state.layers[0]
        r = old.rank
        if r == n:
            break
        # after a call that left the memory alone, feed pure complement data
        # so every other call is guaranteed to grow the rank
        weight = leak if grew else 0.0
        rep = old.o @ rng.standard_normal((n - r, samples))
        if r:
            rep += weight * old.m @ rng.standard_normal((r, samples))
        want = r + _oracle_new_rank(old.m, rep, eps)
        state = update_memory(state, [rep], eps)
        new = state.layers[0]
        assert new.rank == want
        assert new.rank >= r
        assert np.array_equal(new.m[:, :r], old.m)
        full = np.concatenate([new.m, new.o], axis=1)
        assert full.shape == (n, n)
        assert np.max(np.abs(full.T @ full - np.eye(n))) <= 1e-10
        grew = new.rank > r
    assert state.layers[0].rank == n
    assert state.layers[0].o.shape == (n, 0)


def test_update_memory_validates_inputs():
    state = GpmState.fresh([4])
    with pytest.raises(ValueError):
        update_memory(state, [np.zeros((4, 3))], 1.2)
    with pytest.raises(ValueError):
        update_memory(state, [np.zeros((4, 3)), np.zeros((4, 3))], 0.9)
    with pytest.raises(ValueError):
        update_memory(state, [np.zeros((5, 3))], 0.9)


def test_ranks_never_shrink_over_a_sequence():
    rng = np.random.default_rng(8)
    state = GpmState.fresh([8, 6])
    ranks = [state.ranks()]
    for _ in range(6):
        reps = [rng.standard_normal((8, 10)), rng.standard_normal((6, 10))]
        state = update_memory(state, reps, 0.8)
        ranks.append(state.ranks())
    for before, after in zip(ranks, ranks[1:]):
        assert all(b <= a for b, a in zip(before, after))
    assert all(r <= n for r, n in zip(state.ranks(), [8, 6]))


def test_descent_check_equals_projected_norm():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        n = int(rng.integers(2, 16))
        r = int(rng.integers(0, n + 1))
        basis = _basis(rng, n, r)
        g = rng.standard_normal((n, int(rng.integers(1, 5))))
        gt = project(g, basis.m)
        ip = float(np.sum(g * gt))
        norm_sq = float(np.sum(gt * gt))
        assert ip >= -1e-12
        assert abs(ip - norm_sq) <= 1e-8 * max(1.0, float(np.sum(g * g)))


@st.composite
def _basis_case(draw):
    """A random basis of width n and rank 0..n, and a random generator for
    updates with a leading agent axis."""
    n = draw(st.integers(1, 16))
    r = draw(st.integers(0, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 5)), n, draw(st.integers(1, 6)))
    return _basis(rng, n, r), rng, shape


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=_basis_case())
def test_codec_round_trip_property(case):
    basis, rng, (agents, n, cols) = case
    q = basis.o @ rng.standard_normal((agents, basis.o.shape[1], cols))
    back = basis.o @ (basis.o.T @ q)
    assert back.shape == q.shape
    assert np.max(np.abs(back - q), initial=0.0) <= 1e-12 * max(1.0, np.max(np.abs(q)))
    covered = basis.m @ rng.standard_normal((agents, basis.rank, cols))
    leaked = basis.o.T @ covered
    assert np.max(np.abs(leaked), initial=0.0) <= 1e-12 * max(
        1.0, np.max(np.abs(covered), initial=0.0)
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=_basis_case())
def test_projection_is_idempotent_and_orthogonal_to_memory(case):
    basis, rng, shape = case
    g = rng.standard_normal(shape)
    scale = max(1.0, np.max(np.abs(g)))
    once = project(g, basis.m)
    twice = project(once, basis.m)
    assert np.max(np.abs(twice - once)) <= 1e-12 * scale
    assert np.max(np.abs(basis.m.T @ once), initial=0.0) <= 1e-12 * scale


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=_basis_case())
def test_descent_identity_property(case):
    basis, rng, shape = case
    g = rng.standard_normal(shape)
    g_tilde = project(g, basis.m)
    ip = np.sum(g * g_tilde, axis=(-2, -1))
    norm_sq = np.sum(g_tilde * g_tilde, axis=(-2, -1))
    scale = np.maximum(1.0, np.sum(g * g, axis=(-2, -1)))
    assert ip.shape == (shape[0],)
    assert np.all(ip >= -1e-12 * scale)
    assert np.all(np.abs(ip - norm_sq) <= 1e-12 * scale)


def test_state_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    state = _state(rng, [6, 4], [2, 0])
    path = tmp_path / "state.txt"
    save_state(state, str(path))
    back = load_state(str(path))
    for a, b in zip(state.layers, back.layers):
        assert np.array_equal(a.m, b.m)
        assert np.array_equal(a.o, b.o)
    first = path.read_bytes()
    save_state(back, str(path))
    assert path.read_bytes() == first


def _plain_state_text(state):
    """``save_state``'s format written the plain way, one ``float.hex`` per entry."""
    lines = ["gpm-state 1", f"layers {len(state.layers)}"]
    for idx, basis in enumerate(state.layers):
        lines.append(f"layer {idx} dim {basis.dim} rank {basis.rank}")
        for name, mat in (("m", basis.m), ("o", basis.o)):
            lines.append(f"{name} {mat.shape[1]}")
            lines += [" ".join(map(float.hex, col)) for col in mat.T.tolist()]
    return "\n".join(lines) + "\n"


_SIGN_BIT, _EXP_ALL = 1 << 63, 0x7FF << 52
# any float64 bit pattern, with the cases float.hex writes apart drawn often:
# +-0, subnormals, +-inf and nans with payloads of either sign
_BIT_PATTERNS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.sampled_from([0, _SIGN_BIT, _EXP_ALL, _SIGN_BIT | _EXP_ALL]),
    st.tuples(st.sampled_from([0, _SIGN_BIT, _EXP_ALL, _SIGN_BIT | _EXP_ALL]),
              st.integers(1, 2**52 - 1)).map(lambda p: p[0] | p[1]),
)


@st.composite
def _bit_pattern_state(draw):
    layers = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 5))
        r = draw(st.integers(0, n))  # r = n leaves an o of width 0
        bits = draw(st.lists(_BIT_PATTERNS, min_size=n * n, max_size=n * n))
        mat = np.array(bits, dtype=np.uint64).view(np.float64).reshape(n, n)
        layers.append(LayerBasis(m=mat[:, :r], o=mat[:, r:]))
    return GpmState(layers=layers)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(state=_bit_pattern_state())
def test_saved_state_is_the_plain_float_hex_rendering(state, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "bit_patterns.txt"
    save_state(state, str(path))
    assert path.read_bytes() == _plain_state_text(state).encode()


_ONE = "0x1.0000000000000p+0"


def test_state_loader_rejects_garbage(tmp_path):
    """Every text ``save_state`` would not write raises ``ValueError``
    naming the file, where a lenient reader would load a wrong shape,
    ignore the text or fail on an index."""
    path = tmp_path / "state.txt"
    for text in (
        "not a state file\n",
        # columns of one entry for a layer of dim 2
        f"gpm-state 1\nlayers 1\nlayer 0 dim 2 rank 1\nm 1\n{_ONE}\no 1\n{_ONE}\n",
        # a rank above the dim
        f"gpm-state 1\nlayers 1\nlayer 0 dim 1 rank 2\nm 2\n{_ONE}\n{_ONE}\no -1\n",
        # a line after the last layer
        "gpm-state 1\nlayers 0\nlayer 0 dim 1 rank 0\n",
        # no layer count
        "gpm-state 1\nlayers\n",
        # a layer line without its rank
        "gpm-state 1\nlayers 1\nlayer 0 dim 2\n",
    ):
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_state(str(path))


def test_threshold_schedule_values_and_range():
    """Task t's threshold is ``eps_base + eps_increment * t``, which must
    lie in (0, 1): for task 0 when the config is made, for a later task
    when it is asked for."""

    def schedule(base, increment):
        return TrainConfig(
            eta=0.1, epochs=1, batch_size=1, eps_base=base, eps_increment=increment,
            topology=Topology("ring", 1), seed=0, method="codec", lam=0.0,
            dims=[1], rep_samples=1, debug_checks=False,
        )

    sched = schedule(0.9, 0.01)
    assert sched.threshold(0) == 0.9
    assert sched.threshold(3) == 0.9 + 0.01 * 3
    with pytest.raises(ValueError, match="^eps_base 1.2: threshold 1.2 for task 0"):
        schedule(1.2, 0.0)
    with pytest.raises(ValueError, match="^eps_base 0.99 and eps_increment 0.02: "):
        schedule(0.99, 0.02).threshold(1)
