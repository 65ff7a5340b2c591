"""Gradient projection memory and the lossless subspace update codec.

Per trunk layer we keep two orthonormal bases of the layer's input space:
``m`` (n x r) spans directions important to past tasks, ``o`` (n x (n-r))
spans its orthogonal complement.  Gradients are projected onto span(o)
before stepping, so updates cannot disturb what earlier tasks rely on; the
same fact makes model deltas expressible in ``o`` coordinates, which is
what the communication codec exploits: coefficients ``c = o^T q`` are
(n-r)/n the size of ``q`` and decode back exactly via ``q = o c``.

So the trainer never projects: during a task it holds a layer with a
memory as ``x0 + o c`` and trains the coefficients ``c``, whose gradient
``(X o)^T dz`` is the projected one and whose updates are the codec's
messages.  While the memory is empty ``o = I`` and the layer stays plain;
once it spans the whole input ``c`` has no rows, so the layer is frozen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LayerBasis:
    """One layer's memory and complement; read-only, so one basis is shared
    by every agent and carried over unchanged by ``update_memory``."""

    m: np.ndarray  # (n, r), orthonormal columns
    o: np.ndarray  # (n, n - r), orthonormal complement

    def __post_init__(self) -> None:
        self.m.flags.writeable = self.o.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.m.shape[0]

    @property
    def rank(self) -> int:
        return self.m.shape[1]


@dataclass(frozen=True)
class GpmState:
    layers: list[LayerBasis]

    @classmethod
    def fresh(cls, layer_dims: list[int]) -> "GpmState":
        # empty memory: nothing to protect, any direction is transmittable
        return cls(
            layers=[
                LayerBasis(m=np.zeros((n, 0)), o=np.eye(n)) for n in layer_dims
            ]
        )

    def ranks(self) -> list[int]:
        return [b.rank for b in self.layers]


@dataclass(frozen=True)
class ThresholdSchedule:
    """Energy threshold for memory growth, raised a little after each task."""

    base: float
    increment_per_task: float = 0.0

    def __post_init__(self) -> None:
        if not self.increment_per_task >= 0.0:
            raise ValueError(
                "threshold increment must be non-negative, "
                f"got {self.increment_per_task}"
            )

    def value(self, task_index: int) -> float:
        eps = self.base + self.increment_per_task * task_index
        if not 0.0 < eps < 1.0:
            raise ValueError(
                f"threshold {eps} for task {task_index} is outside (0, 1)"
            )
        return eps


def project(g: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Remove the span(m) component of each column of g: g - m (m^T g).

    With an empty memory the columns are returned unchanged.  ``g`` may
    carry leading axes (one matrix per agent); the memory is shared.  The
    result is a new array, the buffer of the product ``m (m^T g)``; ``g``
    is not changed.
    """
    if g.shape[-2] != m.shape[0]:
        raise ValueError(
            f"matrix rows {g.shape[-2]} do not match basis rows {m.shape[0]}"
        )
    out = m @ (m.T @ g)
    return np.subtract(g, out, out=out)


def update_memory(
    state: GpmState, reps: list[np.ndarray], eps_th: float
) -> GpmState:
    """Grow each layer's memory to cover a fraction eps_th of its input energy.

    For a representation matrix R (columns are samples) the memory grows in
    complement coordinates: one SVD ``o^T R = U diag(s) V^T`` and the minimal
    k with ||m^T R||_F^2 + sum_{j<=k} s_j^2 >= eps_th * ||R||_F^2 give
    ``m' = [m | o U[:, :k]]`` and ``o' = o U[:, k:]``.  Since [m | o] is
    orthogonal, ``s`` are the singular values of the residual (I - m m^T) R
    and ``o U`` its left singular vectors, and [m' | o'] stays orthogonal
    without a second decomposition.  Layers whose R is already covered keep
    their ``LayerBasis`` object; old memory columns are kept bitwise and
    ranks never shrink.
    """
    if not 0.0 < eps_th < 1.0:
        raise ValueError(f"eps_th must lie in (0, 1), got {eps_th}")
    if len(reps) != len(state.layers):
        raise ValueError(
            f"got {len(reps)} representation matrices for {len(state.layers)} layers"
        )
    new_layers = []
    for basis, rep in zip(state.layers, reps):
        rep = np.asarray(rep, dtype=np.float64)
        n = basis.dim
        if rep.ndim != 2:
            raise ValueError(f"representation must be 2-D, got shape {rep.shape}")
        if rep.shape[0] != n:
            raise ValueError(
                f"representation rows {rep.shape[0]} do not match layer dim {n}"
            )
        if not np.isfinite(rep).all():
            raise ValueError("representation contains non-finite entries")
        total = np.linalg.norm(rep) ** 2
        if total == 0.0 or basis.rank == n:
            new_layers.append(basis)
            continue
        covered = np.linalg.norm(basis.m.T @ rep) ** 2
        target = eps_th * total
        if covered >= target:
            new_layers.append(basis)
            continue
        u, s, _ = np.linalg.svd(basis.o.T @ rep)
        energies = covered + np.cumsum(s * s)
        reachable = np.flatnonzero(energies >= target)
        if reachable.size:
            k = int(reachable[0]) + 1
        else:
            k = int(np.sum(s > 0.0))  # take every direction with energy left
        if k == 0:
            new_layers.append(basis)
            continue
        rotated = basis.o @ u
        new_layers.append(
            LayerBasis(
                m=np.concatenate([basis.m, rotated[:, :k]], axis=1),
                o=rotated[:, k:],
            )
        )
    return GpmState(layers=new_layers)


def encode(q: np.ndarray, o: np.ndarray) -> np.ndarray:
    """Subspace coefficients o^T q of an update; empty when o has no columns.

    ``q`` may carry leading axes (one update per sender).
    """
    if q.shape[-2] != o.shape[0]:
        raise ValueError(
            f"update rows {q.shape[-2]} do not match basis rows {o.shape[0]}"
        )
    return o.T @ q


def decode(c: np.ndarray, o: np.ndarray) -> np.ndarray:
    """Reconstruct an update o @ c from its subspace coefficients."""
    if c.shape[-2] != o.shape[1]:
        raise ValueError(
            f"coefficient rows {c.shape[-2]} do not match basis columns {o.shape[1]}"
        )
    return o @ c


def descent_check(g: np.ndarray, g_tilde: np.ndarray) -> float | np.ndarray:
    """Inner product <g, g_tilde>; equals ||g_tilde||^2 for a projection.

    One value per leading index when the gradients carry leading axes.
    """
    return np.sum(np.asarray(g) * np.asarray(g_tilde), axis=(-2, -1))


def save_state(state: GpmState, path: str) -> None:
    """Serialize a memory state exactly (hex floats, column-major entries)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("gpm-state 1\n")
        handle.write(f"layers {len(state.layers)}\n")
        for idx, basis in enumerate(state.layers):
            n, r = basis.m.shape
            handle.write(f"layer {idx} dim {n} rank {r}\n")
            for name, mat in (("m", basis.m), ("o", basis.o)):
                handle.write(f"{name} {mat.shape[1]}\n")
                for col in range(mat.shape[1]):
                    handle.write(
                        " ".join(float(v).hex() for v in mat[:, col]) + "\n"
                    )


def load_state(path: str) -> GpmState:
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.rstrip("\n") for line in handle]
    pos = 0

    def take() -> str:
        nonlocal pos
        if pos >= len(lines):
            raise ValueError(f"{path}: truncated state file")
        line = lines[pos]
        pos += 1
        return line

    header = take()
    if header != "gpm-state 1":
        raise ValueError(f"{path}: unknown header {header!r}")
    count = int(take().split()[1])
    layers = []
    for _ in range(count):
        parts = take().split()
        n, r = int(parts[3]), int(parts[5])
        mats = {}
        for name, cols_expected in (("m", r), ("o", n - r)):
            sub = take().split()
            if sub[0] != name or int(sub[1]) != cols_expected:
                raise ValueError(f"{path}: malformed {name} block")
            cols = []
            for _ in range(cols_expected):
                cols.append([float.fromhex(v) for v in take().split()])
            mats[name] = (
                np.array(cols).T if cols else np.zeros((n, 0))
            )
        layers.append(LayerBasis(m=mats["m"], o=mats["o"]))
    return GpmState(layers=layers)
