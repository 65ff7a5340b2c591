"""Gradient projection memory and the lossless subspace update codec.

Per trunk layer we keep two orthonormal bases of the layer's input space:
``m`` (n x r) spans directions important to past tasks, ``o`` (n x (n-r))
spans its orthogonal complement.  Gradients are projected onto span(o)
before stepping, so updates cannot disturb what earlier tasks rely on; the
same fact makes model deltas expressible in ``o`` coordinates, which is
what the communication codec exploits: coefficients ``c = o^T q`` are
(n-r)/n the size of ``q`` and decode back exactly via ``q = o c``.

So the trainer never projects, encodes or decodes: during a task it holds
a layer with a memory as ``x0 + o c`` and trains the coefficients ``c``,
whose gradient ``(X o)^T dz`` is the projected one and whose updates are
the codec's messages.  While the memory is empty ``o = I`` and the layer
stays plain; once it spans the whole input ``c`` has no rows, so the layer
is frozen.
"""

from __future__ import annotations

import binascii
import functools
import re
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
                "increment_per_task must be non-negative, "
                f"got {self.increment_per_task}"
            )

    def value(self, task_index: int) -> float:
        eps = self.base + self.increment_per_task * task_index
        if not 0.0 < eps < 1.0:
            inc = f" and increment_per_task {self.increment_per_task}" * (task_index > 0)
            raise ValueError(
                f"base {self.base}{inc}: threshold {eps} for task {task_index} "
                "is outside (0, 1)"
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


def save_state(state: GpmState, path: str) -> None:
    """Serialize a memory state exactly, as ``gpm-state 1``: a header, then
    per layer its ``m`` and ``o`` blocks, each a count line and one line of
    ``float.hex`` entries per column (``_hex_lines``)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("gpm-state 1\n")
        handle.write(f"layers {len(state.layers)}\n")
        for idx, basis in enumerate(state.layers):
            n, r = basis.m.shape
            handle.write(f"layer {idx} dim {n} rank {r}\n")
            for name, mat in (("m", basis.m), ("o", basis.o)):
                handle.write(f"{name} {mat.shape[1]}\n")
                handle.write(_hex_lines(mat))


# ``_hex_lines`` lays each entry out in 32 bytes, four 8-byte words, and
# deletes the NUL bytes that pad them.  For -0x1.23456789abcdep-5 they are
#   "\0\0\0\0\0\0-0"  "x1.23456"  "789abcde"  "p-5\0\0\0\0 "
# The middle two are the big-endian hex of the bits, whose first 3 digits
# (sign and exponent) are masked off for "x1.".  The words are made from
# bytes and combined bytewise, so the layout holds on any byte order.
_SIGN = np.frombuffer(b"0".rjust(8, b"\0") + b"-0".rjust(8, b"\0"), np.uint64)
_FRACTION = np.frombuffer(b"\0" * 3 + b"\xff" * 5, np.uint64)[0]
_LEAD = np.frombuffer(b"x1.".ljust(8, b"\0"), np.uint64)[0]
_NAN_INF = np.frombuffer(  # nan (of either sign), inf, -inf
    b"".join(t.ljust(31, b"\0") + b" " for t in (b"nan", b"inf", b"-inf")), np.uint64
).reshape(3, 4)


@functools.cache
def _exponent_words() -> np.ndarray:
    """``float.hex``'s exponent field and a space by biased exponent: index
    0 holds the subnormals' ``p-1022`` and 1023 zero's ``p+0``."""
    fields = [f"p{e - 1023:+d}" for e in range(2048)]
    fields[0] = "p-1022"
    return np.frombuffer(
        b"".join(f.encode().ljust(7, b"\0") + b" " for f in fields), np.uint64
    )


def _hex_lines(mat: np.ndarray) -> str:
    """Each column of ``mat`` as a line of its entries' ``float.hex`` texts
    joined by spaces, byte for byte, built from their bits in one pass."""
    cols = np.ascontiguousarray(mat.T, dtype=np.float64)
    bits = cols.view(np.uint64).ravel()
    top = (bits >> np.uint64(52)).astype(np.intp)
    biased = top & 0x7FF
    fraction = bits & np.uint64((1 << 52) - 1)
    zero = (biased == 0) & (fraction == 0)
    hex_words = np.frombuffer(binascii.hexlify(bits.astype(">u8")), np.uint64)
    words = np.empty((bits.size, 4), np.uint64)
    words[:, 0] = _SIGN[top >> 11]
    np.bitwise_or(hex_words[0::2] & _FRACTION, _LEAD, out=words[:, 1])
    words[:, 2] = hex_words[1::2]
    words[:, 3] = _exponent_words()[np.where(zero, 1023, biased)]
    text = words.view(np.uint8)
    text[biased == 0, 9] = ord("0")  # zero and the subnormals lead with 0
    text[zero, 12:24] = 0  # and zero has one fraction digit
    special = biased == 0x7FF
    if special.any():
        nan = fraction[special] != 0
        words[special] = _NAN_INF[np.where(nan, 0, 1 + (top[special] >> 11))]
    text[cols.shape[1] - 1 :: cols.shape[1], 31] = ord("\n")
    return text.tobytes().translate(None, b"\0").decode("ascii")


def load_state(path: str) -> GpmState:
    """Read a ``save_state`` file back exactly.  Any other text raises
    ``ValueError`` naming the path and line: a header line out of form or
    missing, a rank above the dim, a column line without ``dim`` entries, a
    line past the last layer."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = enumerate(handle.read().splitlines(), 1)
    no = 0

    def take(pattern: str) -> tuple[str, ...]:
        """The next line's fields, if it matches ``pattern``; past the end
        there is no line, which matches none."""
        nonlocal no
        no, line = next(lines, (no + 1, ""))
        match = re.fullmatch(pattern, line)
        if match is None:
            raise ValueError(f"{path}: line {no}: expected {pattern!r}")
        return match.groups()

    def column(n: int) -> list[float]:
        try:
            return [float.fromhex(v) for v in take(" ".join([r"(\S+)"] * n))]
        except (ValueError, OverflowError):
            raise ValueError(f"{path}: line {no}: expected {n} float.hex entries") from None

    take("gpm-state 1")
    (count,) = map(int, take(r"layers (\d+)"))
    layers = []
    for idx in range(count):
        n, r = map(int, take(rf"layer {idx} dim (\d+) rank (\d+)"))
        if r > n:
            raise ValueError(f"{path}: line {no}: rank {r} above dim {n}")
        mats = []
        for name, k in (("m", r), ("o", n - r)):
            take(f"{name} {k}")
            cols = [column(n) for _ in range(k)]
            mats.append(np.array(cols).T if cols else np.zeros((n, 0)))
        layers.append(LayerBasis(*mats))
    if next(lines, None) is not None:
        raise ValueError(f"{path}: line {no + 1} follows the last layer")
    return GpmState(layers=layers)
