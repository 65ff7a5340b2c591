"""Communication graphs and their gossip mixing matrices.

Supported graph kinds: a directed ring, a 2-D torus (row-major node ids,
duplicate edges from 1- or 2-row/column wraparound merged), a fully
connected graph, and a custom undirected adjacency loaded from a text file.
Each is held as one 0/1 adjacency matrix with self loops, checked once when
the topology is built; the mixing matrix W is read from it by one rule for
every kind: Metropolis weights, 1/(1 + max degree) per edge with the
remainder on the self loop.  That is the uniform 1/(deg+1) rule on regular
graphs (1/2 on the self loop and 1/2 on the successor for the directed
ring) and doubly stochastic on any connected undirected graph.  Training
only multiplies by W; its spectral gap, which enters only the convergence
bound, is computed by ``validate_assumption3`` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_RESIDUAL_TOL = 1e-12
_GAP_TOL = 1e-12


@dataclass(frozen=True)
class Topology:
    """A graph and its 0/1 in-adjacency with self loops, checked once here.

    ``adjacency`` is given only for the custom kind (symmetric, 0/1, n x n);
    for every kind it then holds the built, read-only matrix.
    """

    kind: str  # "ring" | "torus" | "full" | "custom"
    n: int
    rows: int = 0
    cols: int = 0
    adjacency: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        n = self.n
        if n < 1:
            raise ValueError(f"n must be at least 1, got {n}")
        if self.kind not in ("ring", "torus", "full", "custom"):
            raise ValueError(f"unknown topology kind {self.kind!r}")
        if (self.adjacency is None) != (self.kind != "custom"):
            raise ValueError("only a custom topology takes an adjacency, and it must")
        ids = np.arange(n)
        if self.kind == "ring":
            adj = np.eye(n)
            adj[ids, (ids + 1) % n] = 1.0
        elif self.kind == "full":
            adj = np.ones((n, n))
        elif self.kind == "torus":
            if self.rows < 1 or self.cols < 1:
                raise ValueError("torus dimensions must be positive")
            if self.rows * self.cols != n:
                raise ValueError(
                    f"torus {self.rows}x{self.cols} has {self.rows * self.cols} "
                    f"nodes but {n} agents were requested"
                )
            ids = ids.reshape(self.rows, self.cols)
            adj = np.eye(n)
            for shift, axis in ((1, 0), (-1, 0), (1, 1), (-1, 1)):
                adj[ids, np.roll(ids, shift, axis=axis)] = 1.0
        else:
            adj = np.array(self.adjacency, dtype=np.float64)
            if adj.shape != (n, n):
                raise ValueError(
                    f"adjacency has shape {adj.shape} but {n} agents were requested"
                )
            if not np.all((adj == 0.0) | (adj == 1.0)):
                raise ValueError("custom adjacency entries must be 0 or 1")
            if not np.array_equal(adj, adj.T):
                raise ValueError("custom adjacency must be symmetric")
            np.fill_diagonal(adj, 1.0)  # self loops are always present
        # one step from a set of nodes reaches every node in their rows
        reached = adj[0] > 0.0
        while (grown := adj[reached].any(axis=0)).sum() > reached.sum():
            reached = grown
        if not reached.all():
            raise ValueError(
                "graph is disconnected: consensus is unreachable "
                f"(reached {int(reached.sum())} of {n} nodes)"
            )
        adj.flags.writeable = False
        object.__setattr__(self, "adjacency", adj)


@dataclass
class Assumption3Report:
    row_residual: float
    col_residual: float
    entries_in_range: bool
    sqrt_rho: float
    passed: bool

    def lines(self) -> list[str]:
        status = "PASS" if self.passed else "FAIL"
        return [
            f"row-sum residual:    {self.row_residual:.3e}",
            f"column-sum residual: {self.col_residual:.3e}",
            f"entries in [0, 1]:   {'yes' if self.entries_in_range else 'no'}",
            f"sqrt(rho):           {self.sqrt_rho:.12f}",
            f"assumption check:    {status}",
        ]


def parse_topology(text: str, n: int) -> Topology:
    """Parse a topology spec string: ring, torus:RxC, full, custom:<path>."""
    text = text.strip()
    if text in ("ring", "full"):
        return Topology(text, n)
    if text.startswith("torus:"):
        dims = text[len("torus:"):].lower().split("x")
        if len(dims) != 2:
            raise ValueError(f"torus spec must look like torus:RxC, got {text!r}")
        try:
            rows, cols = int(dims[0]), int(dims[1])
        except ValueError as exc:
            raise ValueError(f"torus dimensions in {text!r} are not integers") from exc
        return Topology("torus", n, rows=rows, cols=cols)
    if text.startswith("custom:"):
        return load_custom_topology(text[len("custom:"):], n)
    raise ValueError(f"topology {text!r} is not ring, full, torus:RxC or custom:<path>")


def load_custom_topology(path: str, n: int) -> Topology:
    """Read a 0/1 adjacency matrix, one space-separated row per line."""
    rows: list[list[int]] = []
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"custom adjacency {path}: {exc.strerror}") from None
    with handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            entries = []
            for token in line.split():
                if token not in ("0", "1"):
                    raise ValueError(
                        f"custom adjacency {path}:{lineno}: entries must be 0 or 1, "
                        f"got {token!r}"
                    )
                entries.append(int(token))
            rows.append(entries)
    if not rows:
        raise ValueError(f"custom adjacency {path} is empty")
    for lineno, entries in enumerate(rows, start=1):
        if len(entries) != len(rows):
            raise ValueError(
                f"custom adjacency {path}:{lineno}: expected {len(rows)} entries, "
                f"got {len(entries)}"
            )
    try:
        return Topology("custom", n, adjacency=np.array(rows, dtype=np.float64))
    except ValueError as exc:
        raise ValueError(f"{exc}, in {path}") from None  # leads with what it rejects


def _nontrivial_radius(w: np.ndarray) -> float:
    """Largest eigenvalue magnitude of the disagreement operator of ``w``.

    For a doubly stochastic ``w`` (its caller checks the sums first) this
    is the contraction factor on the subspace orthogonal to consensus, i.e.
    the spectral radius of ``(I - (1/N) 1 1^T) w``.  Directed topologies
    give complex eigenvalues, hence the general (non-symmetric) eigensolver.
    """
    n = w.shape[0]
    b = (np.eye(n) - np.full((n, n), 1.0 / n)) @ w
    if np.linalg.norm(b) < 1e-14:
        return 0.0
    radius = float(np.max(np.abs(np.linalg.eigvals(b))))
    # a doubly stochastic matrix cannot expand; trim eigensolver rounding
    # that lands a hair above 1
    return min(radius, 1.0)


def build_mixing(topology: Topology) -> np.ndarray:
    """The gossip weight matrix W: Metropolis weights on the adjacency."""
    a = topology.adjacency
    degree = a.sum(axis=1) - 1.0
    w = (a - np.eye(topology.n)) / (1.0 + np.maximum.outer(degree, degree))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


def validate_assumption3(w: np.ndarray) -> Assumption3Report:
    """Check that a weight matrix is doubly stochastic, nonnegative and
    contracting toward consensus, and report its spectral gap.

    Never raises for a 2-D input; failures (non-finite entries included)
    are carried in the report so the caller can print them.
    """
    mat = np.asarray(w, dtype=np.float64)
    row_res = float(np.max(np.abs(mat.sum(axis=1) - 1.0)))
    col_res = float(np.max(np.abs(mat.sum(axis=0) - 1.0)))
    in_range = bool(np.all(mat >= -1e-15) and np.all(mat <= 1.0 + 1e-15))
    sums_ok = max(row_res, col_res) <= _RESIDUAL_TOL
    sqrt_rho = _nontrivial_radius(mat) if sums_ok else math.nan
    passed = sums_ok and in_range and sqrt_rho <= 1.0 - _GAP_TOL
    return Assumption3Report(row_res, col_res, in_range, sqrt_rho, passed)
