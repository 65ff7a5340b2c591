"""Bulk-synchronous decentralized training over a task sequence.

The loop is ``run``: per task, its rounds, its boundary (the average, the
fold, the memory growth or the Fisher phase) and its evaluation, each a
function whose arrays go as it returns.  Every round, each agent takes one
(optionally projected) SGD step on its own shard, then a gossip exchange
mixes parameters using each agent's running aggregate of neighbor
states.  A projected trunk update lies in the span of the memory's
complement ``o`` and every agent starts the task from the same ``x0``, so
a layer with a memory is held as ``x0 + o c``: the passes, the step, the
round and the consensus error work on the coefficients ``c``, which are
what the codec sends, and the boundary folds the average ``c`` into ``x0``
once.  Each ledger record also prices the same traffic sent raw, its
``full`` side: the full-communication baseline.  The memory is fixed within
a task, so the ledger prices each task once (``price_task``).

All agents share model shapes and step in lockstep, so their state is held
stacked: every parameter array and tracked aggregate has a leading agent
axis, a local step is one batched forward/backward pass returning the
(projected) gradients ``g~``, a large trunk one as its batch-sized factor
pair (``Outer``), and a gossip round is one sweep that forms the steps
``d`` from them, then updates, mixes and measures the arrays a block at a
time: ``d = -eta g~``, but for ``dewc``'s trunk under a penalty, whose
step is the implicit one of ``ewc.implicit_rows``.  So a task holds two
model-sized stacks, the parameters and the aggregates, and nothing of an
earlier task's.  All randomness is drawn from the run seed's named
streams, whose table lives in ``tasks`` with the code that draws a task's
shards and batch order, so a configuration reproduces itself exactly.

Conventions that keep the subspace-closure argument airtight: all agents
start a task from the same parameters (models are averaged at every task
boundary, charged to the ledger as one uncompressed full-model exchange),
and tracked neighbor aggregates are initialized from those same parameters.
Heads are unconstrained, so their deltas travel uncompressed.
"""

from __future__ import annotations

import contextlib
import ctypes
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .ewc import FisherState, accumulate_fisher, fisher_mean, implicit_rows
from .gpm import GpmState, update_memory
from .model import (
    Mlp,
    _matmul,
    _scratch,
    backward,
    capture_representation,
    flatten_params,
    forward,
    init_mlp,
    param_arrays,
    task_params,
)
from .tasks import TAG_HEAD, TAG_INIT, TAG_PICK, TAG_REP, TAG_SHARD, derive_rng
from .tasks import LabeledDataset, TaskShard, _batches, _derive_int, _entropy, shard_iid
from .topology import Topology, build_mixing

log = logging.getLogger(__name__)

METHODS = ("codec", "dewc", "stl", "naive")


class NonFiniteError(ArithmeticError):
    """Training produced a non-finite loss, mu, step or consensus error."""


class InvariantError(RuntimeError):
    """A ``debug_checks`` invariant failed: descent, mu, norm split or tracking."""


@dataclass(frozen=True)
class TrainConfig:
    """One training run at the constant step size ``eta``, checked when it
    is made; ``method`` is one of ``METHODS``.  ``lam`` sets the ``dewc``
    penalty and is ignored by the other methods.  The agent count is
    ``topology.n``.  Task ``t`` grows the memory at the energy threshold
    ``eps_base + eps_increment * t`` (``threshold``).
    """

    eta: float
    epochs: int
    batch_size: int
    eps_base: float
    eps_increment: float
    topology: Topology
    seed: int
    method: str
    lam: float
    dims: tuple[int, ...]
    rep_samples: int
    debug_checks: bool

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(
                f"method must be one of {', '.join(METHODS)}, got unknown method "
                f"{self.method!r}"
            )
        if not 0.0 < self.eta < math.inf:
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        for name in ("epochs", "batch_size", "rep_samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        _entropy(self.seed)  # raises for a negative seed
        if not 0.0 <= self.lam < math.inf:
            raise ValueError(f"lam must be non-negative and finite, got {self.lam}")
        Mlp(list(self.dims))  # raises for a width list no model has
        object.__setattr__(self, "dims", tuple(self.dims))
        if not 0.0 <= self.eps_increment < math.inf:
            raise ValueError(
                f"eps_increment must be non-negative and finite, got {self.eps_increment}"
            )
        self.threshold(0)

    def threshold(self, task: int) -> float:
        """Task ``task``'s energy threshold, which must lie in (0, 1)."""
        eps = self.eps_base + self.eps_increment * task
        if not 0.0 < eps < 1.0:
            inc = f" and eps_increment {self.eps_increment}" * (task > 0)
            raise ValueError(
                f"eps_base {self.eps_base}{inc}: threshold {eps} for task {task} "
                "is outside (0, 1)"
            )
        return eps


@dataclass
class Agents:
    """Every agent's state, stacked along a leading agent axis: the model,
    the shared ``codec`` memory or ``dewc`` running penalty state, and while
    a task trains, the aggregates; so it holds at most two model-sized stacks."""

    model: Mlp  # each array has shape (N, ...)
    memory: GpmState  # the read-only basis codec's agents project with, else empty
    # one per array of task_params(): the tracked sum_j w_ij x_j
    aggregates: list[np.ndarray] = field(default_factory=list)
    fisher: FisherState | None = None  # the dewc penalty


@dataclass(frozen=True)
class TaskComm:
    """Scalars one task sent, full and actual: each trunk layer's round
    payloads, the raw head, and the boundary phases' overhead;
    ``scalars_sent`` holds what each agent sent in one round."""

    task: int
    layer_full: list[int]
    layer_actual: list[int]
    rounds: int = 0
    scalars_sent: tuple[int, ...] = ()
    extra_scalars: int = 0
    overhead_actual: int = 0
    overhead_full: int = 0


@dataclass
class RunResult:
    """What ``run`` returns.  ``loss`` and ``mu`` hold every agent's value
    per round, shape ``(rounds, N)``, and ``consensus_error`` one value per
    round, shape ``(rounds,)``, over every task's rounds in order: the
    ledger's ``rounds`` split them by task.  ``accuracy[t, i]`` is task i's
    accuracy after task t, NaN where it was not measured: above the
    diagonal, and off it for ``stl``."""

    method: str
    accuracy: np.ndarray  # (T, T)
    ledger: list[TaskComm]  # one record per task
    loss: np.ndarray
    mu: np.ndarray
    consensus_error: np.ndarray
    final_params: np.ndarray
    gpm: GpmState | None


def _mix(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``w`` applied over the leading agent axis of ``x``."""
    return (w @ x.reshape(len(w), -1)).reshape(x.shape)


def _per_agent(x: np.ndarray) -> np.ndarray:
    return x.reshape(len(x), -1)


_BLOCK = 1 << 16  # elements in a block of the round's sweep: 512 KiB, cached in L2
# numpy's ufunc buffer, in elements, while a round runs: a ufunc on a
# strided block, or one that broadcasts a row, over rows shorter than the
# default buffer (8,192 elements) buffers them, 64 KiB and more, and a
# smaller buffer needs none
_ROW_BUFSIZE = 16


def reset_aggregates(agents: Agents, w: np.ndarray, task: int) -> None:
    """Recompute every tracked aggregate from the true neighbor states."""
    agents.aggregates = [_mix(w, x) for x in task_params(agents.model, task)]


def _require(ok: np.ndarray, what: str, *values: np.ndarray) -> None:
    """Raise ``InvariantError`` at the first agent where ``ok`` is false,
    ``what`` formatted with that agent's entries of ``values``."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        i = int(bad[0])
        raise InvariantError(f"agent {i} " + what.format(*(v[i] for v in values)))


def _check_tracking(agents: Agents, w: np.ndarray, task: int) -> None:
    arrays = task_params(agents.model, task)
    for k, (x, agg) in enumerate(zip(arrays, agents.aggregates)):
        drift = np.max(np.abs(_per_agent(_mix(w, x) - agg)), axis=1, initial=0.0)
        # rounding grows with the aggregate, so a large one is held relative to its size
        scale = np.max(np.abs(_per_agent(agg)), axis=1, initial=1.0)
        _require(drift <= 1e-9 * scale, f"array {k}: " + "aggregate drifted by {}", drift)


def _non_finite(steps: list[np.ndarray], **values: np.ndarray) -> NonFiniteError:
    """Name the first agent with a non-finite value, first of ``values``, then step."""
    ok = {what: np.isfinite(v) for what, v in values.items()}
    ok["step"] = np.all([np.isfinite(_per_agent(d)).all(1) for d in steps], axis=0)
    agent = int(np.flatnonzero(~np.all(list(ok.values()), axis=0))[0])
    what = next(what for what, fine in ok.items() if not fine[agent])
    return NonFiniteError(f"agent {agent} has non-finite {what}")


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner product of each agent's arrays, with no temporary of their size."""
    n = len(a)
    return (a.reshape(n, 1, -1) @ b.reshape(n, -1, 1)).reshape(n)


def _check_descent(g: np.ndarray, gt: np.ndarray, lost: np.ndarray, layer: int) -> None:
    ip = _dots(g, gt)
    gsq, tsq = _dots(g, g), _dots(gt, gt)
    slack = 1e-8 * gsq + 1e-300
    at = f"layer {layer}: "
    _require(ip >= -1e-12, at + "descent check failed: <g, g~> = {}", ip)
    identity = np.abs(ip - tsq) <= slack
    _require(identity, at + "projection identity violated: {} vs {}", ip, tsq)
    split = np.abs(gsq - tsq - lost) <= slack
    _require(split, at + "norm split violated: {} vs {} + {}", gsq, tsq, lost)


def _factored(c: np.ndarray, dz: np.ndarray) -> bool:
    """Whether the product ``c^T dz`` of a (batch, k) ``c`` and a (batch,
    n_out) ``dz`` per agent is larger than its two factors."""
    k, (batch, n_out) = c.shape[-1], dz.shape[-2:]
    return k * n_out > batch * (k + n_out)


def _dz_gram(dz: np.ndarray, ws: dict | None) -> np.ndarray:
    """``dz dz^T`` per agent, in the workspace's scratch buffer: it stays
    valid through the Gram norms of its layer, which take no scratch."""
    shape = (*dz.shape[:-1], dz.shape[-2])
    return np.matmul(dz, dz.swapaxes(-1, -2), out=_scratch(ws, shape))


def _gram_sq(c: np.ndarray, dz_dz: np.ndarray, ws: dict | None, key) -> np.ndarray:
    """``||c^T dz||^2`` per agent from the batch-sized Grams ``<c c^T, dz
    dz^T>``, given ``dz_dz = dz dz^T``: no temporary of the product's size."""
    return _dots(_matmul(c, c.swapaxes(-1, -2), ws, key), dz_dz)


def _lost_sq(
    x: np.ndarray,
    m: np.ndarray,
    dz: np.ndarray,
    dz_dz: np.ndarray | None,
    ws: dict | None,
    l: int,
) -> np.ndarray:
    """``||(X m)^T dz||^2`` per agent, formed directly while ``(X m)^T dz``
    is no larger than its factors, else from their Grams (``_gram_sq``),
    with ``dz dz^T`` formed here unless ``dz_dz`` already holds it."""
    xm = _matmul(x, m, ws, ("xm", l))
    if _factored(xm, dz):
        if dz_dz is None:
            dz_dz = _dz_gram(dz, ws)
        return _gram_sq(xm, dz_dz, ws, ("xm_xm", l))
    xm_dz = _scratch(ws, (*xm.shape[:-2], xm.shape[-1], dz.shape[-1]))
    np.matmul(xm.swapaxes(-1, -2), dz, out=xm_dz)
    return _dots(xm_dz, xm_dz)


class Outer:
    """A stack of trunk gradients ``coords^T dz`` held as their batch-sized
    factors, ``coords`` (N, batch, k) and ``dz`` (N, batch, n_out).

    ``gossip_round`` forms it a block of whole rows at a time (``form``),
    in cache; ``np.asarray`` forms it whole."""

    def __init__(self, coords: np.ndarray, dz: np.ndarray):
        self.coords, self.dz = coords, dz
        self.shape = (*dz.shape[:-2], coords.shape[-1], dz.shape[-1])

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.matmul(self.coords.swapaxes(-1, -2), self.dz)

    def form(self, start: int, stop: int, out: np.ndarray) -> np.ndarray:
        """Every agent's flat columns ``start:stop``, which span whole rows,
        written into ``out`` (N, stop - start) and returned."""
        n_out = self.shape[-1]
        rows = self.coords[..., start // n_out : stop // n_out].swapaxes(-1, -2)
        np.matmul(rows, self.dz, out=out.reshape(rows.shape[:-1] + (n_out,)))
        return out


def local_step(
    model: Mlp,
    gpm: GpmState,
    bx: np.ndarray,
    by: np.ndarray,
    task: int,
    *,
    projection: bool,
    debug: bool = False,
    ws: dict | None = None,
) -> tuple[np.ndarray, np.ndarray, list]:
    """One batched forward/backward pass at every agent of a stacked model.

    Returns loss, mu and the (projected) gradients ``g~`` lined up with
    ``task_params(model, task)``, unscaled; the model is not changed, and
    ``gossip_round`` forms the steps from the gradients and consumes them.
    A trunk array's gradient is ``coords^T dz`` (``backward``).  Where that
    product is larger than its factors, ``k n_out > batch (k + n_out)`` for
    ``k`` coordinates, the array's entry is the factor pair (``Outer``),
    which the round forms a block of rows at a time; other trunk arrays and
    the head get their gradients whole.  So a task holds two
    model-sized stacks, the parameters and the aggregates, and at the
    benchmark's batches of 16 the 16-32-16 layers are held whole and the
    64-256-128 ones as pairs.  With a workspace ``ws``, a dict kept for one
    task (whose shapes do not change), the pass's layer-sized products, the
    factors and the whole trunk gradients live in its buffers, which the
    next call overwrites; without one they are fresh arrays.

    A trunk layer that the model holds factored over its memory's
    complement, ``x0 + o c``, has the coefficient gradient ``(X o)^T dz``:
    the projected gradient ``project(X^T dz, m)`` in ``o`` coordinates, of
    width 0 for a saturated memory.  The raw ``g = X^T dz`` is formed only
    by the ``debug`` checks, which form every gradient they check whole.
    With projection on, ``mu`` is the projected-to-raw trunk gradient norm
    ratio per agent, with ``||g||^2 = ||g~||^2 + ||(X m)^T dz||^2``; a
    pair's ``||g~||^2`` comes from the batch Grams ``<C C^T, dz dz^T>``, as
    the lost norm does past the same size rule, both from one ``dz dz^T``
    per layer (``_dz_gram``): against the whole gradient's norm that moves
    mu by at most 4.4e-16 relative in the cases measured, 4.0e-16 on the
    ``wide`` benchmark's runs.
    """
    loss, trace, deltas, head = backward(model, bx, by, task, ws)
    kept_sq = np.zeros(len(loss))  # ||g~||^2 over the trunk
    lost_sq = np.zeros(len(loss))  # ||m^T g||^2 over the trunk
    grads: list = []
    for l, (x, c, dz) in enumerate(zip(trace.inputs, trace.coords, deltas)):
        dz_dz = None  # dz dz^T, formed once for both norms where both take Grams
        if _factored(c, dz):
            g = Outer(c, dz)
            if projection:
                dz_dz = _dz_gram(dz, ws)
                kept_sq += _gram_sq(c, dz_dz, ws, ("cc", l))
        else:
            g = _matmul(c.swapaxes(-1, -2), dz, ws, ("g", l))
            if projection:
                kept_sq += _dots(g, g)
        if model.bases[l] is not None:
            lost = _lost_sq(x, gpm.layers[l].m, dz, dz_dz, ws, l)
            if debug:
                gt = gpm.layers[l].o @ np.asarray(g)
                _check_descent(x.swapaxes(-1, -2) @ dz, gt, lost, l)
            lost_sq += lost
        grads.append(g)
    mu = np.ones(len(loss))
    if projection:
        raw_sq = kept_sq + lost_sq
        nonzero = raw_sq != 0.0
        mu[nonzero] = np.sqrt(kept_sq[nonzero]) / np.sqrt(raw_sq[nonzero])
        if debug:
            _require(mu <= 1.0 + 1e-10, "has mu = {} above 1", mu)
    grads.append(head)
    return loss, mu, grads


def _step(
    g: np.ndarray,
    x: np.ndarray,
    rows: list[np.ndarray] | None,
    eta: float,
    out: np.ndarray,
) -> np.ndarray:
    """The step of gradients ``g`` at parameters ``x`` (both ``(N, cols)``),
    written into ``out`` and returned: ``-eta g``, or with a penalty's rows
    ``(-alpha, -beta, gamma)`` (``implicit_rows``) ``-alpha g - beta x +
    gamma``, which spends ``g``.  The penalised step is summed as
    ``((-alpha g) + (-beta x)) + gamma``, and the report bytes of a
    ``dewc`` run rest on that order.  The ``g`` block is scaled in place
    (``g *= -alpha``) because under ``_ROW_BUFSIZE`` the three-operand row
    broadcast ``multiply(g, -alpha, out=out)`` is numpy's slow form, 1.4-2.4x
    slower; ``x`` is kept, so ``-beta x`` takes that form.  A ufunc that
    writes a contiguous block from a strided one buffers 64 KiB under
    numpy's default buffer size; a round runs these under ``_ROW_BUFSIZE``,
    which needs no buffer."""
    if rows is None:
        return np.multiply(g, -eta, out=out)
    neg_alpha, neg_beta, gamma = rows
    g *= neg_alpha
    np.multiply(x, neg_beta, out=out)
    out += g
    out += gamma
    return out


def _padded(penalty: list | None, count: int) -> list:
    """``penalty``'s row triples, then ``None`` up to ``count`` arrays."""
    rows_of = list(penalty or [])
    return rows_of + [None] * (count - len(rows_of))


def _steps(
    arrays: list[np.ndarray],
    grads: list,
    penalty: list | None,
    eta: float,
    k: int = 0,
    start: int = 0,
) -> list[np.ndarray]:
    """Fresh steps of array ``k`` from column ``start`` on and of every
    later array, of all by default, for naming an agent: the gradients are
    spent, and a pair's formed whole."""
    rows_of = _padded(penalty, len(arrays))
    steps = []
    for j in range(k, len(arrays)):
        s = start if j == k else 0
        rows = rows_of[j] and [r[s:] for r in rows_of[j]]
        g = _per_agent(np.asarray(grads[j]))[:, s:]
        x = _per_agent(arrays[j])[:, s:]
        steps.append(_step(g, x, rows, eta, np.empty(g.shape)))
    return steps


def _bounds(g, cols: int) -> list[int]:
    """The flat column bounds of a gradient's blocks in the round: blocks of
    ``cols`` columns for a whole gradient, and for a pair (``Outer``) whole
    rows within half as many, at least two, with a 1-row tail folded into
    the block before it, as numpy forms a 1-row product by its
    matrix-vector path, which rounds otherwise."""
    if not isinstance(g, Outer):
        size = g.size // len(g)
        return [*range(0, size, cols), size]
    k, n_out = g.shape[-2:]
    cuts = [*range(0, k, max(2, cols // 2 // n_out)), k]
    if cuts[-1] - cuts[-2] == 1 and len(cuts) > 2:
        del cuts[-2]
    return [r * n_out for r in cuts]


def gossip_round(
    agents: Agents,
    w: np.ndarray,
    task: int,
    grads: list,
    eta: float,
    *,
    penalty: list[tuple[np.ndarray, ...]] | None = None,
    debug: bool = False,
    ws: dict | None = None,
) -> float:
    """One synchronous gossip exchange; returns the consensus error.

    ``grads`` are the gradients from ``local_step``, one per array of
    ``task_params(model, task)``, and the round consumes them.  A trunk
    array past the size rule ``k n_out > batch (k + n_out)`` comes as its
    factor pair (``Outer``), whose mu ``local_step`` took from the batch
    Grams (within 4.4e-16 relative of the whole gradient's in the cases
    measured), so a task holds two model-sized stacks, the parameters and
    the aggregates, and no stack of gradients.  Per array, every agent's
    step is ``d = -eta g``, or for the first arrays, one per row triple of
    ``penalty`` (``implicit_rows`` at this ``eta``: ``dewc``'s trunk under
    its Fisher state), the implicit penalised step ``d = -alpha g - beta x
    + gamma``.  Its update is ``q = (a - x) + d`` from its tracked aggregate
    ``a``, it moves to ``x + q``, and every aggregate takes in ``W q``.  The
    consensus error is the mean squared distance of the agents from their
    average over these arrays, where a factored layer's ``c`` stands for the
    layer, as its ``o`` is orthonormal.

    Each array, viewed as ``(N, cols)``, is swept in blocks (``_bounds``),
    each in cache from its gradient to its mixing: a whole gradient in
    column blocks of ``_BLOCK`` elements, whose block holds ``q``, and a
    pair in blocks of whole rows, formed into one half of a ``_BLOCK``
    buffer just before the step, which is formed into the other half.  The
    squared deviations are summed in the whole gradient's column blocks,
    each once all its columns moved.  So at the shapes the tests pin, the
    round moves every array and returns the consensus error bit for bit as
    it would given the whole products; at others it need not: a row
    block's product can round otherwise than the whole product's rows, and
    the ``W q`` GEMM rounds by block width (at N = 12, full, 64-256-128 and
    batch 16 the whole sweep's last block of layer 0 is 1 column wide).
    Over 150 random geometries (N 4-64, widths 8-300, batch 4-32, ring and
    full) a parameter differed in 29, an aggregate in 75 and the consensus
    error in 1.  A non-finite step stops the sweep before its block mixes.
    The block buffer is the scratch buffer of the workspace ``ws`` (see
    ``local_step``) if one is given, else made for this round.
    """
    arrays = task_params(agents.model, task)
    rows_of = _padded(penalty, len(arrays))
    n, total = len(w), 0.0
    cols = max(1, _BLOCK // n)  # 4,096 at N = 16
    bounds = [_bounds(g, cols) for g in grads]
    need = 0
    for g, b in zip(grads, bounds):
        # a block is the first or, with a folded tail, the last; a pair's
        # holds its gradient beside its step, and a deviation block is up
        # to cols columns
        widest = max(b[1] - b[0], b[-1] - b[-2]) if len(b) > 1 else 0
        need = max(need, min(cols, b[-1]), (1 + isinstance(g, Outer)) * widest)
    buf = _scratch(ws, (n * need,))
    bufsize = np.setbufsize(_ROW_BUFSIZE)
    try:
        for k, (x, g, agg, rows, cuts) in enumerate(
            zip(arrays, grads, agents.aggregates, rows_of, bounds)
        ):
            x, agg = _per_agent(x), _per_agent(agg)
            if not isinstance(g, Outer):
                g = _per_agent(g)
            summed = 0  # columns whose deviations are summed
            for s, e in zip(cuts, cuts[1:]):
                span = slice(s, e)
                xb, ab = x[:, span], agg[:, span]
                # b holds the step d, then W q; q, the gradient's block, then
                # takes the update
                size = n * (e - s)
                b = buf[:size].reshape(n, e - s)
                if isinstance(g, Outer):
                    q = g.form(s, e, buf[size : 2 * size].reshape(n, e - s))
                else:
                    q = g[:, span]
                _step(q, xb, rows and [r[span] for r in rows], eta, b)
                if not (np.isfinite(b.min()) and np.isfinite(b.max())):
                    later = _steps(arrays, grads, penalty, eta, k, e)
                    raise _non_finite([b, *later])
                # the gossip term first: it cancels at a fixed point
                np.subtract(ab, xb, out=q)
                q += b
                xb += q
                ab += np.matmul(w, q, out=b)
                # the squared deviations of each block of cols columns once
                # all of it moved, so a pair's are summed as a whole
                # gradient's would be
                while summed < e and (summed + cols <= e or e == x.shape[1]):
                    stop = min(summed + cols, e)
                    xd, d = xb, b  # a whole gradient's block is its own
                    if (summed, stop) != (s, e):
                        xd = x[:, summed:stop]
                        d = buf[: xd.size].reshape(xd.shape)
                    # numpy would buffer the broadcast's short rows
                    if q.shape == xd.shape and q.flags.c_contiguous:
                        np.copyto(q, xd.mean(axis=0))  # q is spent: the mean per row
                        np.subtract(xd, q, out=d)
                    else:
                        np.subtract(xd, xd.mean(axis=0), out=d)
                    d *= d
                    total += float(d.sum())
                    summed += xd.shape[1]
    finally:
        np.setbufsize(bufsize)
    if debug:
        _check_tracking(agents, w, task)
    return total / n


def fanout(w: np.ndarray) -> np.ndarray:
    """Receivers per sender: the positive off-diagonal weights of its column."""
    return np.count_nonzero(w > 0.0, axis=0) - (np.diag(w) > 0.0)


def price_task(
    agents: Agents,
    task: int,
    method: str,
    sizes: list[int],
    rounds: int,
    receivers: np.ndarray,
) -> TaskComm:
    """Task ``task``'s record, priced once its boundary phases ran, from the
    scalars one message carries per array of ``task_params`` while the task
    trained, its rounds and each agent's ``receivers`` (``fanout``)."""
    model, memory = agents.model, agents.memory
    n = model.lead[0]
    n_layers = len(model.layers)
    sent = rounds * int(receivers.sum())
    # the boundary sync sends every agent's whole model
    fixed = n * sum(a[0].size for a in param_arrays(model))
    if method == "dewc":  # the trunk Fisher diagonal, gathered and sent back
        fixed += 2 * (n - 1) * sum(p[0].size for p in model.layers)
    basis = actual = 0
    if method == "codec":  # the grown memory, with its complement to decode by
        basis = (n - 1) * sum(b.dim * b.rank for b in memory.layers)
        actual = (n - 1) * sum(b.dim * b.dim for b in memory.layers)
    return TaskComm(
        task=task,
        layer_full=[sent * x[0].size for x in model.layers],
        layer_actual=[sent * s for s in sizes[:n_layers]],
        rounds=rounds,
        scalars_sent=tuple(sum(sizes) * int(k) for k in receivers),
        extra_scalars=sent * sum(sizes[n_layers:]),
        overhead_actual=fixed + actual,
        overhead_full=fixed + basis,
    )


def gpm_broadcast(
    agents: Agents,
    shards: list[TaskShard],
    task: int,
    cfg: TrainConfig,
    pick_stream: np.random.Generator,
) -> None:
    """End-of-task memory update at one randomly chosen agent, sent to all.

    The chosen agent captures layer inputs on a sample of at most
    ``cfg.rep_samples`` rows of its own shard and grows the memory, which
    replaces ``agents.memory`` for everyone.
    """
    p = int(pick_stream.integers(0, len(shards)))
    shard = shards[p]
    n_s = min(cfg.rep_samples, len(shard))
    idx = derive_rng(cfg.seed, TAG_REP, task).permutation(len(shard))[:n_s]
    reps = capture_representation(agents.model.view(p), shard.examples[idx], task)
    agents.memory = update_memory(agents.memory, reps, cfg.threshold(task))


def check_run(config: TrainConfig, sequence: list[LabeledDataset]) -> None:
    """Raise ``ValueError`` for what ``run`` would reject of these tasks
    under ``config``, which checked itself when it was made."""
    if not sequence:
        raise ValueError("need at least one task")
    n = config.topology.n
    for t, data in enumerate(sequence):
        rows = data.train_x.shape[0]
        if rows < n:
            raise ValueError(
                f"task {t} has {rows} training samples, fewer than {n} agents"
            )
        if data.test_x.shape[0] == 0:
            raise ValueError(f"task {t} has an empty test split")
        for split, x, y in (
            ("train", data.train_x, data.train_y),
            ("test", data.test_x, data.test_y),
        ):
            if x.ndim != 2 or x.shape[1] != config.dims[0]:
                raise ValueError(
                    f"task {t} has {split} features of shape {x.shape}, "
                    f"not (rows, {config.dims[0]}) for the model's input width"
                )
            if y.size and not 0 <= y.min() <= y.max() < len(data.classes):
                raise ValueError(
                    f"task {t} has a {split} label outside 0..{len(data.classes) - 1}"
                )
        config.threshold(t)
    smallest = min(data.train_x.shape[0] // n for data in sequence)
    if config.method == "codec" and config.rep_samples > smallest:
        log.warning(
            "rep_samples %d exceeds the smallest shard (%d samples); "
            "a representation batch is clamped to its shard",
            config.rep_samples,
            smallest,
        )


def _train_task(
    agents: Agents,
    w: np.ndarray,
    config: TrainConfig,
    t: int,
    data: LabeledDataset,
    pool: TaskShard,
    shards: list[TaskShard],
    history: list,
) -> tuple[list[int], int]:
    """Task ``t``'s start and rounds, its batches gathered from the pool of
    its shards (``shard_iid``), each round's loss, mu and consensus error
    appended to ``history``; returns the scalars a message carries per array
    of ``task_params``, and the rounds."""
    if config.method == "stl" and t > 0:
        stream = derive_rng(config.seed, TAG_INIT, t)
        agents.model = init_mlp(config.dims, stream).stacked(len(w))
    model, codec = agents.model, config.method == "codec"
    model.add_head(t, len(data.classes), derive_rng(config.seed, TAG_HEAD, t))
    # every update of the task lies in span(o), so a layer with a memory
    # trains and gossips its coefficients over the shared start
    for l, basis in enumerate(agents.memory.layers):
        if basis.rank:
            model.factor(l, basis.o)
    # a message carries each array as held: a factored layer's c, raw otherwise
    sizes = [x[0].size for x in task_params(model, t)]
    # task starts from consensus, so the own state is the aggregate
    agents.aggregates = [x.copy() for x in task_params(model, t)]
    rounds_per_epoch = math.ceil(max(len(s) for s in shards) / config.batch_size)
    total_rounds = config.epochs * rounds_per_epoch
    batches = _batches(
        shards, config.seed, t, config.epochs, rounds_per_epoch, config.batch_size
    )
    # the checks, and a workspace for the round's layer-sized arrays, made by
    # the first round and reused by the rest: the shapes hold for the task
    kw = {"debug": config.debug_checks, "ws": {}}
    bx = np.empty((*batches.shape[1:], pool.examples.shape[1]), pool.examples.dtype)
    # the dewc penalty's step rows, made once for the task
    eta, penalty = config.eta, None
    if agents.fisher is not None and config.lam > 0.0:
        penalty = implicit_rows(agents.fisher, config.lam, eta)
    for r, idx in enumerate(batches):
        try:
            # mode="raise" (the default) would buffer a copy
            np.take(pool.examples, idx, axis=0, out=bx, mode="clip")
            loss, mu, grads = local_step(
                model, agents.memory, bx, pool.labels[idx], t, projection=codec, **kw
            )
            if not (np.isfinite(loss).all() and np.isfinite(mu).all()):
                steps = _steps(task_params(model, t), grads, penalty, eta)
                raise _non_finite(steps, loss=loss, mu=mu)
            ce = gossip_round(agents, w, t, grads, eta, penalty=penalty, **kw)
            if not math.isfinite(ce):
                raise NonFiniteError("non-finite consensus error")
        except (NonFiniteError, InvariantError) as exc:
            exc.args = (f"task {t}, round {r}: {exc}",)
            raise
        history.append((loss, mu, ce))
    agents.aggregates = []  # the next task's start makes its own
    return sizes, total_rounds


def _boundary(
    agents: Agents,
    config: TrainConfig,
    t: int,
    pool: TaskShard,
    shards: list[TaskShard],
    pick_stream: np.random.Generator,
) -> None:
    """Task ``t``'s boundary: the sync, where every agent takes the average,
    the fold, then the memory growth or the Fisher phase."""
    for a in param_arrays(agents.model):
        a[...] = a.mean(axis=0)
    agents.model.fold()  # plain layers for the memory, the Fisher and the evaluation
    if config.method == "codec":
        gpm_broadcast(agents, shards, t, config, pick_stream)
    if config.method == "dewc":
        # after the sync every agent holds the same parameters, so agent 0's
        # Fisher over the pool is the agents' average, and its anchor is
        # everyone's
        avg = fisher_mean(agents.model.view(0), pool, [len(s) for s in shards], t)
        agents.fisher = accumulate_fisher(agents.fisher, avg)


def _evaluate(
    model: Mlp, sequence: list[LabeledDataset], t: int, method: str, row: np.ndarray
) -> None:
    """Agent 0's test accuracy after task ``t``, into ``row``: on every task
    so far, or on task ``t`` alone for ``stl``."""
    view = model.view(0)
    for i in [t] if method == "stl" else range(t + 1):
        pred = np.argmax(forward(view, sequence[i].test_x, i).logits, axis=1)
        row[i] = np.mean(pred == sequence[i].test_y)


def _openblas_threads():
    """The thread-count getter and setter of the OpenBLAS numpy loaded,
    found through ``ctypes`` among the libraries mapped into the process,
    or ``None``: for MKL, Accelerate or any BLAS without these symbols, and
    where ``/proc/self/maps`` cannot be read."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {
                line.split(maxsplit=5)[-1].strip()
                for line in handle
                if "openblas" in line.lower()
            }
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(handle, f"{name}_get_num_threads{suffix}", None)
                put = getattr(handle, f"{name}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.restype, put.argtypes = ctypes.c_int, [ctypes.c_int]
                    return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """OpenBLAS at one thread inside the block, the caller's count after:
    a BLAS product's rounding follows how many threads split it, so the
    report bytes would follow the core count.  Other BLAS builds are left
    as they are."""
    found = _openblas_threads()
    before = found[0]() if found else 1
    if before != 1:
        found[1](1)
    try:
        yield
    finally:
        if before != 1:
            found[1](before)


def run(config: TrainConfig, sequence: list[LabeledDataset]) -> RunResult:
    """Train ``config.method`` over the task sequence, a list of datasets,
    neither of which is changed: per task its rounds, its boundary and its
    evaluation, each a function whose views and buffers go as it returns.
    OpenBLAS runs at one thread throughout (``_one_blas_thread``)."""
    with _one_blas_thread():
        check_run(config, sequence)
        n, method = config.topology.n, config.method
        w = build_mixing(config.topology)
        matrix = np.full((len(sequence), len(sequence)), np.nan)
        ledger: list[TaskComm] = []
        history: list = []  # one (loss, mu, consensus error) per round
        pick_stream = derive_rng(config.seed, TAG_PICK)
        stream = derive_rng(config.seed, TAG_INIT, 0)
        agents = Agents(
            model=init_mlp(config.dims, stream).stacked(n),
            memory=GpmState.fresh(config.dims[:-1] if method == "codec" else []),
        )
        for t, data in enumerate(sequence):
            pool, shards = shard_iid(data, n, _derive_int(config.seed, TAG_SHARD, t))
            sizes, rounds = _train_task(
                agents, w, config, t, data, pool, shards, history
            )
            _boundary(agents, config, t, pool, shards, pick_stream)
            ledger.append(price_task(agents, t, method, sizes, rounds, fanout(w)))
            _evaluate(agents.model, sequence, t, method, matrix[t])
        loss, mu, ce = zip(*history)
        return RunResult(
            method=method,
            accuracy=matrix,
            ledger=ledger,
            loss=np.array(loss, dtype=float).reshape(-1, n),
            mu=np.array(mu, dtype=float).reshape(-1, n),
            consensus_error=np.array(ce, dtype=float),
            final_params=flatten_params(agents.model.view(0)),
            gpm=agents.memory if method == "codec" else None,
        )
