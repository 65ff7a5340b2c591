"""Bulk-synchronous decentralized training over a task sequence.

The loop is ``run``: per task, rounds of a local step and a gossip round,
then the boundary average, the memory growth (or the Fisher phase) and the
evaluation.  Every round, each agent takes one (optionally projected) SGD
step on its own shard, then a gossip exchange mixes parameters using each
agent's running aggregate of neighbor states.  A projected trunk update
lies in the span of the memory's complement ``o`` and every agent starts
the task from the same ``x0``, so a layer with a memory is held as ``x0 +
o c``: the passes, the step, the round and the consensus error work on the
coefficients ``c``, which are what the codec sends, and the boundary folds
the average ``c`` into ``x0`` once.  Each ledger record also prices the
same traffic sent raw, its ``full`` side: the full-communication baseline.
The memory is fixed within a task, so the ledger prices each task once
(``price_task``).

All agents share model shapes and step in lockstep, so their state is held
stacked: every parameter array and tracked aggregate has a leading agent
axis, a local step is one batched forward/backward pass returning the
(projected) gradients ``g~``, a large trunk one as its batch-sized factor
pair (``Outer``), and a gossip round is one sweep that forms the steps
``d`` from them, then updates, mixes and measures the arrays a block at a
time: ``d = -eta g~``, but for ``dewc``'s trunk under a penalty, whose
step is the implicit one of ``ewc.implicit_rows``.  So a task holds two
model-sized stacks, the parameters and the aggregates.  All randomness is
derived from the run seed through named streams, so a configuration
reproduces itself exactly.

Conventions that keep the subspace-closure argument airtight: all agents
start a task from the same parameters (models are averaged at every task
boundary, charged to the ledger as one uncompressed full-model exchange),
and tracked neighbor aggregates are initialized from those same parameters.
Heads and biases are unconstrained, so their deltas travel uncompressed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .ewc import FisherState, accumulate_fisher, fisher_mean, implicit_rows
from .gpm import GpmState, ThresholdSchedule, update_memory
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
    trunk_params,
)
from .tasks import LabeledDataset, TaskShard, shard_iid
from .topology import Topology, build_mixing

log = logging.getLogger(__name__)

# named seed streams
TAG_INIT = 1
TAG_HEAD = 2
TAG_SHARD = 3
TAG_BATCH = 4
TAG_PICK = 5
TAG_REP = 7

METHODS = ("codec", "dewc", "stl", "naive")
EWC_MODES = ("online", "per_task")


class NonFiniteError(ArithmeticError):
    """Training produced a non-finite loss, mu, step or consensus error."""


class InvariantError(RuntimeError):
    """A ``debug_checks`` invariant failed: descent, mu, norm split or tracking."""


def _entropy(seed: int, *rest: int) -> np.ndarray:
    """The uint32 words ``SeedSequence`` makes of ``(seed, *rest)``: the
    seed's little-endian 32-bit words, then one word per value of ``rest``."""
    seed = int(seed)
    words = [seed >> s & 0xFFFFFFFF for s in range(0, max(seed.bit_length(), 1), 32)]
    return np.array(words + [int(v) for v in rest], dtype=np.uint32)


_M32 = 0xFFFFFFFF


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for every row of
    the uint32 matrix ``entropy``, in one pass: numpy's documented mixing
    (pool of four words, ``mix_entropy``, then eight output words), whose
    hash constants advance alike for every row of one length."""
    rows, length = entropy.shape
    const = 0x43B0D7E5

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * 0x931E8875 & _M32
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
        return out ^ out >> np.uint32(16)

    zero = np.zeros(rows, dtype=np.uint32)  # a row shorter than the pool is padded
    pool = [hashmix(entropy[:, i] if i < length else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, length):
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    state = np.empty((rows, 8), dtype=np.uint32)
    const = 0x8B51F9DD
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(const)
        const = const * 0x58F38DED & _M32
        value = value * np.uint32(const)
        state[:, i] = value ^ value >> np.uint32(16)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """Seed words made in advance by ``_seed_words``, for a bit generator:
    ``PCG64`` asks for the four uint64 words they are."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def derive_rng(*entropy: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(_entropy(*entropy)))


def _derive_int(*entropy: int) -> int:
    return int(np.random.SeedSequence(_entropy(*entropy)).generate_state(1)[0])


@dataclass
class TrainConfig:
    """One training run; ``method`` is one of ``METHODS``.

    ``lam`` and ``ewc_mode`` (one of ``EWC_MODES``) set the ``dewc`` penalty
    and are ignored by the other methods.  The agent count is
    ``topology.n``.
    """

    eta: float
    epochs: int
    batch_size: int
    threshold: ThresholdSchedule
    topology: Topology
    seed: int
    method: str = "codec"
    lam: float = 5000.0
    ewc_mode: str = "online"
    dims: list[int] = field(default_factory=lambda: [16, 32, 16])
    use_bias: bool = False
    rep_samples: int = 64
    lr_decay: bool = False
    debug_checks: bool = False


@dataclass
class Agents:
    """Every agent's state, stacked along a leading agent axis."""

    model: Mlp  # each array has shape (N, ...)
    memory: GpmState  # the one read-only basis every agent projects with
    # one per array of task_params(): the tracked sum_j w_ij x_j
    aggregates: list[np.ndarray] = field(default_factory=list)


@dataclass(frozen=True)
class TaskComm:
    """Scalars one task sent, full and actual: each trunk layer's round
    payloads, the raw heads and biases, and the boundary phases' overhead;
    ``scalars_sent`` holds what each agent sent in one round."""

    task: int
    layer_full: list[int]
    layer_actual: list[int]
    rounds: int = 0
    scalars_sent: tuple[int, ...] = ()
    messages: int = 0
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


def _gram_sq(c: np.ndarray, dz: np.ndarray, ws: dict | None, key) -> np.ndarray:
    """``||c^T dz||^2`` per agent from the batch-sized Grams ``<c c^T, dz
    dz^T>``: no temporary of the product's size."""
    grams = _matmul(c, c.swapaxes(-1, -2), ws, key)
    dz_dz = _scratch(ws, grams.shape)
    return _dots(grams, np.matmul(dz, dz.swapaxes(-1, -2), out=dz_dz))


def _lost_sq(
    x: np.ndarray, m: np.ndarray, dz: np.ndarray, ws: dict | None, l: int
) -> np.ndarray:
    """``||(X m)^T dz||^2`` per agent, formed directly while ``(X m)^T dz``
    is no larger than its factors, else from their Grams (``_gram_sq``)."""
    xm = _matmul(x, m, ws, ("xm", l))
    if _factored(xm, dz):
        return _gram_sq(xm, dz, ws, ("xm_xm", l))
    xm_dz = _scratch(ws, (*xm.shape[:-2], xm.shape[-1], dz.shape[-1]))
    np.matmul(xm.swapaxes(-1, -2), dz, out=xm_dz)
    return _dots(xm_dz, xm_dz)


class Outer:
    """A stack of trunk gradients ``coords^T dz`` held as their batch-sized
    factors, ``coords`` (N, batch, k) and ``dz`` (N, batch, n_out).

    ``gossip_round`` forms it a block of whole rows at a time (``form``),
    in cache; ``np.asarray`` forms it whole.  A write into it forms it
    whole first and holds it so, as an array would keep the write.
    """

    def __init__(self, coords: np.ndarray, dz: np.ndarray):
        self.coords, self.dz = coords, dz
        self.shape = (*dz.shape[:-2], coords.shape[-1], dz.shape[-1])
        self._whole: np.ndarray | None = None

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if self._whole is not None:
            return self._whole
        return np.matmul(self.coords.swapaxes(-1, -2), self.dz)

    def __setitem__(self, index, value) -> None:
        self._whole = np.asarray(self)
        self._whole[index] = value

    def form(self, start: int, stop: int, out: np.ndarray) -> np.ndarray:
        """Every agent's flat columns ``start:stop``, which span whole rows,
        written into ``out`` (N, stop - start) and returned."""
        if self._whole is not None:
            np.copyto(out, _per_agent(self._whole)[:, start:stop])
            return out
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
    which the round forms a block of rows at a time; other trunk arrays,
    biases and heads get their gradients whole.  So a task holds two
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
    the lost norm does past the same size rule: against the whole
    gradient's norm that moves mu by at most 4.4e-16 relative in the cases
    measured, 4.0e-16 on the ``wide`` benchmark's runs.
    """
    loss, trace, deltas, rest = backward(model, bx, by, task, ws)
    kept_sq = np.zeros(len(loss))  # ||g~||^2 over the trunk
    lost_sq = np.zeros(len(loss))  # ||m^T g||^2 over the trunk
    grads: list = []
    for l, (x, c, dz, basis) in enumerate(
        zip(trace.inputs, trace.coords, deltas, gpm.layers)
    ):
        if _factored(c, dz):
            g = Outer(c, dz)
            if projection:
                kept_sq += _gram_sq(c, dz, ws, ("cc", l))
        else:
            g = _matmul(c.swapaxes(-1, -2), dz, ws, ("g", l))
            if projection:
                kept_sq += _dots(g, g)
        if model.bases[l] is not None:
            lost = _lost_sq(x, basis.m, dz, ws, l)
            if debug:
                gt = basis.o @ np.asarray(g)
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
    return loss, mu, grads + rest


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
    gamma``, which spends ``g``.  A ufunc that writes a contiguous block
    from a strided one buffers 64 KiB under numpy's default buffer size; a
    round runs these under ``_ROW_BUFSIZE``, which needs no buffer."""
    if rows is None:
        return np.multiply(g, -eta, out=out)
    neg_alpha, neg_beta, gamma = rows
    np.multiply(g, neg_alpha, out=out)
    out += np.multiply(x, neg_beta, out=g)
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
    its Fisher states), the implicit penalised step ``d = -alpha g - beta x
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
    each once all its columns moved, so the round moves every array and
    returns the consensus error bit for bit as it would given the whole
    products.  A non-finite step stops the sweep before its block mixes.
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
        fixed += 2 * (n - 1) * sum(p[0].size for p in trunk_params(model))
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
        messages=sent,
        extra_scalars=sent * sum(sizes[n_layers:]),
        overhead_actual=fixed + actual,
        overhead_full=fixed + basis,
    )


def gpm_broadcast(
    agents: Agents,
    shards: list[TaskShard],
    task: int,
    eps_th: float,
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
    agents.memory = update_memory(agents.memory, reps, eps_th)


def check_run(config: TrainConfig, sequence: list[LabeledDataset]) -> None:
    """Raise ``ValueError`` for what ``run`` would reject before training."""
    if config.method not in METHODS:
        raise ValueError(f"unknown method {config.method!r}")
    if not 0.0 < config.eta < math.inf:
        raise ValueError(f"eta must be positive and finite, got {config.eta}")
    if config.epochs < 1 or config.batch_size < 1:
        raise ValueError("epochs and batch_size must be at least 1")
    if config.seed < 0:
        raise ValueError("seed must be non-negative")
    if config.rep_samples < 1:
        raise ValueError(f"rep_samples must be at least 1, got {config.rep_samples}")
    if not config.lam >= 0.0:
        raise ValueError(f"lam must be non-negative, got {config.lam}")
    if config.lam == math.inf:
        raise ValueError(f"lam must be finite, got {config.lam}")
    if len(config.dims) < 1:
        raise ValueError("dims must hold at least the model input width")
    if not sequence:
        raise ValueError("need at least one task")
    if config.ewc_mode not in EWC_MODES:
        raise ValueError(f"unknown ewc mode {config.ewc_mode!r}")
    n = config.topology.n
    projection = config.method == "codec"
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
        config.threshold.value(t)  # raises if the schedule leaves (0, 1)
    smallest = min(data.train_x.shape[0] // n for data in sequence)
    if projection and config.rep_samples > smallest:
        log.warning(
            "rep_samples %d exceeds the smallest shard (%d samples); "
            "a representation batch is clamped to its shard",
            config.rep_samples,
            smallest,
        )


def _batches(
    shards: list[TaskShard], seed: int, task: int, epochs: int, rounds: int, size: int
) -> np.ndarray:
    """Row indices into the concatenated shards for every round of a task,
    shape (epochs * rounds, N, size)."""
    # in each epoch agent i's rows are its shard's permutation (the stream
    # derive_rng(seed, TAG_BATCH, i, task, epoch) would give), shifted to
    # the shard's offset and repeated to length
    n = len(shards)
    lengths = np.array([len(s) for s in shards])
    offsets = np.cumsum(lengths) - lengths
    entropy = np.tile(_entropy(seed, TAG_BATCH, 0, task, 0), (epochs, n, 1))
    entropy[..., -3] = np.arange(n)
    entropy[..., -1] = np.arange(epochs)[:, np.newaxis]
    words = iter(_seed_words(entropy.reshape(epochs * n, -1)))
    # a shard's slice of an arange is its offset plus its own arange, so
    # shuffling the slice in place shifts the shard's permutation
    perms = np.tile(np.arange(lengths.sum()), (epochs, 1))
    spans = list(zip(offsets.tolist(), (offsets + lengths).tolist()))
    for perm in perms:
        for start, stop in spans:
            bits = np.random.PCG64(_SeedWords(next(words)))
            np.random.Generator(bits).shuffle(perm[start:stop])
    cycle = np.arange(rounds * size).reshape(rounds, 1, size)
    cycle = cycle % lengths[:, np.newaxis] + offsets[:, np.newaxis]
    return perms[:, cycle].reshape(-1, n, size)


def _fisher_phase(
    model: Mlp, shards: list[TaskShard], task: int, fisher: list[FisherState], mode: str
) -> list[FisherState]:
    """The dewc penalty states after task ``task``: one accumulated state
    (``online``) or one per task (``per_task``)."""
    # after the boundary sync every agent holds the same parameters, so
    # agent 0's Fisher over the pooled shards is the agents' average, and
    # its anchor is everyone's
    avg = fisher_mean(model.view(0), shards, task)
    if mode == "online":
        return [accumulate_fisher(fisher[0] if fisher else None, avg)]
    return fisher + [avg]


def run(config: TrainConfig, sequence: list[LabeledDataset]) -> RunResult:
    """Train ``config.method`` over the task sequence, a list of datasets;
    the config is not changed."""
    check_run(config, sequence)
    n = config.topology.n
    method = config.method
    projection = method == "codec"
    w = build_mixing(config.topology)
    matrix = np.full((len(sequence), len(sequence)), np.nan)
    ledger: list[TaskComm] = []
    losses, mus, ces = [], [], []  # one entry per round
    fisher: list[FisherState] = []  # the dewc penalty states
    pick_stream = derive_rng(config.seed, TAG_PICK)
    base = init_mlp(config.dims, derive_rng(config.seed, TAG_INIT, 0), config.use_bias)
    agents = Agents(model=base.stacked(n), memory=GpmState.fresh(config.dims[:-1]))
    receivers = fanout(w)
    for t, data in enumerate(sequence):
        if method == "stl" and t > 0:
            stream = derive_rng(config.seed, TAG_INIT, t)
            fresh = init_mlp(config.dims, stream, config.use_bias)
            agents.model = fresh.stacked(n)
        model = agents.model
        model.add_head(t, len(data.classes), derive_rng(config.seed, TAG_HEAD, t))
        shards = shard_iid(data, n, _derive_int(config.seed, TAG_SHARD, t))
        pool_x = np.concatenate([s.examples for s in shards])
        pool_y = np.concatenate([s.labels for s in shards])
        # every update of the task lies in span(o), so a layer with a memory
        # trains and gossips its coefficients over the shared start
        for l, basis in enumerate(agents.memory.layers):
            if basis.rank:
                model.factor(l, basis.o)
        # a message carries each array as held: a factored layer's c, raw otherwise
        sizes = [x[0].size for x in task_params(model, t)]
        # task starts from consensus, so the own state is the aggregate
        agents.aggregates = [x.copy() for x in task_params(model, t)]
        max_shard = max(len(s) for s in shards)
        rounds_per_epoch = math.ceil(max_shard / config.batch_size)
        total_rounds = config.epochs * rounds_per_epoch
        batches = _batches(
            shards, config.seed, t, config.epochs, rounds_per_epoch, config.batch_size
        )
        # the round's layer-sized arrays, made by the first round and
        # reused by the rest: the shapes hold for the whole task
        ws: dict = {}
        bx = np.empty((*batches.shape[1:], pool_x.shape[1]), dtype=pool_x.dtype)
        # the dewc penalty's step rows, made once for each step size of the task
        penalty, penalty_eta = None, None
        for r, idx in enumerate(batches):
            eta = config.eta
            if config.lr_decay and 2 * r >= total_rounds:
                eta *= 0.01 if 4 * r >= 3 * total_rounds else 0.1
            if fisher and config.lam > 0.0 and eta != penalty_eta:
                penalty, penalty_eta = implicit_rows(fisher, config.lam, eta), eta
            try:
                # mode="raise" (the default) would buffer a copy
                np.take(pool_x, idx, axis=0, out=bx, mode="clip")
                loss, mu, grads = local_step(
                    model,
                    agents.memory,
                    bx,
                    pool_y[idx],
                    t,
                    projection=projection,
                    debug=config.debug_checks,
                    ws=ws,
                )
                if not (np.isfinite(loss).all() and np.isfinite(mu).all()):
                    steps = _steps(task_params(model, t), grads, penalty, eta)
                    raise _non_finite(steps, loss=loss, mu=mu)
                ce = gossip_round(
                    agents,
                    w,
                    t,
                    grads,
                    eta,
                    penalty=penalty,
                    debug=config.debug_checks,
                    ws=ws,
                )
                if not math.isfinite(ce):
                    raise NonFiniteError("non-finite consensus error")
            except (NonFiniteError, InvariantError) as exc:
                exc.args = (f"task {t}, round {r}: {exc}",)
                raise
            losses.append(loss)
            mus.append(mu)
            ces.append(ce)
        # the round's buffers and the aggregates go before the boundary's;
        # the next task's start makes its aggregates anew
        del ws, bx, batches, idx, grads, penalty
        agents.aggregates = []
        # the boundary sync: every agent takes the average
        for a in param_arrays(model):
            a[...] = a.mean(axis=0)
        model.fold()  # plain layers for the memory, the Fisher and the evaluation
        if projection:
            eps_th = config.threshold.value(t)
            gpm_broadcast(agents, shards, t, eps_th, config, pick_stream)
        if method == "dewc":
            fisher = _fisher_phase(model, shards, t, fisher, config.ewc_mode)
        ledger.append(price_task(agents, t, method, sizes, total_rounds, receivers))
        view = model.view(0)
        for i in [t] if method == "stl" else range(t + 1):
            test = sequence[i]
            pred = np.argmax(forward(view, test.test_x, i).logits, axis=1)
            matrix[t, i] = np.mean(pred == test.test_y)
    return RunResult(
        method=method,
        accuracy=matrix,
        ledger=ledger,
        loss=np.array(losses, dtype=float).reshape(-1, n),
        mu=np.array(mus, dtype=float).reshape(-1, n),
        consensus_error=np.array(ces, dtype=float),
        final_params=flatten_params(agents.model.view(0)),
        gpm=agents.memory if projection else None,
    )
