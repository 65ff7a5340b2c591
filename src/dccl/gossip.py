"""CoDeC's communication step: one synchronous gossip round over the
agents' stacked model, with tracked neighbour aggregates as in CHOCO-SGD
(Koloskova, Stich & Jaggi): each agent moves by its update ``q`` and every
aggregate takes in ``W q``, where a layer held as ``x0 + o c`` sends its
coefficients ``c``, the codec's messages."""

from __future__ import annotations

import math

import numpy as np

from .model import Mlp, Outer, require, scratch, task_params


class NonFiniteError(ArithmeticError):
    """Training produced a non-finite loss, mu, step or consensus error."""


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


def reset_aggregates(model: Mlp, w: np.ndarray, task: int) -> list[np.ndarray]:
    """Every tracked aggregate, computed from the true neighbor states."""
    return [_mix(w, x) for x in task_params(model, task)]


def _check_tracking(model: Mlp, aggregates: list, w: np.ndarray, task: int) -> None:
    for k, (x, agg) in enumerate(zip(task_params(model, task), aggregates)):
        drift = np.max(np.abs(_per_agent(_mix(w, x) - agg)), axis=1, initial=0.0)
        # rounding grows with the aggregate, so a large one is held relative to its size
        scale = np.max(np.abs(_per_agent(agg)), axis=1, initial=1.0)
        require(drift <= 1e-9 * scale, f"array {k}: " + "aggregate drifted by {}", drift)


def _non_finite(steps: list[np.ndarray], **values: np.ndarray) -> NonFiniteError:
    """Name the first agent with a non-finite value, first of ``values``, then step."""
    ok = {what: np.isfinite(v) for what, v in values.items()}
    ok["step"] = np.all([np.isfinite(_per_agent(d)).all(1) for d in steps], axis=0)
    agent = int(np.flatnonzero(~np.all(list(ok.values()), axis=0))[0])
    what = next(what for what, fine in ok.items() if not fine[agent])
    return NonFiniteError(f"agent {agent} has non-finite {what}")


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
    model: Mlp,
    aggregates: list[np.ndarray],
    w: np.ndarray,
    task: int,
    loss: np.ndarray,
    mu: np.ndarray,
    grads: list,
    eta: float,
    *,
    penalty: list[tuple[np.ndarray, ...]] | None = None,
    debug: bool = False,
    ws: dict | None = None,
) -> float:
    """One synchronous gossip exchange of ``model`` and its tracked
    ``aggregates``; returns the consensus error.

    ``loss``, ``mu`` and ``grads`` are ``local_step``'s, the gradients one
    per array of ``task_params(model, task)``, a trunk array's past the size
    rule as its factor pair (``Outer``), and the round consumes them, so a
    task holds no stack of gradients.  Per array, every agent's step is
    ``d = -eta g``, or for the first arrays, one per row triple of
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
    error in 1.  Nothing non-finite mixes: ``NonFiniteError`` names the
    first agent with a non-finite loss, mu or step, and its first such
    value, before any block mixes or, for a step, before its block does;
    and after the sweep, a non-finite consensus error.  The block buffer is
    the scratch buffer of the workspace ``ws`` (see ``local_step``) if one
    is given, else made for this round.
    """
    arrays = task_params(model, task)
    if not (np.isfinite(loss).all() and np.isfinite(mu).all()):
        raise _non_finite(_steps(arrays, grads, penalty, eta), loss=loss, mu=mu)
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
    buf = scratch(ws, (n * need,))
    bufsize = np.setbufsize(_ROW_BUFSIZE)
    try:
        for k, (x, g, agg, rows, cuts) in enumerate(
            zip(arrays, grads, aggregates, rows_of, bounds)
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
        _check_tracking(model, aggregates, w, task)
    if not math.isfinite(total):
        raise NonFiniteError("non-finite consensus error")
    return total / n
