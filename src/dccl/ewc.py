"""Decentralized elastic weight consolidation pieces.

The quadratic penalty (lambda/2) * f * (x - a)^2, of the summed task
Fishers f anchored at the latest boundary's a (``accumulate_fisher``),
acts on trunk parameters only; heads are per task and never revisited.
Fisher information is the empirical diagonal: the mean of squared
per-sample loss gradients over an agent's shard.

Training steps the penalty implicitly: the step ``d`` minimises the
linearised loss plus the penalty at ``x + d`` (a proximal step), ``d =
-eta (g + lam f (x - a)) / (1 + eta lam f)``, stable for every ``eta`` and
``lam``.  ``implicit_rows`` makes its coefficients once per task, and the
trainer's gossip round forms the step from them.
``fisher_mean`` gives the agents' averaged Fisher in one pass.
``fisher_estimate`` and the explicit penalty gradient ``ewc_grad`` are the
per-agent forms the tests hold those to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Mlp, sample_deltas
from .tasks import TaskShard


@dataclass(frozen=True)
class FisherState:
    """A Fisher diagonal and its anchor; read-only, so states are shared
    rather than copied when accumulated."""

    f: list[np.ndarray]  # one entry per trunk layer
    anchor: list[np.ndarray]  # parameter snapshot the penalty pulls toward

    def __post_init__(self) -> None:
        for a in (*self.f, *self.anchor):
            a.flags.writeable = False


def fisher_estimate(model: Mlp, shard: TaskShard, task: int) -> FisherState:
    """Diagonal Fisher from one agent's shard at the current parameters.

    Sample i's gradient for a linear layer is ``outer(x_i, dz_i)``, so the
    mean of its squares is ``(X*X)^T (DZ*DZ) / n``: no per-sample gradient
    is ever formed.
    """
    n = len(shard)
    if n == 0:
        raise ValueError("cannot estimate Fisher information on an empty shard")
    inputs, deltas = sample_deltas(model, shard.examples, shard.labels, task)
    f = [(x * x).T @ (dz * dz) / n for x, dz in zip(inputs, deltas)]
    return FisherState(f=f, anchor=[p.copy() for p in model.layers])


def fisher_mean(
    model: Mlp, pool: TaskShard, lengths: list[int], task: int
) -> FisherState:
    """The mean of ``fisher_estimate``'s Fishers over N shards held in order
    in ``pool``, shard i its next ``lengths[i]`` = n_i rows, in one pass over
    the pool: row r of shard i weighs ``1 / (N n_i)``.  The anchor is the
    model's trunk."""
    lengths = np.asarray(lengths)
    if not lengths.size or lengths.min() == 0:
        raise ValueError("cannot estimate Fisher information on an empty shard")
    weights = np.repeat(1.0 / (len(lengths) * lengths), lengths)[:, np.newaxis]
    inputs, deltas = sample_deltas(model, pool.examples, pool.labels, task)
    f = [(x * x).T @ (dz * dz * weights) for x, dz in zip(inputs, deltas)]
    return FisherState(f=f, anchor=[p.copy() for p in model.layers])


def implicit_rows(
    state: FisherState, lam: float, eta: float
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The implicit penalised step's coefficients at step size ``eta``, one
    triple of flat rows ``(-alpha, -beta, gamma)`` per trunk array.

    With ``s = lam f`` and ``t = lam f a`` the step is
    ``-eta (g + s x - t) / (1 + eta s) = -alpha g - beta x + gamma``:
    ``alpha = eta / (1 + eta s)``, ``beta = eta s / (1 + eta s)`` and
    ``gamma = eta t / (1 + eta s)``.
    """
    rows = []
    for f, a in zip(state.f, state.anchor):
        stiff, pull = lam * f, lam * (f * a)
        den = 1.0 + eta * stiff
        rows.append(tuple((c / den).ravel() for c in (-eta, -eta * stiff, eta * pull)))
    return rows


def ewc_grad(
    model: Mlp, grads: list[np.ndarray], fisher: FisherState, lam: float
) -> list[np.ndarray]:
    """Add the penalty gradient lambda * f * (x - x_prev) to the trunk slots
    of ``grads`` (laid out as ``task_params``) in place and return the same
    list: the explicit form of the penalty, which training folds into
    ``implicit_rows`` instead.
    """
    if lam == 0.0:
        return grads
    for g, p, f, anchor in zip(grads, model.layers, fisher.f, fisher.anchor):
        pen = p - anchor
        pen *= lam * f
        g += pen
    return grads


def accumulate_fisher(
    running: FisherState | None, latest: FisherState
) -> FisherState:
    """Online accumulation: running sum of Fishers with the newest anchor."""
    if running is None:
        return latest
    return FisherState(
        f=[a + b for a, b in zip(running.f, latest.f)], anchor=latest.anchor
    )
