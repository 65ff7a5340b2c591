"""Decentralized elastic weight consolidation pieces.

The quadratic penalty (lambda/2) * sum f * (x - x_prev)^2 acts on trunk
parameters only; heads are per task and never revisited, so there is
nothing to anchor them to.  Fisher information is the empirical diagonal:
the mean of squared per-sample loss gradients over an agent's shard.  The
penalty gradient broadcasts over a leading agent axis of the parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Mlp, sample_deltas, trunk_params
from .tasks import TaskShard


@dataclass(frozen=True)
class FisherState:
    """A Fisher diagonal and its anchor; read-only, so states are shared
    rather than copied when averaged or accumulated."""

    f: list[np.ndarray]  # one entry per array of trunk_params(model)
    anchor: list[np.ndarray]  # parameter snapshot the penalty pulls toward

    def __post_init__(self) -> None:
        for a in (*self.f, *self.anchor):
            a.flags.writeable = False


def fisher_estimate(model: Mlp, shard: TaskShard, task: int) -> FisherState:
    """Diagonal Fisher from one agent's shard at the current parameters.

    Sample i's gradient for a linear layer is ``outer(x_i, dz_i)``, so the
    mean of its squares is ``(X*X)^T (DZ*DZ) / n``, with column sums of
    ``DZ*DZ`` for the bias: no per-sample gradient is ever formed.
    """
    n = len(shard)
    if n == 0:
        raise ValueError("cannot estimate Fisher information on an empty shard")
    inputs, deltas = sample_deltas(model, shard.examples, shard.labels, task)
    squares = [dz * dz for dz in deltas]
    f = [(x * x).T @ sq / n for x, sq in zip(inputs, squares)]
    if model.layer_biases is not None:
        f += [sq.sum(axis=0) / n for sq in squares]
    anchor = [p.copy() for p in trunk_params(model)]
    return FisherState(f=f, anchor=anchor)


def ewc_grad(
    model: Mlp, grads: list[np.ndarray], fishers: tuple[FisherState, ...], lam: float
) -> list[np.ndarray]:
    """Add each state's penalty gradient lambda * f * (x - x_prev) to the
    trunk slots of ``grads`` (laid out as ``task_params``) in place and
    return the same list.

    The only stack-sized temporary is ``x - x_prev``, scaled in place by
    the layer-sized ``lambda * f``.
    """
    if lam == 0.0:
        return grads
    params = trunk_params(model)
    for fisher in fishers:
        for g, p, f, anchor in zip(grads, params, fisher.f, fisher.anchor):
            pen = p - anchor
            pen *= lam * f
            g += pen
    return grads


def fisher_average(states: list[FisherState]) -> FisherState:
    """Elementwise mean of per-agent Fishers; anchor from the first state."""
    if not states:
        raise ValueError("no Fisher states to average")
    f = [np.zeros_like(a) for a in states[0].f]
    for state in states:
        if len(state.f) != len(f):
            raise ValueError("Fisher states disagree on parameter count")
        for slot, part in zip(f, state.f):
            slot += part
    f = [a / len(states) for a in f]
    return FisherState(f=f, anchor=states[0].anchor)


def accumulate_fisher(
    running: FisherState | None, latest: FisherState
) -> FisherState:
    """Online accumulation: running sum of Fishers with the newest anchor."""
    if running is None:
        return latest
    return FisherState(
        f=[a + b for a, b in zip(running.f, latest.f)], anchor=latest.anchor
    )
