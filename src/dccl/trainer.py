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
the average ``c`` into ``x0`` once.  Compression changes what the ledger
charges, not the arithmetic.  The memory is fixed within a task, so the
ledger prices each task once (``price_task``).

All agents share model shapes and step in lockstep, so their state is held
stacked: every parameter array and tracked aggregate has a leading agent
axis, a local step is one batched forward/backward pass returning the
steps ``d = -eta g~``, and a gossip round is, per array, the update
``q = (a - x) + d`` and one mixing-matrix product.  All randomness is
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

from .ewc import (
    FisherState,
    accumulate_fisher,
    ewc_grad,
    fisher_average,
    fisher_estimate,
)
from .gpm import (
    GpmState,
    ThresholdSchedule,
    descent_check,
    update_memory,
)
from .metrics import AccuracyMatrix
from .model import (
    Mlp,
    backward,
    capture_representation,
    flatten_params,
    forward,
    init_mlp,
    param_arrays,
    task_params,
    trunk_params,
)
from .tasks import TaskSequence, TaskShard, shard_iid
from .topology import Topology, build_mixing

log = logging.getLogger(__name__)

# named seed streams
TAG_INIT = 1
TAG_HEAD = 2
TAG_SHARD = 3
TAG_BATCH = 4
TAG_PICK = 5
TAG_REP = 7

METHODS = ("codec", "codec_fullcomm", "dewc", "stl", "naive")
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


@dataclass
class LogRecord:
    task: int
    round: int
    agent: int
    loss: float
    ce: float
    mu: float
    scalars_sent: int


@dataclass(frozen=True)
class TaskComm:
    """Scalars one task sent, full and actual: each trunk layer's round
    payloads, the raw heads and biases, and the boundary phases' overhead."""

    task: int
    layer_full: list[int]
    layer_actual: list[int]
    rounds: int = 0
    messages: int = 0
    extra_scalars: int = 0
    overhead_actual: int = 0
    overhead_full: int = 0


@dataclass
class RunResult:
    method: str
    accuracy: AccuracyMatrix
    ledger: list[TaskComm]  # one record per task
    logs: list[LogRecord]
    final_params: np.ndarray
    gpm: GpmState | None


def _mix(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``w`` applied over the leading agent axis of ``x``."""
    return (w @ x.reshape(len(w), -1)).reshape(x.shape)


def _per_agent(x: np.ndarray) -> np.ndarray:
    return x.reshape(len(x), -1)


def consensus_error(model: Mlp) -> float:
    """Mean squared distance of agent parameters from their average; a
    factored layer's is its coefficients', as its ``o`` is orthonormal."""
    total = 0.0
    for a in param_arrays(model):
        dev = a - a.mean(axis=0)
        dev *= dev
        total += float(dev.sum())
    return total / model.lead[0]


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


def _check_finite(loss: np.ndarray, mu: np.ndarray, steps: list[np.ndarray]) -> None:
    bad = ~(np.isfinite(loss) & np.isfinite(mu))
    for d in steps:
        bad |= ~np.isfinite(_per_agent(d)).all(axis=1)
    if bad.any():
        agent = int(np.flatnonzero(bad)[0])
        if not np.isfinite(loss[agent]):
            what = "loss"
        elif not np.isfinite(mu[agent]):
            what = "mu"
        else:
            what = "step"
        raise NonFiniteError(f"agent {agent} has non-finite {what}")


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner product of each agent's arrays, with no temporary of their size."""
    n = len(a)
    return (a.reshape(n, 1, -1) @ b.reshape(n, -1, 1)).reshape(n)


def _check_descent(g: np.ndarray, gt: np.ndarray, lost: np.ndarray, layer: int) -> None:
    ip = descent_check(g, gt)
    gsq, tsq = _dots(g, g), _dots(gt, gt)
    slack = 1e-8 * gsq + 1e-300
    at = f"layer {layer}: "
    _require(ip >= -1e-12, at + "descent check failed: <g, g~> = {}", ip)
    identity = np.abs(ip - tsq) <= slack
    _require(identity, at + "projection identity violated: {} vs {}", ip, tsq)
    split = np.abs(gsq - tsq - lost) <= slack
    _require(split, at + "norm split violated: {} vs {} + {}", gsq, tsq, lost)


def _lost_sq(x: np.ndarray, m: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """``||(X m)^T dz||^2`` per agent, formed directly while ``(X m)^T dz``
    is no larger than the batch, else from the batch-sized Grams
    ``<(X m)(X m)^T, dz dz^T>``: no temporary of the layer's size."""
    xm = x @ m
    if m.shape[1] * dz.shape[-1] <= dz.shape[-2] * (m.shape[1] + dz.shape[-1]):
        xm = xm.swapaxes(-1, -2) @ dz
        return _dots(xm, xm)
    return _dots(xm @ xm.swapaxes(-1, -2), dz @ dz.swapaxes(-1, -2))


def _gradients(
    model: Mlp,
    gpm: GpmState,
    bx: np.ndarray,
    by: np.ndarray,
    task: int,
    *,
    projection: bool,
    debug: bool,
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Loss, mu and the gradients of ``local_step``, before any scaling."""
    loss, trace, deltas, rest = backward(model, bx, by, task)
    kept_sq = np.zeros(len(loss))  # ||g~||^2 over the trunk
    lost_sq = np.zeros(len(loss))  # ||m^T g||^2 over the trunk
    grads = []
    for l, (x, dz, basis) in enumerate(zip(trace.inputs, deltas, gpm.layers)):
        g = trace.coords[l].swapaxes(-1, -2) @ dz
        if model.bases[l] is not None:
            lost = _lost_sq(x, basis.m, dz)
            if debug:
                _check_descent(x.swapaxes(-1, -2) @ dz, basis.o @ g, lost, l)
            lost_sq += lost
        if projection:
            kept_sq += _dots(g, g)
        grads.append(g)
    mu = np.ones(len(loss))
    if projection:
        raw_sq = kept_sq + lost_sq
        nonzero = raw_sq != 0.0
        mu[nonzero] = np.sqrt(kept_sq[nonzero]) / np.sqrt(raw_sq[nonzero])
        if debug:
            _require(mu <= 1.0 + 1e-10, "has mu = {} above 1", mu)
    return loss, mu, grads + rest


def local_step(
    model: Mlp,
    gpm: GpmState,
    bx: np.ndarray,
    by: np.ndarray,
    task: int,
    eta: float,
    *,
    projection: bool,
    fisher_states: tuple[FisherState, ...] = (),
    lam: float = 0.0,
    debug: bool = False,
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """One SGD step at every agent of a stacked model, left unapplied.

    Returns loss, mu and the steps ``-eta * g~`` lined up with
    ``task_params(model, task)``; the model is not changed.  The steps are
    new arrays that ``gossip_round`` consumes.  A trunk layer that the
    model holds factored over its memory's complement, ``x0 + o c``, steps
    its coefficients by ``-eta (X o)^T dz``: the projected gradient
    ``project(X^T dz, m)`` in ``o`` coordinates, of width 0 for a saturated
    memory.  The raw ``g = X^T dz`` is formed only by the ``debug`` checks.
    With projection on, ``mu`` is the projected-to-raw trunk gradient norm
    ratio per agent, with ``||g||^2 = ||g~||^2 + ||(X m)^T dz||^2``.
    Without projection, every state in ``fisher_states`` (empty but for
    ``dewc``) adds its penalty to the trunk gradients.
    """
    # the layer inputs and deltas are freed before the dewc penalty's
    # temporaries are made
    loss, mu, grads = _gradients(
        model, gpm, bx, by, task, projection=projection, debug=debug
    )
    if not projection:
        ewc_grad(model, grads, fisher_states, lam)
    for g in grads:
        g *= -eta
    return loss, mu, grads


def gossip_round(
    agents: Agents,
    w: np.ndarray,
    task: int,
    steps: list[np.ndarray],
    *,
    debug: bool = False,
) -> None:
    """One synchronous gossip exchange.

    ``steps`` are the local steps ``d`` from ``local_step``, one per array
    of ``task_params(model, task)``: the trunk layers, then the layer
    biases, head and head bias.  Per array, every agent's update is
    ``q = (a - x) + d`` from its tracked aggregate ``a``, it moves to
    ``x + q``, and every aggregate takes in ``W q``, one mixing product
    written into ``d``'s buffer: the round consumes ``steps``.

    A trunk layer held factored is its coefficients ``c``, so its update
    is the coefficients the codec sends, and its aggregate tracks ``sum_j
    w_ij c_j``: the round never forms the layer, and an update outside the
    memory's complement cannot be represented.
    """
    arrays = task_params(agents.model, task)
    for x, d, agg in zip(arrays, steps, agents.aggregates):
        q = agg - x  # gossip term first: it cancels exactly at a consensus fixed point
        q += d
        x += q
        # d entered q, so its buffer takes the mixing product
        agg += np.matmul(w, _per_agent(q), out=_per_agent(d)).reshape(agg.shape)
        del q  # freed before the next array's update is formed
    if debug:
        _check_tracking(agents, w, task)


def fanout(w: np.ndarray) -> np.ndarray:
    """Receivers per sender: the positive off-diagonal weights of its column."""
    return np.count_nonzero(w > 0.0, axis=0) - (np.diag(w) > 0.0)


def message_sizes(model: Mlp, memory: GpmState, task: int, compression: bool) -> list[int]:
    """Scalars one message carries per array of ``task_params(model, task)``
    of the plain model: a compressed trunk layer's coefficients are
    ``o.shape[1] * cols``, every other array travels raw.  Fixed while the
    memory is."""
    sizes = [x[0].size for x in task_params(model, task)]
    if compression:
        for l, (x, basis) in enumerate(zip(model.layers, memory.layers)):
            sizes[l] = basis.o.shape[1] * x.shape[-1]
    return sizes


def price_task(
    agents: Agents, task: int, method: str, sizes: list[int], rounds: int, messages: int
) -> TaskComm:
    """Task ``task``'s record, priced once its boundary phases ran, from its
    ``message_sizes``, its rounds and the ``messages`` of one round."""
    model, memory = agents.model, agents.memory
    n = model.lead[0]
    n_layers = len(model.layers)
    sent = rounds * messages
    # the boundary sync sends every agent's whole model
    fixed = n * sum(a[0].size for a in param_arrays(model))
    if method == "dewc":  # the trunk Fisher diagonal, gathered and sent back
        fixed += 2 * (n - 1) * sum(p[0].size for p in trunk_params(model))
    basis = actual = 0
    if method in ("codec", "codec_fullcomm"):  # the grown memory, to the others
        basis = actual = (n - 1) * sum(b.dim * b.rank for b in memory.layers)
        if method == "codec":  # with its complement, to decode by
            actual = (n - 1) * sum(b.dim * b.dim for b in memory.layers)
    return TaskComm(
        task=task,
        layer_full=[sent * x[0].size for x in model.layers],
        layer_actual=[sent * s for s in sizes[:n_layers]],
        rounds=rounds,
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


def check_run(config: TrainConfig, sequence: TaskSequence) -> None:
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
    if len(config.dims) < 1 or config.dims[0] != sequence.input_dim:
        raise ValueError(
            f"model input width {config.dims[:1]} does not match data "
            f"dimension {sequence.input_dim}"
        )
    if config.ewc_mode not in EWC_MODES:
        raise ValueError(f"unknown ewc mode {config.ewc_mode!r}")
    n = config.topology.n
    projection = config.method in ("codec", "codec_fullcomm")
    for t, data in enumerate(sequence.tasks):
        rows = data.train_x.shape[0]
        if rows < n:
            raise ValueError(
                f"task {t} has {rows} training samples, fewer than {n} agents"
            )
        if data.test_x.shape[0] == 0:
            raise ValueError(f"task {t} has an empty test split")
        config.threshold.value(t)  # raises if the schedule leaves (0, 1)
    smallest = min(data.train_x.shape[0] // n for data in sequence.tasks)
    if projection and config.rep_samples > smallest:
        log.warning(
            "rep_samples %d exceeds the smallest shard (%d samples); "
            "a representation batch is clamped to its shard",
            config.rep_samples,
            smallest,
        )


def _batches(
    shards: list[TaskShard], seed: int, task: int, epoch: int, rounds: int, size: int
) -> np.ndarray:
    """Row indices into the concatenated shards, shape (rounds, N, size)."""
    # agent i's row is its shard's permutation (the stream derive_rng
    # would give), repeated to length and shifted to the shard's offset
    idx = np.empty((len(shards), rounds * size), dtype=np.int64)
    cycle = np.arange(rounds * size)
    entropy = _entropy(seed, TAG_BATCH, 0, task, epoch)
    offset = 0
    for i, (shard, row) in enumerate(zip(shards, idx)):
        entropy[-3] = i  # the agent's word
        seq = np.random.SeedSequence(entropy)
        perm = np.random.Generator(np.random.PCG64(seq)).permutation(len(shard))
        perm += offset
        perm.take(cycle, mode="wrap", out=row)
        offset += len(shard)
    return idx.reshape(len(shards), rounds, size).swapaxes(0, 1)


def _fisher_phase(
    model: Mlp, shards: list[TaskShard], task: int, fisher: list[FisherState], mode: str
) -> list[FisherState]:
    """The dewc penalty states after task ``task``: one accumulated state
    (``online``) or one per task (``per_task``)."""
    # after the boundary sync every agent holds the same parameters, so
    # the average's anchor (agent 0's) is everyone's
    states = [fisher_estimate(model.view(i), s, task) for i, s in enumerate(shards)]
    avg = fisher_average(states)
    if mode == "online":
        return [accumulate_fisher(fisher[0] if fisher else None, avg)]
    return fisher + [avg]


def run(config: TrainConfig, sequence: TaskSequence) -> RunResult:
    """Train ``config.method`` over the task sequence; the config is not changed."""
    check_run(config, sequence)
    n = config.topology.n
    method = config.method
    projection = method in ("codec", "codec_fullcomm")
    w = build_mixing(config.topology)
    t_count = len(sequence.tasks)
    matrix = AccuracyMatrix(t_count)
    ledger: list[TaskComm] = []
    logs: list[LogRecord] = []
    fisher: list[FisherState] = []  # the dewc penalty states
    stiff_warned = False
    pick_stream = derive_rng(config.seed, TAG_PICK)
    base = init_mlp(config.dims, derive_rng(config.seed, TAG_INIT, 0), config.use_bias)
    agents = Agents(model=base.stacked(n), memory=GpmState.fresh(config.dims[:-1]))
    receivers = fanout(w)
    messages = int(receivers.sum())
    for t, data in enumerate(sequence.tasks):
        if method == "stl" and t > 0:
            stream = derive_rng(config.seed, TAG_INIT, t)
            fresh = init_mlp(config.dims, stream, config.use_bias)
            agents.model = fresh.stacked(n)
        model = agents.model
        model.add_head(t, len(data.classes), derive_rng(config.seed, TAG_HEAD, t))
        shards = shard_iid(data, n, _derive_int(config.seed, TAG_SHARD, t))
        pool_x = np.concatenate([s.examples for s in shards])
        pool_y = np.concatenate([s.labels for s in shards])
        sizes = message_sizes(model, agents.memory, t, method == "codec")
        sent = [sum(sizes) * int(k) for k in receivers]
        # every update of the task lies in span(o), so a layer with a memory
        # trains and gossips its coefficients over the shared start
        for l, basis in enumerate(agents.memory.layers):
            if basis.rank:
                model.factor(l, basis.o)
        # task starts from consensus, so the own state is the aggregate
        agents.aggregates = [x.copy() for x in task_params(model, t)]
        max_shard = max(len(s) for s in shards)
        rounds_per_epoch = math.ceil(max_shard / config.batch_size)
        total_rounds = config.epochs * rounds_per_epoch
        batches = (
            idx
            for epoch in range(config.epochs)
            for idx in _batches(
                shards, config.seed, t, epoch, rounds_per_epoch, config.batch_size
            )
        )
        for r, idx in enumerate(batches):
            eta = config.eta
            if config.lr_decay and 2 * r >= total_rounds:
                eta *= 0.01 if 4 * r >= 3 * total_rounds else 0.1
            try:
                loss, mu, steps = local_step(
                    model,
                    agents.memory,
                    pool_x[idx],
                    pool_y[idx],
                    t,
                    eta,
                    projection=projection,
                    fisher_states=tuple(fisher),
                    lam=config.lam,
                    debug=config.debug_checks,
                )
                _check_finite(loss, mu, steps)
                gossip_round(agents, w, t, steps, debug=config.debug_checks)
                del steps  # freed before the next round's are made
                ce = consensus_error(model)
                if not math.isfinite(ce):
                    raise NonFiniteError("non-finite consensus error")
            except (NonFiniteError, InvariantError) as exc:
                exc.args = (f"task {t}, round {r}: {exc}",)
                raise
            logs.extend(
                LogRecord(
                    task=t,
                    round=r,
                    agent=i,
                    loss=float(loss[i]),
                    ce=ce,
                    mu=float(mu[i]),
                    scalars_sent=sent[i],
                )
                for i in range(n)
            )
        # the boundary sync: every agent takes the average
        for a in param_arrays(model):
            a[...] = a.mean(axis=0)
        model.fold()  # plain layers for the memory, the Fisher and the evaluation
        if projection:
            eps_th = config.threshold.value(t)
            gpm_broadcast(agents, shards, t, eps_th, config, pick_stream)
        if method == "dewc":
            fisher = _fisher_phase(model, shards, t, fisher, config.ewc_mode)
            # the next task steps the penalty explicitly, x -= eta lam F (x - anchor),
            # which is stable only while eta lam F < 2 on every entry of the summed F
            f_max = max(float(sum(f).max()) for f in zip(*(s.f for s in fisher)))
            stiff = config.eta * config.lam * f_max
            if stiff >= 2.0 and not stiff_warned and t + 1 < t_count:
                stiff_warned = True
                log.warning(
                    "dewc penalty after task %d has eta*lambda*max(F) = %.1f, "
                    "not below 2: the explicit penalty step can diverge",
                    t,
                    stiff,
                )
        ledger.append(price_task(agents, t, method, sizes, total_rounds, messages))
        view = model.view(0)
        for i in [t] if method == "stl" else range(t + 1):
            test = sequence.tasks[i]
            pred = np.argmax(forward(view, test.test_x, i).logits, axis=1)
            matrix.set(t, i, float(np.mean(pred == test.test_y)))
    return RunResult(
        method=method,
        accuracy=matrix,
        ledger=ledger,
        logs=logs,
        final_params=flatten_params(agents.model.view(0)),
        gpm=agents.memory if projection else None,
    )
