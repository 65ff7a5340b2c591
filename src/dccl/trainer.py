"""Bulk-synchronous decentralized training over a task sequence.

Every round, each agent takes one (optionally projected) SGD step on its own
shard, then a gossip exchange mixes parameters using each agent's running
aggregate of neighbor states.  A projected trunk update lies in the span of
the memory's complement ``o``, so its subspace coefficients decode back to
it exactly: compression changes what the ledger charges, not the
arithmetic, and the compressed run is the uncompressed one bit for bit.
The memory is fixed within a task, so the ledger prices each task once
from its widths (``price_task``); the rounds, the boundary sync, the basis
broadcast and the Fisher phase only compute.

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
    project,
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
    """A ``debug_checks`` invariant failed: descent, mu, span or tracking."""


def derive_rng(*entropy: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=tuple(int(e) for e in entropy))
    )


def _derive_int(*entropy: int) -> int:
    return int(
        np.random.SeedSequence(entropy=tuple(int(e) for e in entropy)).generate_state(1)[0]
    )


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
    """Mean squared distance of agent parameters from their average."""
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
        drift = np.max(np.abs(_per_agent(_mix(w, x) - agg)), axis=1)
        _require(drift <= 1e-9, f"array {k}: " + "aggregate drifted by {}", drift)


def _check_finite(
    loss: np.ndarray,
    mu: np.ndarray,
    steps: list[np.ndarray],
    task: int,
    round_idx: int,
) -> None:
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
        raise NonFiniteError(
            f"task {task}, round {round_idx}: agent {agent} has non-finite {what}"
        )


def _sq_norms(a: np.ndarray) -> np.ndarray:
    """Squared norm of each agent's array, with no temporary of ``a``'s size."""
    n = len(a)
    return (a.reshape(n, 1, -1) @ a.reshape(n, -1, 1)).reshape(n)


def _check_descent(g: np.ndarray, gt: np.ndarray, lost: np.ndarray, layer: int) -> None:
    ip = descent_check(g, gt)
    gsq, tsq = _sq_norms(g), _sq_norms(gt)
    slack = 1e-8 * gsq + 1e-300
    at = f"layer {layer}: "
    _require(ip >= -1e-12, at + "descent check failed: <g, g~> = {}", ip)
    identity = np.abs(ip - tsq) <= slack
    _require(identity, at + "projection identity violated: {} vs {}", ip, tsq)
    split = np.abs(gsq - tsq - lost) <= slack
    _require(split, at + "norm split violated: {} vs {} + {}", gsq, tsq, lost)


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
    loss, inputs, deltas, rest = backward(model, bx, by, task)
    kept_sq = np.zeros(len(loss))  # ||g~||^2 over the trunk
    lost_sq = np.zeros(len(loss))  # ||m^T g||^2 over the trunk
    grads = []
    for l, (x, dz, basis) in enumerate(zip(inputs, deltas, gpm.layers)):
        xt = x.swapaxes(-1, -2)
        if projection and basis.rank:
            g = project(xt, basis.m) @ dz
            lost = _sq_norms((basis.m.T @ xt) @ dz)
            if debug:
                _check_descent(xt @ dz, g, lost, l)
            lost_sq += lost
        else:
            g = xt @ dz
        if projection:
            kept_sq += _sq_norms(g)
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
    new arrays that ``gossip_round`` consumes.  With projection on, a trunk
    layer's gradient ``g = X^T dz`` is taken from its projected batch
    inputs, ``g~ = project(X^T, m) dz``, and the raw ``g`` is formed only
    by the ``debug`` checks; a layer with an empty memory is not projected,
    and one whose memory is saturated steps by exact zeros.
    ``mu`` is the projected-to-raw trunk gradient norm ratio per agent,
    with ``||g||^2 = ||g~||^2 + ||(m^T X^T) dz||^2``.  Without projection,
    every state in ``fisher_states`` (empty but for ``dewc``) adds its
    penalty to the trunk gradients.
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


def _check_leak(q: np.ndarray, m: np.ndarray, layer: int) -> None:
    qn = np.sqrt(np.sum(q * q, axis=(-2, -1)))
    leak = np.sqrt(np.sum((m.T @ q) ** 2, axis=(-2, -1)))
    what = f"layer {layer}: update leaks outside the transmittable span: "
    _require(leak <= 1e-8 * qn + 1e-300, what + "{} vs norm {}", leak, qn)


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

    A projected trunk update lies in span(o) of ``agents.memory``, so the
    coefficients ``o^T q`` the codec sends decode back to ``q``: the round
    mixes ``q`` whatever travels (``debug`` checks the span), and
    ``message_sizes`` prices a message once per task.
    """
    arrays = task_params(agents.model, task)
    for l, (x, d, agg) in enumerate(zip(arrays, steps, agents.aggregates)):
        q = agg - x  # gossip term first: it cancels exactly at a consensus fixed point
        q += d
        x += q
        if debug and l < len(agents.memory.layers):
            _check_leak(q, agents.memory.layers[l].m, l)
        # d entered q, so its buffer takes the mixing product
        agg += np.matmul(w, _per_agent(q), out=_per_agent(d)).reshape(agg.shape)
        del q  # freed before the next array's update is formed
    if debug:
        _check_tracking(agents, w, task)


def fanout(w: np.ndarray) -> np.ndarray:
    """Receivers per sender: the positive off-diagonal weights of its column."""
    return np.count_nonzero(w > 0.0, axis=0) - (np.diag(w) > 0.0)


def message_sizes(model: Mlp, memory: GpmState, task: int, compression: bool) -> list[int]:
    """Scalars one message carries per array of ``task_params(model, task)``:
    a compressed trunk layer's coefficients ``o^T q`` are ``o.shape[1] *
    cols``, every other array travels raw.  Fixed while the memory is."""
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
        if projection:
            config.threshold.value(t)  # raises if the schedule leaves (0, 1)
    smallest = min(data.train_x.shape[0] // n for data in sequence.tasks)
    if projection and config.rep_samples > smallest:
        log.warning(
            "rep_samples %d exceeds the smallest shard (%d samples); "
            "a representation batch is clamped to its shard",
            config.rep_samples,
            smallest,
        )


class _Engine:
    def __init__(self, config: TrainConfig, sequence: TaskSequence):
        check_run(config, sequence)
        self.cfg = config
        self.seq = sequence
        self.method = method = config.method
        self.projection = method in ("codec", "codec_fullcomm")
        self.compression = method == "codec"
        # dewc only: one accumulated state (online) or one per task
        self.fisher: list[FisherState] = []
        self.stiff_warned = False

    def _eta(self, round_idx: int, total_rounds: int) -> float:
        if not self.cfg.lr_decay:
            return self.cfg.eta
        if 4 * round_idx >= 3 * total_rounds:
            return self.cfg.eta * 0.01
        if 2 * round_idx >= total_rounds:
            return self.cfg.eta * 0.1
        return self.cfg.eta

    def _batches(
        self, shards: list[TaskShard], task: int, epoch: int, rounds: int
    ) -> np.ndarray:
        """Row indices into the concatenated shards, shape (rounds, N, batch)."""
        size = self.cfg.batch_size
        # agent i's row is its shard's permutation (the stream derive_rng
        # would give), repeated to length and shifted to the shard's offset
        idx = np.empty((len(shards), rounds * size), dtype=np.int64)
        offset = 0
        for i, (shard, row) in enumerate(zip(shards, idx)):
            seq = np.random.SeedSequence((self.cfg.seed, TAG_BATCH, i, task, epoch))
            perm = np.random.Generator(np.random.PCG64(seq)).permutation(len(shard))
            perm += offset
            for start in range(0, len(row), len(perm)):
                chunk = row[start : start + len(perm)]
                chunk[...] = perm[: len(chunk)]
            offset += len(shard)
        return idx.reshape(len(shards), rounds, size).swapaxes(0, 1)

    @staticmethod
    def _boundary_sync(model: Mlp) -> None:
        for a in param_arrays(model):
            a[...] = a.mean(axis=0)

    def _fisher_phase(self, model: Mlp, shards: list[TaskShard], task: int) -> None:
        # after the boundary sync every agent holds the same parameters, so
        # the average's anchor (agent 0's) is everyone's
        states = [fisher_estimate(model.view(i), s, task) for i, s in enumerate(shards)]
        avg = fisher_average(states)
        if self.cfg.ewc_mode == "online":
            running = self.fisher[0] if self.fisher else None
            self.fisher = [accumulate_fisher(running, avg)]
        else:
            self.fisher.append(avg)
        # the next task steps the penalty explicitly, x -= eta lam F (x - anchor),
        # which is stable only while eta lam F < 2 on every entry of the summed F
        f_max = max(float(sum(f).max()) for f in zip(*(s.f for s in self.fisher)))
        stiff = self.cfg.eta * self.cfg.lam * f_max
        if stiff >= 2.0 and not self.stiff_warned and task + 1 < len(self.seq.tasks):
            self.stiff_warned = True
            log.warning(
                "dewc penalty after task %d has eta*lambda*max(F) = %.1f, not below 2: "
                "the explicit penalty step can diverge", task, stiff,
            )

    def _evaluate(self, model: Mlp, upto: int, matrix: AccuracyMatrix) -> None:
        task_ids = [upto] if self.method == "stl" else list(range(upto + 1))
        for i in task_ids:
            data = self.seq.tasks[i]
            trace = forward(model, data.test_x, i)
            pred = np.argmax(trace.logits, axis=1)
            matrix.set(upto, i, float(np.mean(pred == data.test_y)))

    def run(self) -> RunResult:
        cfg = self.cfg
        n = cfg.topology.n
        w = build_mixing(cfg.topology)
        t_count = len(self.seq.tasks)
        matrix = AccuracyMatrix(t_count)
        ledger: list[TaskComm] = []
        logs: list[LogRecord] = []
        pick_stream = derive_rng(cfg.seed, TAG_PICK)
        base = init_mlp(cfg.dims, derive_rng(cfg.seed, TAG_INIT, 0), cfg.use_bias)
        agents = Agents(model=base.stacked(n), memory=GpmState.fresh(cfg.dims[:-1]))
        receivers = fanout(w)
        messages = int(receivers.sum())
        for t, data in enumerate(self.seq.tasks):
            if self.method == "stl" and t > 0:
                fresh = init_mlp(cfg.dims, derive_rng(cfg.seed, TAG_INIT, t), cfg.use_bias)
                agents.model = fresh.stacked(n)
            model = agents.model
            model.add_head(t, len(data.classes), derive_rng(cfg.seed, TAG_HEAD, t))
            shards = shard_iid(data, n, _derive_int(cfg.seed, TAG_SHARD, t))
            pool_x = np.concatenate([s.examples for s in shards])
            pool_y = np.concatenate([s.labels for s in shards])
            # task starts from consensus, so the own state is the aggregate
            agents.aggregates = [x.copy() for x in task_params(model, t)]
            max_shard = max(len(s) for s in shards)
            rounds_per_epoch = math.ceil(max_shard / cfg.batch_size)
            total_rounds = cfg.epochs * rounds_per_epoch
            sizes = message_sizes(model, agents.memory, t, self.compression)
            sent = [sum(sizes) * int(k) for k in receivers]
            round_idx = 0
            for epoch in range(cfg.epochs):
                batches = self._batches(shards, t, epoch, rounds_per_epoch)
                for idx in batches:
                    try:
                        loss, mu, steps = local_step(
                            model,
                            agents.memory,
                            pool_x[idx],
                            pool_y[idx],
                            t,
                            self._eta(round_idx, total_rounds),
                            projection=self.projection,
                            fisher_states=tuple(self.fisher),
                            lam=cfg.lam,
                            debug=cfg.debug_checks,
                        )
                        _check_finite(loss, mu, steps, t, round_idx)
                        gossip_round(agents, w, t, steps, debug=cfg.debug_checks)
                    except InvariantError as exc:
                        exc.args = (f"task {t}, round {round_idx}: {exc}",)
                        raise
                    del steps  # freed before the next round's are made
                    ce = consensus_error(model)
                    if not math.isfinite(ce):
                        raise NonFiniteError(
                            f"task {t}, round {round_idx}: non-finite consensus error"
                        )
                    logs.extend(
                        LogRecord(
                            task=t,
                            round=round_idx,
                            agent=i,
                            loss=float(loss[i]),
                            ce=ce,
                            mu=float(mu[i]),
                            scalars_sent=sent[i],
                        )
                        for i in range(n)
                    )
                    round_idx += 1
            self._boundary_sync(model)
            if self.projection:
                eps_th = cfg.threshold.value(t)
                gpm_broadcast(agents, shards, t, eps_th, cfg, pick_stream)
            if self.method == "dewc":
                self._fisher_phase(model, shards, t)
            ledger.append(
                price_task(agents, t, self.method, sizes, total_rounds, messages)
            )
            self._evaluate(model.view(0), t, matrix)
        return RunResult(
            method=self.method,
            accuracy=matrix,
            ledger=ledger,
            logs=logs,
            final_params=flatten_params(agents.model.view(0)),
            gpm=agents.memory if self.projection else None,
        )


def run(config: TrainConfig, sequence: TaskSequence) -> RunResult:
    """Train ``config.method`` over the task sequence; the config is not changed."""
    return _Engine(config, sequence).run()
