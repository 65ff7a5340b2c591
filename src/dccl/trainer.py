"""Bulk-synchronous decentralized training over a task sequence.

Every round, each agent takes one (optionally projected) SGD step on its own
shard, then a gossip exchange mixes parameters using each agent's running
aggregate of neighbor states.  Updates are communicated as subspace
coefficients when compression is on and decoded exactly at the receiver, so
the compressed run follows the uncompressed trajectory.

All agents share model shapes and step in lockstep, so their state is held
stacked: every parameter array and tracked aggregate has a leading agent
axis, a local step is one batched forward/backward pass returning the
steps ``d = -eta g~``, and a gossip round is, per array, the update
``q = (a - x) + d``, one encode and one decode for all senders and one
mixing-matrix product.  All randomness is derived from the run seed
through named streams, so a configuration reproduces itself exactly.

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
    decode,
    descent_check,
    encode,
    project,
    update_memory,
)
from .metrics import AccuracyMatrix
from .model import (
    Mlp,
    capture_representation,
    flatten_params,
    forward,
    init_mlp,
    loss_and_grad,
    param_arrays,
    task_params,
)
from .tasks import TaskSequence, TaskShard, shard_iid
from .topology import MixingMatrix, Topology, build_mixing

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
    memory: GpmState  # the one read-only basis every agent encodes and decodes with
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


@dataclass
class TaskComm:
    task: int
    layer_full: list[int]
    layer_actual: list[int]
    rounds: int = 0
    messages: int = 0
    extra_scalars: int = 0
    overhead_actual: int = 0
    overhead_full: int = 0


@dataclass
class CommLedger:
    tasks: list[TaskComm] = field(default_factory=list)


@dataclass
class RunResult:
    method: str
    accuracy: AccuracyMatrix
    ledger: CommLedger
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
        total += float(np.sum(dev * dev))
    return total / model.lead[0]


def reset_aggregates(agents: Agents, mixing: MixingMatrix, task: int) -> None:
    """Recompute every tracked aggregate from the true neighbor states."""
    agents.aggregates = [_mix(mixing.w, x) for x in task_params(agents.model, task)]


def _check_tracking(agents: Agents, mixing: MixingMatrix, task: int) -> None:
    for x, agg in zip(task_params(agents.model, task), agents.aggregates):
        drift = np.max(np.abs(_per_agent(_mix(mixing.w, x) - agg)), axis=1)
        worst = int(np.argmax(drift))
        assert drift[worst] <= 1e-9, (
            f"agent {worst} aggregate drifted by {drift[worst]}"
        )


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
    ``task_params(model, task)``; the model is not changed.  With
    projection on, trunk gradients lose their memory-span component and
    ``mu`` is the projected-to-raw trunk gradient norm ratio per agent;
    without it, every state in ``fisher_states`` (empty but for ``dewc``)
    adds its penalty to the trunk gradients.
    """
    loss, grads = loss_and_grad(model, bx, by, task)
    mu = np.ones(len(loss))
    if projection:
        raw_sq = np.zeros(len(loss))
        proj_sq = np.zeros(len(loss))
        # the trunk layers lead the list; indexed rather than sliced, so each
        # raw gradient is freed once its projection replaces it
        for l in range(len(model.layers)):
            g = grads[l]
            gsq = np.sum(g * g, axis=(-2, -1))
            raw_sq += gsq
            g_tilde = project(g, gpm.layers[l].m)
            tsq = np.sum(g_tilde * g_tilde, axis=(-2, -1))
            if debug:
                ip = descent_check(g, g_tilde)
                assert np.all(ip >= -1e-12), f"descent check failed: <g, g~> = {ip}"
                assert np.all(np.abs(ip - tsq) <= 1e-8 * gsq + 1e-300), (
                    f"projection identity violated: {ip} vs {tsq}"
                )
            proj_sq += tsq
            grads[l] = g_tilde
        nonzero = raw_sq != 0.0
        mu[nonzero] = np.sqrt(proj_sq[nonzero]) / np.sqrt(raw_sq[nonzero])
        if debug:
            assert np.all(mu <= 1.0 + 1e-10), f"mu = {mu.max()} exceeds 1"
    else:
        ewc_grad(model, grads, fisher_states, lam)
    for g in grads:
        g *= -eta
    return loss, mu, grads


def _check_leak(q: np.ndarray, m: np.ndarray, layer: int) -> None:
    qn = np.sqrt(np.sum(q * q, axis=(-2, -1)))
    leak = np.sqrt(np.sum((m.T @ q) ** 2, axis=(-2, -1)))
    bad = np.flatnonzero(leak > 1e-8 * qn + 1e-300)
    assert not bad.size, (
        f"update of agent {bad[0]} layer {layer} leaks outside the "
        f"transmittable span: {leak[bad[0]]} vs norm {qn[bad[0]]}"
    )


def gossip_round(
    agents: Agents,
    mixing: MixingMatrix,
    task: int,
    steps: list[np.ndarray],
    entry: TaskComm,
    *,
    compression: bool,
    debug: bool = False,
) -> list[int]:
    """One synchronous gossip exchange; returns scalars sent per agent.

    ``steps`` are the local steps ``d`` from ``local_step``, one per array
    of ``task_params(model, task)``, the arrays a round exchanges: the
    trunk layers (the codec's domain), then the uncompressed layer biases,
    head and head bias.  Per array, every agent's update is
    ``q = (a - x) + d`` from its tracked aggregate ``a``, it moves to
    ``x + q``, and each sender's update is encoded once and decoded once
    with ``agents.memory``, the basis every agent holds.  An agent's own
    update enters its aggregate without a codec round trip, matching what a
    real node knows about itself; neighbors' decoded updates enter through
    one product with the off-diagonal mixing weights.
    """
    w = mixing.w
    own = np.diag(w).copy()
    w_off = w - np.diag(own)
    fanout = np.count_nonzero(w_off > 0.0, axis=0)  # receivers per sender
    messages = int(fanout.sum())
    arrays = task_params(agents.model, task)
    n_layers = len(agents.model.layers)
    basis = agents.memory
    per_message = 0
    for l, (x, d, agg) in enumerate(zip(arrays, steps, agents.aggregates)):
        q = agg - x  # gossip term first: it cancels exactly at a consensus fixed point
        q += d
        x += q
        coeffs = None
        if l < n_layers:
            if debug:
                _check_leak(q, basis.layers[l].m, l)
            if compression:
                coeffs = encode(q, basis.layers[l].o)
            sent = q[0].size if coeffs is None else coeffs[0].size
            entry.layer_actual[l] += sent * messages
            entry.layer_full[l] += q[0].size * messages
        else:
            sent = q[0].size
            entry.extra_scalars += sent * messages
        per_message += sent
        # In place, one array at a time: a raw update is mixed before q is
        # scaled by the own weight, coefficients are decoded into q after.
        if coeffs is None:
            mixed = _mix(w_off, q)
        q *= own.reshape(-1, *[1] * (q.ndim - 1))
        agg += q  # the own update enters without a codec round trip
        if coeffs is not None:
            decode(coeffs, basis.layers[l].o, out=q)
            coeffs = None
            mixed = _mix(w_off, q)
        agg += mixed
        del q, mixed  # freed before the next array's update is formed
    entry.messages += messages
    if debug:
        _check_tracking(agents, mixing, task)
    return [per_message * int(k) for k in fanout]


def gpm_broadcast(
    agents: Agents,
    shards: list[TaskShard],
    task: int,
    eps_th: float,
    cfg: TrainConfig,
    pick_stream: np.random.Generator,
    entry: TaskComm,
    *,
    compression: bool,
) -> None:
    """End-of-task memory update at one randomly chosen agent, sent to all.

    The chosen agent captures layer inputs on a sample of its own shard and
    grows the memory, which replaces ``agents.memory`` for everyone.  The ledger
    charges the basis broadcast to the relaying edges: both spans when the
    codec is in use (receivers need the complement to decode), only the
    memory span otherwise.
    """
    n = len(shards)
    p = int(pick_stream.integers(0, n))
    shard = shards[p]
    n_s = cfg.rep_samples
    if len(shard) < n_s:
        log.warning(
            "agent %d shard has %d samples; clamping representation batch from %d",
            p,
            len(shard),
            n_s,
        )
        n_s = len(shard)
    idx = derive_rng(cfg.seed, TAG_REP, task).permutation(len(shard))[:n_s]
    reps = capture_representation(agents.model.view(p), shard.examples[idx], task)
    agents.memory = update_memory(agents.memory, reps, eps_th)
    memory_cost = sum(b.dim * b.rank for b in agents.memory.layers)
    both_cost = sum(b.dim * b.dim for b in agents.memory.layers)
    entry.overhead_actual += (n - 1) * (both_cost if compression else memory_cost)
    entry.overhead_full += (n - 1) * memory_cost


def check_run(config: TrainConfig, sequence: TaskSequence) -> None:
    """Raise ``ValueError`` for what ``run`` would reject before training."""
    if config.method not in METHODS:
        raise ValueError(f"unknown method {config.method!r}")
    if config.eta <= 0:
        raise ValueError("eta must be positive")
    if config.epochs < 1 or config.batch_size < 1:
        raise ValueError("epochs and batch_size must be at least 1")
    if config.seed < 0:
        raise ValueError("seed must be non-negative")
    if config.rep_samples < 1:
        raise ValueError(f"rep_samples must be at least 1, got {config.rep_samples}")
    if not config.lam >= 0.0:
        raise ValueError(f"lam must be non-negative, got {config.lam}")
    if len(config.dims) < 1 or config.dims[0] != sequence.input_dim:
        raise ValueError(
            f"model input width {config.dims[:1]} does not match data "
            f"dimension {sequence.input_dim}"
        )
    if config.ewc_mode not in EWC_MODES:
        raise ValueError(f"unknown ewc mode {config.ewc_mode!r}")
    n = config.topology.n
    for t, data in enumerate(sequence.tasks):
        rows = data.train_x.shape[0]
        if rows < n:
            raise ValueError(
                f"task {t} has {rows} training samples, fewer than {n} agents"
            )
        if data.test_x.shape[0] == 0:
            raise ValueError(f"task {t} has an empty test split")
        if config.method in ("codec", "codec_fullcomm"):
            config.threshold.value(t)  # raises if the schedule leaves (0, 1)


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
        streams, offset = [], 0
        for i, shard in enumerate(shards):
            perm = derive_rng(self.cfg.seed, TAG_BATCH, i, task, epoch).permutation(
                len(shard)
            )
            streams.append(offset + np.resize(perm, rounds * size))
            offset += len(shard)
        return np.stack(streams).reshape(len(shards), rounds, size).swapaxes(0, 1)

    def _boundary_sync(self, model: Mlp, entry: TaskComm) -> None:
        for a in param_arrays(model):
            a[...] = a.mean(axis=0)
        cost = model.lead[0] * sum(a[0].size for a in param_arrays(model))
        entry.overhead_actual += cost
        entry.overhead_full += cost

    def _fisher_phase(
        self,
        model: Mlp,
        shards: list[TaskShard],
        task: int,
        entry: TaskComm,
    ) -> None:
        # after the boundary sync every agent holds the same parameters, so
        # the average's anchor (agent 0's) is everyone's
        states = [fisher_estimate(model.view(i), s, task) for i, s in enumerate(shards)]
        avg = fisher_average(states)
        if self.cfg.ewc_mode == "online":
            running = self.fisher[0] if self.fisher else None
            self.fisher = [accumulate_fisher(running, avg)]
        else:
            self.fisher.append(avg)
        count = sum(a.size for a in avg.f)
        cost = 2 * (len(shards) - 1) * count
        entry.overhead_actual += cost
        entry.overhead_full += cost

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
        mixing = build_mixing(cfg.topology)
        t_count = len(self.seq.tasks)
        matrix = AccuracyMatrix(t_count)
        ledger = CommLedger()
        logs: list[LogRecord] = []
        pick_stream = derive_rng(cfg.seed, TAG_PICK)
        base = init_mlp(cfg.dims, derive_rng(cfg.seed, TAG_INIT, 0), cfg.use_bias)
        agents = Agents(model=base.stacked(n), memory=GpmState.fresh(cfg.dims[:-1]))
        n_layers = len(cfg.dims) - 1
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
            entry = TaskComm(
                task=t, layer_full=[0] * n_layers, layer_actual=[0] * n_layers
            )
            ledger.tasks.append(entry)
            round_idx = 0
            for epoch in range(cfg.epochs):
                batches = self._batches(shards, t, epoch, rounds_per_epoch)
                for idx in batches:
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
                    sent = gossip_round(
                        agents,
                        mixing,
                        t,
                        steps,
                        entry,
                        compression=self.compression,
                        debug=cfg.debug_checks,
                    )
                    del steps  # freed before the next round's are made
                    entry.rounds += 1
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
            self._boundary_sync(model, entry)
            if self.projection:
                gpm_broadcast(
                    agents,
                    shards,
                    t,
                    cfg.threshold.value(t),
                    cfg,
                    pick_stream,
                    entry,
                    compression=self.compression,
                )
            if self.method == "dewc":
                self._fisher_phase(model, shards, t, entry)
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
