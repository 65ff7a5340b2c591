"""Bulk-synchronous decentralized training over a task sequence.

Every round, each agent takes one (optionally projected) SGD step on its own
shard, then a gossip exchange mixes parameters using each agent's running
aggregate of neighbor states.  Updates are communicated as subspace
coefficients when compression is on and decoded exactly at the receiver, so
the compressed run follows the uncompressed trajectory.

Agents are stepped in id order; all randomness is derived from the run seed
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
from concurrent.futures import ThreadPoolExecutor
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
    sgd_step,
    unflatten_params,
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


class ProtocolError(RuntimeError):
    """A gossip message did not match the receiver's expectations."""


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
    eta: float
    epochs: int
    batch_size: int
    threshold: ThresholdSchedule
    topology: Topology
    agents: int
    seed: int
    compression: bool = True
    dims: list[int] = field(default_factory=lambda: [16, 32, 16])
    use_bias: bool = False
    rep_samples: int = 64
    lr_decay: bool = False
    threads: int = 1
    debug_checks: bool = False


@dataclass
class AgentState:
    id: int
    model: Mlp
    gpm: GpmState
    trunk_aggregate: np.ndarray  # tracks sum_j w_ij * (neighbor trunk weights)
    extra_aggregate: np.ndarray  # same for the uncompressed slice
    rng: np.random.Generator | None = None
    shard: TaskShard | None = None
    batches: list[np.ndarray] = field(default_factory=list)


@dataclass
class StepResult:
    loss: float
    mu: float
    snap_trunk: np.ndarray
    snap_extra: np.ndarray


@dataclass
class RoundMessage:
    sender: int
    task: int
    compressed: bool
    payload: list[np.ndarray]  # per-layer coefficients, or raw deltas
    extra: np.ndarray  # uncompressed slice delta (biases and current head)


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


def get_trunk_flat(model: Mlp) -> np.ndarray:
    if not model.layers:
        return np.zeros(0)
    return np.concatenate([w.reshape(-1) for w in model.layers])


def set_trunk_flat(model: Mlp, flat: np.ndarray) -> None:
    offset = 0
    for w in model.layers:
        w[...] = flat[offset : offset + w.size].reshape(w.shape)
        offset += w.size
    if offset != flat.size:
        raise ValueError(f"trunk slice length {flat.size}, expected {offset}")


def _extra_arrays(model: Mlp, task: int) -> list[np.ndarray]:
    arrays: list[np.ndarray] = []
    if model.layer_biases is not None:
        arrays.extend(model.layer_biases)
    arrays.append(model.heads[task])
    if model.use_bias:
        arrays.append(model.head_biases[task])
    return arrays


def get_extra_flat(model: Mlp, task: int) -> np.ndarray:
    return np.concatenate([a.reshape(-1) for a in _extra_arrays(model, task)])


def set_extra_flat(model: Mlp, task: int, flat: np.ndarray) -> None:
    offset = 0
    for a in _extra_arrays(model, task):
        a[...] = flat[offset : offset + a.size].reshape(a.shape)
        offset += a.size
    if offset != flat.size:
        raise ValueError(f"extra slice length {flat.size}, expected {offset}")


def _layer_views(flat: np.ndarray, shapes: list[tuple[int, int]]):
    offset = 0
    for rows, cols in shapes:
        yield flat[offset : offset + rows * cols].reshape(rows, cols)
        offset += rows * cols


def consensus_error(agents: list[AgentState]) -> float:
    """Mean squared distance of agent parameters from their average."""
    flats = [flatten_params(a.model) for a in agents]
    mean = np.mean(flats, axis=0)
    return float(np.mean([np.sum((f - mean) ** 2) for f in flats]))


def reset_aggregates(agents: list[AgentState], mixing: MixingMatrix, task: int) -> None:
    """Recompute every tracked aggregate from the true neighbor states."""
    trunks = [get_trunk_flat(a.model) for a in agents]
    extras = [get_extra_flat(a.model, task) for a in agents]
    w = mixing.w
    for a in agents:
        trunk = np.zeros_like(trunks[a.id])
        extra = np.zeros_like(extras[a.id])
        for j in range(len(agents)):
            if w[a.id, j] > 0.0:
                trunk += w[a.id, j] * trunks[j]
                extra += w[a.id, j] * extras[j]
        a.trunk_aggregate = trunk
        a.extra_aggregate = extra


def local_step(
    agent: AgentState,
    bx: np.ndarray,
    by: np.ndarray,
    task: int,
    eta: float,
    *,
    projection: bool,
    fisher_states: tuple[FisherState, ...] = (),
    lam: float = 0.0,
    debug: bool = False,
) -> StepResult:
    """One SGD step at an agent; returns the pre-step parameter snapshots.

    With projection on, each trunk gradient has its memory-span component
    removed before the step; heads are stepped on the raw gradient.
    """
    snap_trunk = get_trunk_flat(agent.model)
    snap_extra = get_extra_flat(agent.model, task)
    loss, grads = loss_and_grad(agent.model, bx, by, task)
    mu = 1.0
    if projection:
        raw_sq = sum(float(np.sum(g * g)) for g in grads.layers)
        proj_sq = 0.0
        for l, g in enumerate(grads.layers):
            m = agent.gpm.layers[l].m
            g_tilde = project(g, m)
            if debug:
                ip = descent_check(g, g_tilde)
                tsq = float(np.sum(g_tilde * g_tilde))
                gsq = float(np.sum(g * g))
                assert ip >= -1e-12, f"descent check failed: <g, g~> = {ip}"
                assert abs(ip - tsq) <= 1e-8 * gsq + 1e-300, (
                    f"projection identity violated: {ip} vs {tsq}"
                )
            proj_sq += float(np.sum(g_tilde * g_tilde))
            grads.layers[l] = g_tilde
        mu = 1.0 if raw_sq == 0.0 else math.sqrt(proj_sq) / math.sqrt(raw_sq)
        if debug:
            assert mu <= 1.0 + 1e-10, f"mu = {mu} exceeds 1"
    elif fisher_states and lam != 0.0:
        for fs in fisher_states:
            grads = ewc_grad(agent.model, grads, fs, lam)
    sgd_step(agent.model, grads, eta)
    return StepResult(loss=loss, mu=mu, snap_trunk=snap_trunk, snap_extra=snap_extra)


def _decode_trunk(
    msg: RoundMessage, receiver: AgentState, shapes: list[tuple[int, int]]
) -> np.ndarray:
    parts = []
    if len(msg.payload) != len(shapes):
        raise ProtocolError(
            f"message from agent {msg.sender} carries {len(msg.payload)} layers, "
            f"expected {len(shapes)}"
        )
    for l, part in enumerate(msg.payload):
        n_l, n_out = shapes[l]
        if msg.compressed:
            o = receiver.gpm.layers[l].o
            expected = (o.shape[1], n_out)
            if part.shape != expected:
                raise ProtocolError(
                    f"message from agent {msg.sender}, layer {l}: "
                    f"expected coefficients {expected}, got {part.shape}"
                )
            parts.append(decode(part, o).reshape(-1))
        else:
            if part.shape != (n_l, n_out):
                raise ProtocolError(
                    f"message from agent {msg.sender}, layer {l}: "
                    f"expected delta {(n_l, n_out)}, got {part.shape}"
                )
            parts.append(part.reshape(-1))
    if not parts:
        return np.zeros(0)
    return np.concatenate(parts)


def gossip_round(
    agents: list[AgentState],
    mixing: MixingMatrix,
    task: int,
    steps: dict[int, StepResult] | None,
    entry: TaskComm,
    receivers: list[list[int]] | None = None,
    *,
    compression: bool,
    debug: bool = False,
) -> dict[int, int]:
    """One synchronous gossip exchange; returns scalars sent per agent.

    Every agent first forms its mixed parameters from its tracked aggregate,
    computes the round update q, and encodes it; messages are then delivered
    and each receiver folds the decoded update into its own aggregate.  An
    agent's own contribution enters its aggregate without a codec round
    trip, matching what a real node knows about itself.
    """
    w = mixing.w
    n = len(agents)
    if receivers is None:
        receivers = [
            [j for j in range(n) if j != i and w[j, i] > 0.0] for i in range(n)
        ]
    shapes = [wt.shape for wt in agents[0].model.layers]
    messages: list[RoundMessage] = []
    for a in agents:
        if steps is None:
            snap_trunk = get_trunk_flat(a.model)
            snap_extra = get_extra_flat(a.model, task)
        else:
            snap_trunk = steps[a.id].snap_trunk
            snap_extra = steps[a.id].snap_extra
        half_trunk = get_trunk_flat(a.model)
        half_extra = get_extra_flat(a.model, task)
        # gossip term first: it cancels exactly at a consensus fixed point
        new_trunk = half_trunk + (a.trunk_aggregate - snap_trunk)
        new_extra = half_extra + (a.extra_aggregate - snap_extra)
        q_trunk = new_trunk - snap_trunk
        q_extra = new_extra - snap_extra
        set_trunk_flat(a.model, new_trunk)
        set_extra_flat(a.model, task, new_extra)
        payload = []
        for l, q_l in enumerate(_layer_views(q_trunk, shapes)):
            if debug:
                m = a.gpm.layers[l].m
                qn = float(np.sqrt(np.sum(q_l * q_l)))
                leak = float(np.sqrt(np.sum((m.T @ q_l) ** 2)))
                assert leak <= 1e-8 * qn + 1e-300, (
                    f"update of agent {a.id} layer {l} leaks outside the "
                    f"transmittable span: {leak} vs norm {qn}"
                )
            if compression:
                payload.append(encode(q_l, a.gpm.layers[l].o))
            else:
                payload.append(q_l.copy())
        messages.append(
            RoundMessage(
                sender=a.id,
                task=task,
                compressed=compression,
                payload=payload,
                extra=q_extra.copy(),
            )
        )
        a.trunk_aggregate = a.trunk_aggregate + w[a.id, a.id] * q_trunk
        a.extra_aggregate = a.extra_aggregate + w[a.id, a.id] * q_extra
    scalars = {a.id: 0 for a in agents}
    for msg in messages:
        dests = receivers[msg.sender]
        payload_size = sum(p.size for p in msg.payload)
        scalars[msg.sender] = (payload_size + msg.extra.size) * len(dests)
        for j in dests:
            recv = agents[j]
            q_hat = _decode_trunk(msg, recv, shapes)
            if msg.extra.size != recv.extra_aggregate.size:
                raise ProtocolError(
                    f"message from agent {msg.sender}: uncompressed slice has "
                    f"{msg.extra.size} scalars, expected {recv.extra_aggregate.size}"
                )
            recv.trunk_aggregate += w[j, msg.sender] * q_hat
            recv.extra_aggregate += w[j, msg.sender] * msg.extra
            entry.messages += 1
        for l, part in enumerate(msg.payload):
            entry.layer_actual[l] += part.size * len(dests)
            entry.layer_full[l] += shapes[l][0] * shapes[l][1] * len(dests)
        entry.extra_scalars += msg.extra.size * len(dests)
    if debug:
        _check_tracking(agents, mixing, task)
    return scalars


def _check_tracking(agents: list[AgentState], mixing: MixingMatrix, task: int) -> None:
    trunks = [get_trunk_flat(a.model) for a in agents]
    extras = [get_extra_flat(a.model, task) for a in agents]
    w = mixing.w
    for a in agents:
        trunk = np.zeros_like(trunks[a.id])
        extra = np.zeros_like(extras[a.id])
        for j in range(len(agents)):
            if w[a.id, j] > 0.0:
                trunk += w[a.id, j] * trunks[j]
                extra += w[a.id, j] * extras[j]
        drift = 0.0
        if trunk.size:
            drift = max(drift, float(np.max(np.abs(trunk - a.trunk_aggregate))))
        if extra.size:
            drift = max(drift, float(np.max(np.abs(extra - a.extra_aggregate))))
        assert drift <= 1e-9, f"agent {a.id} aggregate drifted by {drift}"


def gpm_broadcast(
    agents: list[AgentState],
    state: GpmState,
    task: int,
    eps_th: float,
    cfg: TrainConfig,
    pick_stream: np.random.Generator,
    entry: TaskComm,
    *,
    compression: bool,
) -> GpmState:
    """End-of-task memory update at one randomly chosen agent, sent to all.

    The chosen agent captures layer inputs on a sample of its own shard,
    grows the memory, and every agent replaces its basis copy.  The ledger
    charges the basis broadcast to the relaying edges: both spans when the
    codec is in use (receivers need the complement to decode), only the
    memory span otherwise.
    """
    n = len(agents)
    p = int(pick_stream.integers(0, n))
    shard = agents[p].shard
    assert shard is not None
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
    reps = capture_representation(agents[p].model, shard.examples[idx], task)
    new_state = update_memory(state, reps, eps_th)
    for a in agents:
        a.gpm = new_state.copy()
    memory_cost = sum(b.dim * b.rank for b in new_state.layers)
    both_cost = sum(b.dim * b.dim for b in new_state.layers)
    entry.overhead_actual += (n - 1) * (both_cost if compression else memory_cost)
    entry.overhead_full += (n - 1) * memory_cost
    return new_state


class _Engine:
    def __init__(
        self,
        config: TrainConfig,
        sequence: TaskSequence,
        method: str,
        lam: float = 5000.0,
        ewc_mode: str = "online",
    ):
        if method not in ("codec", "codec_fullcomm", "dewc", "stl", "naive"):
            raise ValueError(f"unknown method {method!r}")
        if config.eta <= 0:
            raise ValueError("eta must be positive")
        if config.epochs < 1 or config.batch_size < 1:
            raise ValueError("epochs and batch_size must be at least 1")
        if config.agents < 1 or config.agents != config.topology.n:
            raise ValueError(
                f"agent count {config.agents} does not match topology size "
                f"{config.topology.n}"
            )
        if config.seed < 0:
            raise ValueError("seed must be non-negative")
        if config.threads < 1:
            raise ValueError("threads must be at least 1")
        if len(config.dims) < 1 or config.dims[0] != sequence.input_dim:
            raise ValueError(
                f"model input width {config.dims[:1]} does not match data "
                f"dimension {sequence.input_dim}"
            )
        if ewc_mode not in ("online", "per_task"):
            raise ValueError(f"unknown ewc mode {ewc_mode!r}")
        self.cfg = config
        self.seq = sequence
        self.method = method
        self.lam = lam
        self.ewc_mode = ewc_mode
        self.projection = method in ("codec", "codec_fullcomm")
        self.compression = bool(config.compression) and method == "codec"
        if self.projection:
            for t in range(len(sequence.tasks)):
                config.threshold.value(t)  # raises if the schedule leaves (0, 1)
        self.fisher_online: FisherState | None = None
        self.fisher_per_task: list[FisherState] = []

    def _fisher_states(self) -> tuple[FisherState, ...]:
        if self.method != "dewc":
            return ()
        if self.ewc_mode == "online":
            return (self.fisher_online,) if self.fisher_online is not None else ()
        return tuple(self.fisher_per_task)

    def _eta(self, round_idx: int, total_rounds: int) -> float:
        if not self.cfg.lr_decay:
            return self.cfg.eta
        if 4 * round_idx >= 3 * total_rounds:
            return self.cfg.eta * 0.01
        if 2 * round_idx >= total_rounds:
            return self.cfg.eta * 0.1
        return self.cfg.eta

    def _local_phase(
        self, agents: list[AgentState], task: int, r: int, eta: float
    ) -> dict[int, StepResult]:
        fishers = self._fisher_states()

        def step(a: AgentState) -> StepResult:
            idx = a.batches[r]
            assert a.shard is not None
            return local_step(
                a,
                a.shard.examples[idx],
                a.shard.labels[idx],
                task,
                eta,
                projection=self.projection,
                fisher_states=fishers,
                lam=self.lam if self.method == "dewc" else 0.0,
                debug=self.cfg.debug_checks,
            )

        if self.cfg.threads > 1:
            with ThreadPoolExecutor(max_workers=self.cfg.threads) as pool:
                results = list(pool.map(step, agents))
        else:
            results = [step(a) for a in agents]
        return {a.id: res for a, res in zip(agents, results)}

    def _boundary_sync(self, agents: list[AgentState], entry: TaskComm) -> None:
        flats = [flatten_params(a.model) for a in agents]
        avg = np.mean(flats, axis=0)
        for a in agents:
            unflatten_params(a.model, avg)
        cost = len(agents) * avg.size
        entry.overhead_actual += cost
        entry.overhead_full += cost

    def _fisher_phase(
        self,
        agents: list[AgentState],
        task: int,
        pick_stream: np.random.Generator,
        entry: TaskComm,
    ) -> None:
        p = int(pick_stream.integers(0, len(agents)))
        states = [fisher_estimate(a.model, a.shard, task) for a in agents]
        avg = fisher_average(states, anchor_index=p)
        if self.ewc_mode == "online":
            self.fisher_online = accumulate_fisher(self.fisher_online, avg)
        else:
            self.fisher_per_task.append(avg)
        count = sum(a.size for a in avg.f)
        cost = 2 * (len(agents) - 1) * count
        entry.overhead_actual += cost
        entry.overhead_full += cost

    def _evaluate(self, model: Mlp, upto: int, matrix: AccuracyMatrix) -> None:
        task_ids = [upto] if self.method == "stl" else list(range(upto + 1))
        for i in task_ids:
            data = self.seq.tasks[i]
            if data.test_x.shape[0] == 0:
                raise ValueError(f"task {i} has an empty test split")
            trace = forward(model, data.test_x, i)
            pred = np.argmax(trace.logits, axis=1)
            matrix.set(upto, i, float(np.mean(pred == data.test_y)))

    def run(self) -> RunResult:
        cfg = self.cfg
        n = cfg.agents
        mixing = build_mixing(cfg.topology)
        t_count = len(self.seq.tasks)
        matrix = AccuracyMatrix(t_count)
        ledger = CommLedger()
        logs: list[LogRecord] = []
        pick_stream = derive_rng(cfg.seed, TAG_PICK)
        base = init_mlp(cfg.dims, derive_rng(cfg.seed, TAG_INIT, 0), cfg.use_bias)
        gpm_state = GpmState.fresh(cfg.dims[:-1])
        agents = [
            AgentState(
                id=i,
                model=base.clone(),
                gpm=gpm_state.copy(),
                trunk_aggregate=np.zeros(0),
                extra_aggregate=np.zeros(0),
            )
            for i in range(n)
        ]
        receivers = [
            [j for j in range(n) if j != i and mixing.w[j, i] > 0.0]
            for i in range(n)
        ]
        n_layers = len(cfg.dims) - 1
        for t, data in enumerate(self.seq.tasks):
            if self.method == "stl" and t > 0:
                fresh = init_mlp(cfg.dims, derive_rng(cfg.seed, TAG_INIT, t), cfg.use_bias)
                for a in agents:
                    a.model = fresh.clone()
            classes = len(data.classes)
            for a in agents:
                a.model.add_head(t, classes, derive_rng(cfg.seed, TAG_HEAD, t))
            shards = shard_iid(data, n, _derive_int(cfg.seed, TAG_SHARD, t))
            for a in agents:
                a.shard = shards[a.id]
                # task starts from consensus, so the own state is the aggregate
                a.trunk_aggregate = get_trunk_flat(a.model)
                a.extra_aggregate = get_extra_flat(a.model, t)
            max_shard = max(len(s) for s in shards)
            rounds_per_epoch = math.ceil(max_shard / cfg.batch_size)
            total_rounds = cfg.epochs * rounds_per_epoch
            entry = TaskComm(
                task=t, layer_full=[0] * n_layers, layer_actual=[0] * n_layers
            )
            ledger.tasks.append(entry)
            round_idx = 0
            for epoch in range(cfg.epochs):
                for a in agents:
                    a.rng = derive_rng(cfg.seed, TAG_BATCH, a.id, t, epoch)
                    perm = a.rng.permutation(len(a.shard))
                    stream = np.resize(perm, rounds_per_epoch * cfg.batch_size)
                    a.batches = [
                        stream[r * cfg.batch_size : (r + 1) * cfg.batch_size]
                        for r in range(rounds_per_epoch)
                    ]
                for r in range(rounds_per_epoch):
                    eta_r = self._eta(round_idx, total_rounds)
                    steps = self._local_phase(agents, t, r, eta_r)
                    sent = gossip_round(
                        agents,
                        mixing,
                        t,
                        steps,
                        entry,
                        receivers,
                        compression=self.compression,
                        debug=cfg.debug_checks,
                    )
                    entry.rounds += 1
                    ce = consensus_error(agents)
                    for a in agents:
                        logs.append(
                            LogRecord(
                                task=t,
                                round=round_idx,
                                agent=a.id,
                                loss=steps[a.id].loss,
                                ce=ce,
                                mu=steps[a.id].mu,
                                scalars_sent=sent[a.id],
                            )
                        )
                    round_idx += 1
            self._boundary_sync(agents, entry)
            if self.projection:
                gpm_state = gpm_broadcast(
                    agents,
                    gpm_state,
                    t,
                    cfg.threshold.value(t),
                    cfg,
                    pick_stream,
                    entry,
                    compression=self.compression,
                )
            if self.method == "dewc":
                self._fisher_phase(agents, t, pick_stream, entry)
            self._evaluate(agents[0].model, t, matrix)
        return RunResult(
            method=self.method,
            accuracy=matrix,
            ledger=ledger,
            logs=logs,
            final_params=flatten_params(agents[0].model),
            gpm=gpm_state if self.projection else None,
        )


def run_sequence(config: TrainConfig, sequence: TaskSequence) -> RunResult:
    """Projected training with the subspace codec (or raw gossip if off)."""
    method = "codec" if config.compression else "codec_fullcomm"
    return _Engine(config, sequence, method).run()


def run_dewc(
    config: TrainConfig,
    sequence: TaskSequence,
    lam: float = 5000.0,
    mode: str = "online",
) -> RunResult:
    """Quadratic-penalty baseline; raw gossip, no projection, no codec."""
    return _Engine(config, sequence, "dewc", lam=lam, ewc_mode=mode).run()


def run_stl(config: TrainConfig, sequence: TaskSequence) -> RunResult:
    """Fresh decentralized model per task; fills only the diagonal."""
    return _Engine(config, sequence, "stl").run()


def run_naive(config: TrainConfig, sequence: TaskSequence) -> RunResult:
    """Sequential decentralized SGD with no forgetting mitigation."""
    return _Engine(config, sequence, "naive").run()
