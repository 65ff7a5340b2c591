"""CoDeC's outer loop: per task, the local steps and gossip rounds, then
the boundary (the average, the fold, and the memory growth whose basis the
codec sends over, or ``dewc``'s Fisher phase) and the evaluation; with the
run's config and its checks, and the BLAS thread pin."""

from __future__ import annotations

import contextlib
import ctypes
import logging
import math
from dataclasses import dataclass

import numpy as np

from .ewc import FisherState, accumulate_fisher, fisher_mean, implicit_rows
from .gpm import GpmState, update_memory
from .gossip import NonFiniteError, gossip_round
from .metrics import TaskComm, fanout, price_task
from .model import InvariantError, Mlp, capture_representation, flatten_params, forward
from .model import init_mlp, local_step, param_arrays, task_params
from .tasks import TAG_HEAD, TAG_INIT, TAG_PICK, TAG_REP, derive_rng
from .tasks import LabeledDataset, TaskShard, seed_entropy, task_batches
from .topology import Topology, build_mixing

log = logging.getLogger(__name__)

METHODS = ("codec", "dewc", "stl", "naive")


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
        seed_entropy(self.seed)  # raises for a negative seed
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
    """Every agent's state between tasks, stacked along a leading agent
    axis: the model, and the shared ``codec`` memory or ``dewc`` running
    penalty state."""

    model: Mlp  # each array has shape (N, ...)
    memory: GpmState  # the read-only basis codec's agents project with, else empty
    fisher: FisherState | None = None  # the dewc penalty


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
    batches: np.ndarray,
    history: list,
) -> list[int]:
    """Task ``t``'s start and rounds, its ``batches`` gathered from the pool
    of its shards (``task_batches``), each round's loss, mu and consensus
    error appended to ``history``; returns the scalars a message carries per
    array of ``task_params``."""
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
    aggregates = [x.copy() for x in task_params(model, t)]
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
            ce = gossip_round(
                model, aggregates, w, t, loss, mu, grads, eta, penalty=penalty, **kw
            )
        except (NonFiniteError, InvariantError) as exc:
            exc.args = (f"task {t}, round {r}: {exc}",)
            raise
        history.append((loss, mu, ce))
    return sizes


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


def _openblas(*names: str) -> list | None:
    """The OpenBLAS functions ``names`` (``get_num_threads``, ...) numpy
    loaded, found through ``ctypes`` among the libraries mapped into the
    process, or ``None``: for MKL, Accelerate or any BLAS without these
    symbols, and where ``/proc/self/maps`` cannot be read."""
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
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                found = [getattr(handle, f"{prefix}_{n}{suffix}", None) for n in names]
                if None not in found:
                    return found
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """OpenBLAS at one thread inside the block, the caller's count after:
    a BLAS product's rounding follows how many threads split it, so the
    report bytes would follow the core count.  Other BLAS builds are left
    as they are."""
    found = _openblas("get_num_threads", "set_num_threads")
    if found:
        found[0].restype, found[1].argtypes = ctypes.c_int, [ctypes.c_int]
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
            pool, shards, batches = task_batches(
                data, n, config.seed, t, config.epochs, config.batch_size
            )
            sizes = _train_task(agents, w, config, t, data, pool, batches, history)
            rounds, batches = len(batches), None  # the boundary runs without them
            _boundary(agents, config, t, pool, shards, pick_stream)
            ledger.append(
                price_task(agents.model, agents.memory, t, method, sizes, rounds, fanout(w))
            )
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
