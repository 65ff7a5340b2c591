"""A plain per-agent reference engine for whole runs of ``run``.

The reference holds one ``Mlp`` per agent and sends every message on its
own, as separate nodes would.  It reads as the algorithm: a projected
(GPM, Saha, Garg & Roy 2021) local step ``d = -eta g~``, or for ``dewc``
the implicit step of the EWC penalty (Kirkpatrick et al. 2017), which
minimises the linearised loss plus the penalty at ``x + d``, the CHOCO-SGD
update ``q = (x_hat - x) + d`` (Koloskova, Stich & Jaggi
2019), for ``codec`` encoded as the subspace coefficients ``o^T q`` and
decoded as ``o c`` by each receiver into its tracked aggregate ``x_hat``,
an average at every task boundary, the memory grown at one picked agent,
and for ``dewc`` the averaged diagonal Fisher (Kirkpatrick et al. 2017).
It draws from the same named seed streams as the engine, so both runs
must agree up to rounding.  Its round, ``reference_round``, is the one the
round tests hold ``gossip_round`` to, and ``consensus_error`` the two-pass
reference for the consensus error that ``gossip_round`` sums block by block.
``save_csv_dataset`` writes a dataset as the CSV ``load_csv_dataset`` reads.
``output_delta`` and ``write_rounds`` are the plain forms of the loss head
and of the ``rounds.csv`` writer: a boolean one-hot mask and ``np.mean``, and
one f-string and one write per row.  ``held_agents`` makes the stacked
agents the local-step and round tests start from.
"""

import copy
import math
from types import SimpleNamespace

import numpy as np

from dccl.ewc import fisher_estimate
from dccl.gpm import GpmState, LayerBasis, update_memory
from dccl.model import (
    _over_classes,
    capture_representation,
    flatten_params,
    forward,
    init_mlp,
    loss_and_grad,
    task_params,
    unflatten_params,
)
from dccl.tasks import (
    TAG_BATCH,
    TAG_HEAD,
    TAG_INIT,
    TAG_PICK,
    TAG_REP,
    TAG_SHARD,
    _derive_int,
    derive_rng,
    shard_iid,
)
from dccl.topology import build_mixing
from dccl.trainer import TrainConfig


def consensus_error(model, task=0):
    """Mean squared distance of a stack's agents from their average over
    the arrays ``task`` trains, in two whole-array passes per array."""
    total = 0.0
    for a in task_params(model, task):
        dev = a - a.mean(axis=0)
        dev *= dev
        total += float(dev.sum())
    return total / model.lead[0]


def held_agents(rng, dims, n, ranks, task, classes=3):
    """Agents at one start whose layer l has a memory of rank ``ranks[l]``,
    held as ``x0 + o c`` where the rank is positive, each agent's ``c``,
    plain layers and head then moved apart: the stacked ``model``, its
    ``memory`` and its ``aggregates``, each agent's own state."""
    model = init_mlp(dims, rng).stacked(n)
    model.add_head(task, classes, rng)
    layers = []
    for l, (width, rank) in enumerate(zip(dims[:-1], ranks)):
        q, _ = np.linalg.qr(rng.standard_normal((width, width)))
        layers.append(LayerBasis(m=q[:, :rank], o=q[:, rank:]))
        if rank:
            model.factor(l, layers[-1].o)
    for x in task_params(model, task):
        x += 0.1 * rng.standard_normal(x.shape)
    aggregates = [x.copy() for x in task_params(model, task)]
    memory = GpmState(layers=layers)
    return SimpleNamespace(model=model, memory=memory, aggregates=aggregates)


def reference_round(params, x_hat, steps, w, memory=None):
    """One gossip round, message by message, as separate nodes would run it;
    returns the scalars each agent sent.

    ``params``, ``x_hat`` and ``steps`` hold each agent's arrays, its tracked
    aggregates and its steps ``d``; the arrays and aggregates move in place.
    Each agent forms ``q = (x_hat - x) + d`` and moves to ``x + q``.  With a
    ``memory``, it sends its first ``len(memory.layers)`` arrays as the
    coefficients ``o^T q``, which each receiver decodes as ``o c``; it sends
    every other array raw.  Receiver ``j`` adds ``w[j, i]`` times what it
    decoded into its ``x_hat``, and the sender adds ``w[i, i] q`` into its own.
    """
    n = len(params)
    coded = len(memory.layers) if memory is not None else 0
    updates = []
    for x, h, d in zip(params, x_hat, steps):
        q = [(hk - p) + dk for p, hk, dk in zip(x, h, d)]
        for p, qk in zip(x, q):
            p += qk
        updates.append(q)
    sent = []
    for i, q in enumerate(updates):
        msg = [memory.layers[l].o.T @ qk if l < coded else qk for l, qk in enumerate(q)]
        receivers = [j for j in range(n) if j != i and w[j, i] > 0.0]
        sent.append(len(receivers) * sum(c.size for c in msg))
        for l, qk in enumerate(q):
            x_hat[i][l] += w[i, i] * qk
        for j in receivers:
            for l, c in enumerate(msg):
                x_hat[j][l] += w[j, i] * (memory.layers[l].o @ c if l < coded else c)
    return sent


def reference_run(cfg: TrainConfig, seq):
    """Train ``cfg.method`` over ``seq`` with one model per agent; returns
    the accuracy matrix, the per-round log rows, the final parameters and
    the final memory (``None`` but for ``codec``)."""
    n, t_count = cfg.topology.n, len(seq)
    w = build_mixing(cfg.topology)
    projected = cfg.method == "codec"
    n_layers = len(cfg.dims) - 1
    pick = derive_rng(cfg.seed, TAG_PICK)
    memory = GpmState.fresh(cfg.dims[:-1])
    fisher = None  # (f, anchor): the summed Fishers and the latest anchor, trunk only
    acc = np.full((t_count, t_count), np.nan)
    logs = []
    agents = []
    bs, eta = cfg.batch_size, cfg.eta
    for t, data in enumerate(seq):
        if t == 0 or cfg.method == "stl":
            init = init_mlp(cfg.dims, derive_rng(cfg.seed, TAG_INIT, t))
            agents = [copy.deepcopy(init) for _ in range(n)]
        for a in agents:
            a.add_head(t, len(data.classes), derive_rng(cfg.seed, TAG_HEAD, t))
        _, shards = shard_iid(data, n, _derive_int(cfg.seed, TAG_SHARD, t))
        # every agent starts the task from the common model, so the
        # weighted sum of its neighbours' states is its own state
        x_hat = [[p.copy() for p in task_params(a, t)] for a in agents]
        per_epoch = math.ceil(max(len(s) for s in shards) / bs)
        total = cfg.epochs * per_epoch
        for r in range(total):
            epoch, k = divmod(r, per_epoch)
            steps, losses, mus = [], [], []
            for i, (a, shard) in enumerate(zip(agents, shards)):
                # each epoch walks the shard in a fresh order, wrapping around
                order = derive_rng(cfg.seed, TAG_BATCH, i, t, epoch).permutation(len(shard))
                rows = order[np.arange(k * bs, (k + 1) * bs) % len(shard)]
                loss, g = loss_and_grad(a, shard.examples[rows], shard.labels[rows], t)
                mu = 1.0
                if projected:
                    raw = math.sqrt(sum(np.sum(g[l] ** 2) for l in range(n_layers)))
                    for l, basis in enumerate(memory.layers):
                        g[l] = g[l] - basis.m @ (basis.m.T @ g[l])
                    kept = math.sqrt(sum(np.sum(g[l] ** 2) for l in range(n_layers)))
                    mu = kept / raw if raw else 1.0
                d = [-eta * gk for gk in g]
                for j, p in enumerate(a.layers if fisher else []):
                    # d = -eta (g + lam f (x - a)) / (1 + eta lam f)
                    f, anchor = fisher[0][j], fisher[1][j]
                    pull = cfg.lam * f * (p - anchor)
                    d[j] = -eta * (g[j] + pull) / (1.0 + eta * cfg.lam * f)
                steps.append(d)
                losses.append(float(loss))
                mus.append(mu)
            params = [task_params(a, t) for a in agents]
            sent = reference_round(params, x_hat, steps, w, memory if projected else None)
            flats = np.array([flatten_params(a) for a in agents])
            ce = float(np.sum((flats - flats.mean(axis=0)) ** 2)) / n
            logs += [(t, r, i, losses[i], ce, mus[i], sent[i]) for i in range(n)]
        mean = np.mean([flatten_params(a) for a in agents], axis=0)
        for a in agents:
            unflatten_params(a, mean)
        if projected:
            p = int(pick.integers(0, n))
            shard = shards[p]
            rows = derive_rng(cfg.seed, TAG_REP, t).permutation(len(shard))
            rows = rows[: min(cfg.rep_samples, len(shard))]
            reps = capture_representation(agents[p], shard.examples[rows], t)
            memory = update_memory(memory, reps, cfg.threshold(t))
        if cfg.method == "dewc":
            states = [fisher_estimate(a, s, t) for a, s in zip(agents, shards)]
            f = [np.mean(parts, axis=0) for parts in zip(*(s.f for s in states))]
            if fisher:
                f = [a + b for a, b in zip(fisher[0], f)]
            fisher = (f, [p.copy() for p in agents[0].layers])
        for i in [t] if cfg.method == "stl" else range(t + 1):
            test = seq[i]
            logits = forward(agents[0], test.test_x, i).logits
            acc[t, i] = float(np.mean(np.argmax(logits, axis=1) == test.test_y))
    return acc, logs, flatten_params(agents[0]), memory if projected else None


def save_csv_dataset(dataset, path):
    """Write train then test rows as ``label,feature...`` with global labels."""
    with open(path, "w", encoding="utf-8") as handle:
        for x, y in ((dataset.train_x, dataset.train_y), (dataset.test_x, dataset.test_y)):
            for i in range(x.shape[0]):
                label = dataset.classes[int(y[i])]
                row = ",".join(repr(float(v)) for v in x[i])
                handle.write(f"{label},{row}\n")


def output_delta(logits, labels):
    """The mean cross-entropy and ``softmax - onehot`` of the logits, with
    each label's logit and one-hot entry picked by a boolean mask."""
    shifted = logits - _over_classes(np.maximum, logits)[..., np.newaxis]
    d = np.exp(shifted)
    total = _over_classes(np.add, d)
    hot = labels[..., np.newaxis] == np.arange(logits.shape[-1])
    loss = np.mean(np.log(total) - shifted[hot].reshape(labels.shape), axis=-1)
    d /= total[..., np.newaxis]
    d[hot] -= 1.0
    return loss, d


def write_rounds(result, path):
    """``rounds.csv`` of a ``RunResult``, one f-string and one write per row."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("task,round,agent,loss,consensus_error,mu,scalars_sent\n")
        rows = zip(result.loss, result.mu, result.consensus_error.tolist())
        for entry in result.ledger:
            for r, (losses, mus, ce) in zip(range(entry.rounds), rows):
                values = zip(losses.tolist(), mus.tolist(), entry.scalars_sent)
                for i, (loss, mu, sent) in enumerate(values):
                    handle.write(f"{entry.task},{r},{i},{loss!r},{ce!r},{mu!r},{sent}\n")
