"""Whole runs of ``run`` against a plain per-agent reference engine.

The reference holds one ``Mlp`` per agent and sends every message on its
own, as separate nodes would.  It reads as the algorithm: a projected
(GPM, Saha, Garg & Roy 2021) or EWC-penalised local step ``d = -eta g~``,
the CHOCO-SGD update ``q = (x_hat - x) + d`` (Koloskova, Stich & Jaggi
2019) sent as subspace coefficients and added to each receiver's tracked
aggregate ``x_hat``, an average at every task boundary, the memory grown
at one picked agent, and for ``dewc`` the averaged diagonal Fisher
(Kirkpatrick et al. 2017).  It draws from the same named seed streams as
the engine, so both runs must agree up to rounding.
"""

import copy
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dccl.ewc import fisher_estimate
from dccl.gpm import GpmState, ThresholdSchedule, update_memory
from dccl.model import (
    capture_representation,
    flatten_params,
    forward,
    init_mlp,
    loss_and_grad,
    task_params,
    trunk_params,
    unflatten_params,
)
from dccl.tasks import generate_synthetic_sequence, shard_iid
from dccl.topology import Topology, build_mixing, parse_topology
from dccl.trainer import (
    EWC_MODES,
    METHODS,
    TAG_BATCH,
    TAG_HEAD,
    TAG_INIT,
    TAG_PICK,
    TAG_REP,
    TAG_SHARD,
    TrainConfig,
    _derive_int,
    derive_rng,
    run,
)

# largest difference allowed in a float result, relative to the largest
# magnitude of the compared quantity: rounding only, never an algorithm change
TOL = 1e-12


def _lr(cfg, r, total):
    if cfg.lr_decay and r / total >= 0.75:
        return cfg.eta * 0.01
    if cfg.lr_decay and r / total >= 0.5:
        return cfg.eta * 0.1
    return cfg.eta


def reference_run(cfg: TrainConfig, seq):
    n, t_count = cfg.topology.n, len(seq.tasks)
    w = build_mixing(cfg.topology)
    projected = cfg.method in ("codec", "codec_fullcomm")
    compressed = cfg.method == "codec"
    n_layers = len(cfg.dims) - 1
    pick = derive_rng(cfg.seed, TAG_PICK)
    memory = GpmState.fresh(cfg.dims[:-1])
    fishers = []  # (f, anchor) per penalty term, trunk arrays only
    acc = np.full((t_count, t_count), np.nan)
    logs = []
    agents = []
    bs = cfg.batch_size
    for t, data in enumerate(seq.tasks):
        if t == 0 or cfg.method == "stl":
            init = init_mlp(cfg.dims, derive_rng(cfg.seed, TAG_INIT, t), cfg.use_bias)
            agents = [copy.deepcopy(init) for _ in range(n)]
        for a in agents:
            a.add_head(t, len(data.classes), derive_rng(cfg.seed, TAG_HEAD, t))
        shards = shard_iid(data, n, _derive_int(cfg.seed, TAG_SHARD, t))
        # every agent starts the task from the common model, so the
        # weighted sum of its neighbours' states is its own state
        x_hat = [[p.copy() for p in task_params(a, t)] for a in agents]
        per_epoch = math.ceil(max(len(s) for s in shards) / bs)
        total = cfg.epochs * per_epoch
        for r in range(total):
            epoch, k = divmod(r, per_epoch)
            eta = _lr(cfg, r, total)
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
                for f, anchor in fishers:
                    for j, p in enumerate(trunk_params(a)):
                        g[j] = g[j] + cfg.lam * f[j] * (p - anchor[j])
                steps.append([-eta * gk for gk in g])
                losses.append(float(loss))
                mus.append(mu)
            updates = []
            for a, h, d in zip(agents, x_hat, steps):
                q = [(hk - p) + dk for p, hk, dk in zip(task_params(a, t), h, d)]
                for p, qk in zip(task_params(a, t), q):
                    p += qk
                updates.append(q)
            sent = []
            for i, q in enumerate(updates):
                msg = [
                    memory.layers[l].o.T @ qk if compressed and l < n_layers else qk
                    for l, qk in enumerate(q)
                ]
                receivers = [j for j in range(n) if j != i and w[j, i] > 0.0]
                sent.append(len(receivers) * sum(c.size for c in msg))
                for l, qk in enumerate(q):
                    x_hat[i][l] += w[i, i] * qk
                for j in receivers:
                    for l, c in enumerate(msg):
                        dq = memory.layers[l].o @ c if compressed and l < n_layers else c
                        x_hat[j][l] += w[j, i] * dq
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
            memory = update_memory(memory, reps, cfg.threshold.value(t))
        if cfg.method == "dewc":
            states = [fisher_estimate(a, s, t) for a, s in zip(agents, shards)]
            f = [np.mean(parts, axis=0) for parts in zip(*(s.f for s in states))]
            anchor = [p.copy() for p in trunk_params(agents[0])]
            if cfg.ewc_mode == "online" and fishers:
                f = [a + b for a, b in zip(fishers[0][0], f)]
                fishers = []
            fishers.append((f, anchor))
        for i in [t] if cfg.method == "stl" else range(t + 1):
            test = seq.tasks[i]
            logits = forward(agents[0], test.test_x, i).logits
            acc[t, i] = float(np.mean(np.argmax(logits, axis=1) == test.test_y))
    return acc, logs, flatten_params(agents[0]), memory if projected else None


def _close(got, want, what):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, what
    scale = np.max(np.abs(want), initial=0.0)
    err = np.max(np.abs(got - want), initial=0.0)
    assert err <= TOL * scale, f"{what}: off by {err:.3e} of {scale:.3e}"


def _custom_graph(n, rng):
    """A random connected undirected graph: a random spanning tree plus extras."""
    adj = np.zeros((n, n))
    order = rng.permutation(n)
    for k in range(1, n):
        i, j = order[k], order[int(rng.integers(0, k))]
        adj[i, j] = adj[j, i] = 1.0
    extra = np.triu(rng.random((n, n)) < 0.3, 1)
    adj[extra | extra.T] = 1.0
    np.fill_diagonal(adj, 0.0)
    return Topology("custom", n, adjacency=adj)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    method=st.sampled_from(METHODS),
    graph=st.sampled_from(["ring", "torus", "full", "custom"]),
    n=st.integers(1, 5),
    tasks=st.integers(1, 3),
    use_bias=st.booleans(),
    lr_decay=st.booleans(),
    ewc_mode=st.sampled_from(EWC_MODES),
    seed=st.integers(0, 2**31 - 1),
)
def test_run_matches_the_per_agent_reference(
    method, graph, n, tasks, use_bias, lr_decay, ewc_mode, seed
):
    rng = np.random.default_rng(seed)
    if graph == "torus":
        rows = int(rng.choice([r for r in range(1, n + 1) if n % r == 0]))
        topology = parse_topology(f"torus:{rows}x{n // rows}", n)
    elif graph == "custom":
        topology = _custom_graph(n, rng)
    else:
        topology = parse_topology(graph, n)
    dim = int(rng.integers(2, 6))
    hidden = rng.integers(1, 6, size=int(rng.integers(1, 3)))
    seq = generate_synthetic_sequence(
        tasks, int(rng.integers(2, 4)), dim, int(rng.integers(4, 9)), seed
    )
    cfg = TrainConfig(
        eta=float(rng.choice([0.05, 0.3])),
        epochs=int(rng.integers(1, 3)),
        batch_size=int(rng.integers(1, 5)),
        threshold=ThresholdSchedule(float(rng.choice([0.6, 0.9])), 0.02),
        topology=topology,
        seed=seed,
        method=method,
        lam=float(rng.choice([0.0, 2.0])),
        ewc_mode=ewc_mode,
        dims=[dim, *(int(d) for d in hidden)],
        use_bias=use_bias,
        rep_samples=int(rng.integers(1, 9)),
        lr_decay=lr_decay,
    )
    got = run(cfg, seq)
    acc, logs, final, memory = reference_run(cfg, seq)
    matrix = [[got.accuracy.get(t, i) for i in range(tasks)] for t in range(tasks)]
    assert np.array_equal(matrix, acc, equal_nan=True)
    rows = [(r.task, r.round, r.agent, r.loss, r.ce, r.mu, r.scalars_sent) for r in got.logs]
    assert [(*r[:3], r[6]) for r in rows] == [(*r[:3], r[6]) for r in logs]
    for col, name in ((3, "loss"), (4, "consensus error"), (5, "mu")):
        _close([row[col] for row in rows], [row[col] for row in logs], name)
    _close(got.final_params, final, "final parameters")
    if memory is None:
        assert got.gpm is None
    else:
        assert got.gpm.ranks() == memory.ranks()
        for l, (a, b) in enumerate(zip(got.gpm.layers, memory.layers)):
            _close(a.m, b.m, f"layer {l} memory")
            # compared as a span: past the residual's rank, the columns of o
            # are whatever completion LAPACK picks for a null space
            _close(a.o @ a.o.T, b.o @ b.o.T, f"layer {l} complement")
