"""End-to-end acceptance checks for the whole stack.

Each test covers one numbered criterion and prints a single
``criterion NN PASS|FAIL`` line (visible with ``pytest -s`` or ``-rA``).
Expensive training runs are shared through module-scoped fixtures.
"""

import contextlib
import copy
import time

import numpy as np
import pytest

from dccl.cli import main
from dccl.gpm import GpmState, project, update_memory
from dccl.metrics import (
    acc,
    bwt,
    compression,
    diagonal_mean,
    per_layer_compression,
)
from dccl.model import (
    flatten_params,
    init_mlp,
    loss_and_grad,
    task_params,
    unflatten_params,
)
from dccl.ewc import ewc_grad, fisher_estimate
from dccl.tasks import TaskShard, derive_rng, generate_synthetic_sequence
from dccl.topology import build_mixing, parse_topology, validate_assumption3
from dccl.trainer import (
    Agents,
    TrainConfig,
    gossip_round,
    reset_aggregates,
    run,
)
from reference import consensus_error, reference_run


@contextlib.contextmanager
def _verdict(num, description):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} FAIL  {description}")
        raise
    print(f"criterion {num:02d} PASS  {description}")


SMALL_DIMS = [16, 32, 16]


def _small_config(method="codec"):
    return TrainConfig(
        eta=0.2,
        epochs=3,
        batch_size=16,
        eps_base=0.95,
        eps_increment=0.003,
        topology=parse_topology("ring", 4),
        seed=7,
        method=method,
        lam=5000.0,
        dims=SMALL_DIMS,
        rep_samples=32,
        debug_checks=True,  # live projection checks during the run
    )


@pytest.fixture(scope="module")
def small_sequence():
    return generate_synthetic_sequence(2, 2, 16, 100, 7)


@pytest.fixture(scope="module")
def small_pair(small_sequence):
    """The codec run and the per-agent reference, which encodes ``o^T q``
    and decodes ``o c`` on every message it sends."""
    start = time.monotonic()
    codec = run(_small_config("codec"), small_sequence)
    acc, _, final, _ = reference_run(_small_config("codec"), small_sequence)
    elapsed = time.monotonic() - start
    return {"codec": codec, "accuracy": acc, "final": final, "elapsed": elapsed}


@pytest.fixture(scope="module")
def small_first_task(small_sequence):
    # same seed and data, stopped after task 1: its final memory is the
    # memory in force during task 2 of the two-task run
    return run(_small_config("codec"), small_sequence[:1])


def _bench_config(method):
    return TrainConfig(
        eta=0.6,
        epochs=12,
        batch_size=8,
        eps_base=0.90,
        eps_increment=0.003,
        topology=parse_topology("ring", 8),
        seed=3,
        method=method,
        lam=5000.0,
        dims=[16, 32, 16],
        rep_samples=32,
        debug_checks=False,
    )


@pytest.fixture(scope="module")
def bench():
    sequence = generate_synthetic_sequence(5, 5, 16, 100, 3, separation=4.0)
    start = time.monotonic()
    codec = run(_bench_config("codec"), sequence)
    naive = run(_bench_config("naive"), sequence)
    stl = run(_bench_config("stl"), sequence)
    elapsed = time.monotonic() - start
    return {"codec": codec, "naive": naive, "stl": stl, "elapsed": elapsed}


def test_criterion_01_codec_is_lossless(small_pair):
    with _verdict(1, "codec and per-message encode/decode reach the same parameters"):
        codec = small_pair["codec"]
        delta = float(np.max(np.abs(codec.final_params - small_pair["final"])))
        assert delta <= 1e-9
        for t in range(2):
            for i in range(t + 1):
                a = round(float(codec.accuracy[t, i]), 6)
                b = round(float(small_pair["accuracy"][t, i]), 6)
                assert a == b
        assert small_pair["elapsed"] < 60.0


def test_criterion_02_projection_descent_identity(small_pair):
    with _verdict(2, "projected gradient keeps the descent inner product"):
        rng = np.random.default_rng(20240817)
        for _ in range(1000):
            n = int(rng.integers(2, 33))
            r = int(rng.integers(0, n))
            base = np.linalg.qr(rng.standard_normal((n, n)))[0]
            m = base[:, :r]
            g = rng.standard_normal((n, int(rng.integers(1, 6))))
            g_tilde = project(g, m)
            ip = float(np.sum(g * g_tilde))
            tsq = float(np.sum(g_tilde * g_tilde))
            gsq = float(np.sum(g * g))
            assert ip >= -1e-12
            assert abs(ip - tsq) <= 1e-8 * gsq
        # the same identity was asserted live at every step of the codec
        # run because the shared fixture trains with debug checks enabled
        assert _small_config().debug_checks
        assert small_pair["codec"].mu.size


def test_criterion_03_memory_bases_stay_orthonormal():
    with _verdict(3, "memory and complement are exact orthonormal partners"):
        rng = np.random.default_rng(9)
        for _ in range(500):
            n = int(rng.integers(2, 13))
            state = GpmState.fresh([n])
            for _ in range(int(rng.integers(1, 3))):
                reps = rng.standard_normal((n, int(rng.integers(1, 2 * n + 1))))
                state = update_memory(state, [reps], float(rng.uniform(0.5, 0.99)))
            basis = state.layers[0]
            m, o = basis.m, basis.o
            r = m.shape[1]
            eye = np.eye(n)
            if r:
                assert np.max(np.abs(m.T @ m - np.eye(r))) <= 1e-9
            if n - r:
                assert np.max(np.abs(o.T @ o - np.eye(n - r))) <= 1e-9
            if r and n - r:
                assert np.max(np.abs(m.T @ o)) <= 1e-9
            assert np.max(np.abs(m @ m.T + o @ o.T - eye)) <= 1e-9
            g = rng.standard_normal((n, 3))
            once = project(g, m)
            assert np.max(np.abs(project(once, m) - once)) <= 1e-10


def test_criterion_04_mixing_matrices_and_contraction():
    with _verdict(4, "mixing matrices are doubly stochastic contractions"):
        cases = [
            ("ring", 1), ("ring", 4), ("ring", 8), ("ring", 16),
            ("torus:1x1", 1), ("torus:2x2", 4), ("torus:2x4", 8), ("torus:4x4", 16),
            ("full", 1), ("full", 4), ("full", 8), ("full", 16),
        ]
        for spec, n in cases:
            w = build_mixing(parse_topology(spec, n))
            sqrt_rho = validate_assumption3(w).sqrt_rho
            ones = np.ones(n)
            assert np.max(np.abs(w @ ones - ones)) <= 1e-12
            assert np.max(np.abs(w.T @ ones - ones)) <= 1e-12
            assert np.min(w) >= 0.0
            assert sqrt_rho < 1.0
            if spec.startswith("full") or n == 1:
                assert sqrt_rho == 0.0
            deflated = (np.eye(n) - np.ones((n, n)) / n) @ w
            oracle = float(np.max(np.abs(np.linalg.eigvals(deflated))))
            assert abs(sqrt_rho - oracle) <= 1e-10
            if spec == "ring" and n == 4:
                assert abs(sqrt_rho - 0.7071067811865476) <= 1e-10


def test_criterion_05_gossip_alone_reaches_consensus():
    with _verdict(5, "zero-gradient gossip contracts to consensus"):
        mixing = build_mixing(parse_topology("ring", 8))
        models = []
        for i in range(8):
            model = init_mlp(list(SMALL_DIMS), derive_rng(11, 1, i))
            model.add_head(0, 2, derive_rng(11, 2, i))
            models.append(model)
        stacked = models[0].stacked(8)
        for i, model in enumerate(models):
            unflatten_params(stacked.view(i), flatten_params(model))
        agents = Agents(model=stacked, memory=GpmState.fresh(SMALL_DIMS[:-1]))
        reset_aggregates(agents, mixing, 0)
        history = [consensus_error(agents.model)]
        for r in range(200):
            steps = [np.zeros_like(x) for x in task_params(agents.model, 0)]
            gossip_round(agents, mixing, 0, steps, 0.1, debug=(r % 40 == 0))
            history.append(consensus_error(agents.model))
        assert history[0] > 1.0  # the random starting points really disagree
        assert history[-1] < 1e-12
        assert all(b <= a for a, b in zip(history, history[1:]))


def test_criterion_06_method_ordering_on_the_benchmark(bench):
    with _verdict(6, "codec beats naive on forgetting, stl bounds accuracy"):
        bwt_codec = bwt(bench["codec"].accuracy)
        bwt_naive = bwt(bench["naive"].accuracy)
        assert bwt_codec > bwt_naive + 0.05
        acc_stl = diagonal_mean(bench["stl"].accuracy)
        acc_codec = acc(bench["codec"].accuracy)
        acc_naive = acc(bench["naive"].accuracy)
        assert acc_stl >= acc_codec >= acc_naive
        assert bench["elapsed"] < 300.0


def test_criterion_07_compression_ratio_bookkeeping(bench, small_pair, small_first_task):
    with _verdict(7, "compression ratios grow with rank and match exactly"):
        per_task = compression(bench["codec"].ledger)["pure_subspace"]["per_task"]
        assert per_task[0] == 1.0
        assert all(b >= a for a, b in zip(per_task, per_task[1:]))
        per_layer = per_layer_compression(small_pair["codec"].ledger)
        assert per_layer[0] == [1.0, 1.0]
        ranks = small_first_task.gpm.ranks()
        for l, n_l in enumerate(SMALL_DIMS[:-1]):
            r_l = ranks[l]
            assert 0 < r_l < n_l
            assert per_layer[1][l] == n_l / (n_l - r_l)


def test_criterion_08_projection_never_amplifies(small_pair, bench):
    with _verdict(8, "per-step gradient ratio stays within [0, 1]"):
        for result in (small_pair["codec"], bench["codec"]):
            assert result.mu.size
            assert np.all((0.0 <= result.mu) & (result.mu <= 1.0 + 1e-10))
            assert np.all(result.mu[: result.ledger[0].rounds] == 1.0)  # task 0


def _fd_gradient(loss_of_flat, base, h=1e-6):
    grad = np.zeros_like(base)
    for i in range(base.size):
        up = base.copy()
        up[i] += h
        down = base.copy()
        down[i] -= h
        grad[i] = (loss_of_flat(up) - loss_of_flat(down)) / (2.0 * h)
    return grad


def test_criterion_09_gradients_match_finite_differences():
    with _verdict(9, "analytic gradients agree with finite differences"):
        model = init_mlp([4, 6, 5], np.random.default_rng(1))
        model.add_head(0, 3, np.random.default_rng(2))
        rng = np.random.default_rng(3)
        batch = rng.standard_normal((3, 4))
        labels = np.array([0, 2, 1])

        def plain_loss(flat):
            probe = copy.deepcopy(model)
            unflatten_params(probe, flat)
            return loss_and_grad(probe, batch, labels, 0)[0]

        _, grads = loss_and_grad(model, batch, labels, 0)
        analytic = np.concatenate([g.ravel() for g in grads])
        numeric = _fd_gradient(plain_loss, flatten_params(model))
        scale = max(1.0, float(np.max(np.abs(numeric))))
        assert np.max(np.abs(analytic - numeric)) <= 1e-6 * scale

        shard = TaskShard(
            examples=rng.standard_normal((5, 4)),
            labels=rng.integers(0, 3, size=5),
        )
        # estimate the Fisher at a different point so the penalty pulls
        anchor_model = init_mlp([4, 6, 5], np.random.default_rng(4))
        anchor_model.add_head(0, 3, np.random.default_rng(5))
        fisher = fisher_estimate(anchor_model, shard, 0)
        lam = 3.0

        def penalized_loss(flat):
            probe = copy.deepcopy(model)
            unflatten_params(probe, flat)
            loss = loss_and_grad(probe, batch, labels, 0)[0]
            for w, f, anchor in zip(probe.layers, fisher.f, fisher.anchor):
                loss += 0.5 * lam * float(np.sum(f * (w - anchor) ** 2))
            return loss

        _, grads = loss_and_grad(model, batch, labels, 0)
        grads = ewc_grad(model, grads, fisher, lam)
        analytic = np.concatenate([g.ravel() for g in grads])
        numeric = _fd_gradient(penalized_loss, flatten_params(model))
        scale = max(1.0, float(np.max(np.abs(numeric))))
        assert np.max(np.abs(analytic - numeric)) <= 1e-6 * scale


def test_criterion_10_degenerate_settings_collapse_cleanly():
    with _verdict(10, "single agent and single task reduce to plain SGD"):
        solo = generate_synthetic_sequence(2, 2, 16, 40, 5)
        cfg = TrainConfig(
            eta=0.2, epochs=3, batch_size=16,
            eps_base=0.95, eps_increment=0.003,
            topology=parse_topology("full", 1), seed=5, method="codec",
            lam=5000.0, dims=SMALL_DIMS, rep_samples=16, debug_checks=False,
        )
        # a held layer rounds differently from the plain one: not bitwise
        want = reference_run(cfg, solo)[2]
        err = np.max(np.abs(run(cfg, solo).final_params - want))
        assert err <= 1e-12 * np.max(np.abs(want))

        single = generate_synthetic_sequence(1, 2, 16, 60, 5)
        codec = run(_small_config("codec"), single)
        naive = run(_small_config("naive"), single)
        assert np.max(np.abs(codec.final_params - naive.final_params)) <= 1e-12
        assert codec.accuracy[0, 0] == naive.accuracy[0, 0]


def test_criterion_11_runs_are_reproducible(tmp_path, capsys):
    with _verdict(11, "reruns are byte-identical"):
        out = tmp_path / "rep"
        args = [
            "run",
            "--method", "codec",
            "--agents", "4",
            "--topology", "ring",
            "--tasks", "2",
            "--seed", "7",
            "--out", str(out),
            "--set", "samples_per_class=40",
            "--set", "epochs=3",
            "--set", "eta=0.2",
            "--set", "eps_base=0.95",
            "--set", "rep_samples=16",
        ]
        assert main(args) == 0
        names = ("rounds.csv", "accuracy_matrix.csv", "summary.json", "gpm_state.txt")
        first = {n: (out / n).read_bytes() for n in names}
        assert main(args) == 0
        capsys.readouterr()
        for n in names:
            assert (out / n).read_bytes() == first[n], n
