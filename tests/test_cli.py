"""End-to-end command line behaviour, config precedence, and report files."""

import dataclasses
import io
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dccl.cli
import dccl.trainer
from dccl.cli import ConfigError, main, resolve_config, _build_sequence
from dccl.gpm import load_state
from dccl.tasks import generate_synthetic_sequence
from reference import save_csv_dataset


def _run_args(out, *extra):
    # a deliberately tiny training job so CLI tests stay fast
    return [
        "run",
        "--agents", "2",
        "--topology", "ring",
        "--tasks", "1",
        "--seed", "0",
        "--out", str(out),
        "--set", "samples_per_class=12",
        "--set", "epochs=2",
        "--set", "batch_size=8",
        *extra,
    ]


def test_validate_ring_passes(capsys):
    rc = main(["validate", "--topology", "ring", "--agents", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0.7071" in out
    assert "validation passed" in out


def test_validate_rejects_threshold_ceiling(capsys):
    rc = main(["validate", "--set", "eps_base=0.99", "--set", "tasks=10"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error:" in err and "threshold" in err


def test_validate_accepts_the_last_threshold_below_one(capsys):
    # ten tasks use thresholds 0.97 .. 0.97 + 9 * 0.003 = 0.997
    rc = main(["validate", "--tasks", "10", "--agents", "4"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert "validation passed" in captured.out


def test_validate_rejects_out_of_range_base(capsys):
    rc = main(["validate", "--set", "eps_base=1.2"])
    err = capsys.readouterr().err
    assert rc == 1
    want = "config key 'eps_base': eps_base 1.2: threshold 1.2 for task 0 is outside (0, 1)"
    assert err == f"error: {want}\n", err


def test_validate_rejects_grid_agent_mismatch(tmp_path, capsys):
    """A value set by two keys together is rejected naming both: a graph of
    another size than the agent count, and a threshold past task 0."""
    adj = tmp_path / "adj2.txt"
    adj.write_text("0 1\n1 0\n")
    for args, keys, cause in (
        (["--topology", "torus:3x3", "--agents", "8"], "'topology', 'agents'",
         "torus 3x3 has 9 nodes but 8 agents were requested"),
        (["--topology", f"custom:{adj}", "--agents", "3"], "'topology', 'agents'",
         f"adjacency has shape (2, 2) but 3 agents were requested, in {adj}"),
        (["--set", "eps_increment=0.1", "--tasks", "3"], "'eps_base', 'eps_increment'",
         "eps_base 0.97 and eps_increment 0.1: threshold 1.07 for task 1 is outside"),
    ):
        rc = main(["validate", *args])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: config keys {keys}: {cause}"), err


def test_validate_names_topology_in_what_only_topology_sets(tmp_path, capsys):
    """A graph rejected for what its spec or its file says names the
    ``topology`` key alone: an unknown kind, a malformed torus, a custom
    file that is not symmetric, and one that cannot be read."""
    asym = tmp_path / "asym.txt"
    asym.write_text("0 1 0\n0 0 1\n1 0 0\n")
    missing = tmp_path / "missing.txt"
    for spec, cause in (
        ("star", "topology 'star' is not ring, full, torus:RxC or custom:<path>"),
        ("torus:3", "torus spec must look like torus:RxC, got 'torus:3'"),
        (f"custom:{asym}", f"custom adjacency must be symmetric, in {asym}"),
        (f"custom:{missing}", f"custom adjacency {missing}: No such file or directory"),
    ):
        rc = main(["validate", "--topology", spec, "--agents", "3"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"error: config key 'topology': {cause}\n", err


@pytest.mark.parametrize(
    "args, cause",
    [
        (["--set", "classes_per_task=1"], "classes_per_task must be at least 2, got 1"),
        (["--set", "samples_per_class=1"], "per_class must be at least 2, got 1"),
        (["--agents", "200"], "task 0 has 160 training samples, fewer than 200 agents"),
        # more than one fault: both commands prepare a config in one order
        (["--topology", "star", "--set", "samples_per_class=1"],
         "config key 'topology': topology 'star' is not ring, full, torus:RxC"),
        (["--method", "foo", "--set", "eta=nan"],
         "config key 'method': method must be one of codec, dewc, stl, naive, "
         "got unknown method 'foo'"),
    ],
    ids=[
        "one-class", "one-sample", "more-agents-than-samples",
        "topology-and-samples", "method-and-eta",
    ],
)
def test_validate_rejects_what_run_rejects_before_training(
    tmp_path, capsys, args, cause
):
    out = tmp_path / "out"
    errs = []
    for command in ("validate", "run"):
        rc = main([command, "--topology", "full", "--out", str(out), *args])
        errs.append(capsys.readouterr().err)
        assert rc == 1, command
        assert cause in errs[-1], command
    assert errs[0] == errs[1]
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value, shown, extra",
    [
        ("agents", "0", "got 0", []),
        ("tasks", "0", "got 0", []),
        ("classes_per_task", "1", "got 1", []),
        # input_dim must equal dims[0], so both go past the bound
        ("input_dim", "0", "got 0", ["--set", "dims=0,32,16"]),
        ("samples_per_class", "1", "got 1", []),
        ("separation", "0.0", "got 0.0", []),
        ("data_seed", "-1", "got -1", []),
        ("dims", "16,0,16", "got [16, 0, 16]", []),
        ("eta", "0.0", "got 0.0", []),
        ("epochs", "0", "got 0", []),
        ("batch_size", "0", "got 0", []),
        ("eps_base", "1.0", "base 1.0", []),
        ("eps_increment", "-0.001", "got -0.001", []),
        ("rep_samples", "0", "got 0", []),
        ("lambda", "-0.001", "got -0.001", []),
        ("seed", "-1", "got -1", []),
    ],
)
def test_every_numeric_key_past_its_bound_is_rejected_by_name(
    tmp_path, capsys, monkeypatch, key, value, shown, extra
):
    """The library owns every bound; the CLI names the key it came from,
    with the same message under both commands, and ``dccl run`` stops
    before it calls into training."""
    def train(*args):
        pytest.fail(f"dccl run trained with {key}={value}")

    monkeypatch.setattr(dccl.cli, "run", train)
    out = tmp_path / "out"
    errs = []
    for command in ("validate", "run"):
        rc = main([command, "--out", str(out), "--set", f"{key}={value}", *extra])
        errs.append(capsys.readouterr().err)
        assert rc == 1, command
        assert errs[-1].startswith(f"error: config key '{key}': "), errs[-1]
        assert shown in errs[-1], errs[-1]
    assert errs[0] == errs[1]
    assert not out.exists()


def test_unknown_method_and_key_are_rejected(capsys):
    rc = main(["validate", "--set", "method=foo"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "method" in err
    for key in ("bogus", "use_bias", "lr_decay", "ewc_mode"):
        rc = main(["validate", "--set", f"{key}=1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"unknown config key '{key}'" in err
    rc = main(["validate", "--set", "eta"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "key=value" in err


def test_bad_value_names_the_key(capsys):
    for key, value, reason in (
        ("agents", "zero", "'zero'"),
        # every comma-separated entry must parse, an empty one too
        ("dims", "16,,16", "expected an integer, got ''"),
        ("dims", "16,32,", "expected an integer, got ''"),
        ("dataset_path", "a.csv,,b.csv", "path list"),
    ):
        rc = main(["validate", "--set", f"{key}={value}"])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"config key '{key}'" in err and reason in err, err


@pytest.mark.parametrize(
    "key, value",
    [("eta", "nan"), ("eta", "inf"), ("separation", "nan"), ("lambda", "inf")],
)
def test_non_finite_floats_are_rejected_by_name(tmp_path, capsys, key, value):
    """The library rejects a non-finite number; the CLI only reads it."""
    out = tmp_path / "out"
    errs = []
    for command in ("validate", "run"):
        rc = main([command, "--out", str(out), "--set", f"{key}={value}"])
        errs.append(capsys.readouterr().err)
        assert rc == 1, command
        assert f"config key '{key}'" in errs[-1] and "finite" in errs[-1], command
    assert errs[0] == errs[1]
    assert not out.exists()


def test_dedicated_flags_go_through_the_schema(capsys):
    for flag, value, reason in (
        ("--agents", "abc", "expected an integer"),
        ("--agents", "0", "at least 1"),
        ("--method", "foo", "unknown method"),
        ("--method", "codec_fullcomm", "unknown method"),
    ):
        rc = main(["validate", flag, value])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"'{flag[2:]}'" in err and reason in err


def test_run_writes_reports(tmp_path, capsys):
    out = tmp_path / "run1"
    rc = main(_run_args(out, "--method", "codec"))
    printed = capsys.readouterr().out
    assert rc == 0
    assert (out / "rounds.csv").exists()
    assert (out / "accuracy_matrix.csv").exists()
    assert (out / "gpm_state.txt").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["method"] == "codec"
    assert summary["config"]["samples_per_class"] == 12
    assert summary["bwt_percent"] is None
    assert "bwt_percent n/a" in printed
    assert "accuracy_percent" in printed


def test_an_output_path_no_directory_can_be_made_at_is_rejected_before_training(
    tmp_path, capsys, monkeypatch
):
    """An empty ``out``, an existing file and a path under one stop both
    commands naming ``out``, before a round trains."""
    taken = tmp_path / "taken"
    taken.write_text("")
    monkeypatch.setattr(dccl.cli, "run", None)  # a call to train would fail
    for out in (" ", str(taken), str(taken / "sub")):
        for command in ("validate", "run"):
            rc = main([command, "--out", out])
            err = capsys.readouterr().err
            assert rc == 1, command
            want = f"error: config key 'out': no directory can be made at {out.strip()!r}\n"
            assert err == want, command
    assert taken.read_text() == ""


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_divergent_run_exits_non_zero_without_reports(tmp_path, capsys):
    out = tmp_path / "diverged"
    rc = main(["run", "--out", str(out), "--set", "eta=1e100"])
    err = capsys.readouterr().err
    assert rc == 1
    assert re.search(r"^error: task 0, round 1: agent 0 has non-finite mu$", err, re.M), err
    assert not (out / "rounds.csv").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "method, cause",
    [("codec", "agent 1 has non-finite mu"), ("naive", "non-finite consensus error")],
)
def test_non_finite_mu_or_consensus_error_stops_the_run(
    tmp_path, capsys, method, cause
):
    out = tmp_path / method
    args = _run_args(out, "--method", method, "--set", "epochs=1", "--set", "eta=1e100")
    rc = main(args)
    err = capsys.readouterr().err
    assert rc == 1
    assert re.search(rf"^error: task 0, round 1: {cause}$", err, re.M), err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_a_diverging_run_with_live_checks_names_the_blow_up(tmp_path, capsys):
    """Task 2's features are 1e100 times the first two tasks', so its first
    round moves the parameters and their aggregates to about 2e98 under the
    penalty of both earlier tasks; the tracking check holds their drift
    relative to their size, and the run stops on the next round's
    non-finite loss, not on a rounding-level drift."""
    seq = generate_synthetic_sequence(3, 2, 16, 40, 5, separation=4.0)
    paths = []
    for t, data in enumerate(seq):
        if t == 2:
            data = dataclasses.replace(
                data, train_x=1e100 * data.train_x, test_x=1e100 * data.test_x
            )
        paths.append(str(tmp_path / f"task{t}.csv"))
        save_csv_dataset(data, paths[-1])
    out = tmp_path / "diverged"
    rc = main([
        "run", "--method", "dewc", "--topology", "torus:2x3", "--agents", "6",
        "--tasks", "3", "--out", str(out),
        "--set", "debug_checks=true",
        "--set", f"dataset_path={','.join(paths)}",
    ])
    err = capsys.readouterr().err
    assert rc == 1
    assert re.search(r"^error: task 2, round \d+: agent \d+ has non-finite loss$", err, re.M), err
    assert not out.exists()


def test_saturated_layer_is_frozen_and_passes_the_live_checks(tmp_path, capsys):
    """Layer 0's memory spans its four inputs after the first task, so from
    then on it trains coefficients of width 0 and cannot move, and the live
    checks pass."""
    out = tmp_path / "saturated"
    rc = main([
        "run", "--method", "codec", "--topology", "ring", "--agents", "4",
        "--tasks", "3", "--out", str(out),
        "--set", "dims=4,8,4", "--set", "input_dim=4",
        "--set", "samples_per_class=40", "--set", "epochs=1",
        "--set", "rep_samples=16", "--set", "debug_checks=true",
    ])
    assert rc == 0, capsys.readouterr().err
    assert "layer 0 dim 4 rank 4" in (out / "gpm_state.txt").read_text()


def test_a_broken_invariant_exits_one_naming_its_cause(
    tmp_path, capsys, monkeypatch
):
    # a lost norm that drops the memory's share of the gradient breaks the norm split
    monkeypatch.setattr(dccl.trainer, "_lost_sq", lambda x, *_: np.zeros(len(x)))
    out = tmp_path / "broken"
    args = _run_args(out, "--method", "codec", "--tasks", "2", "--set", "debug_checks=true")
    rc = main(args)
    err = capsys.readouterr().err
    assert rc == 1
    assert re.search(
        r"^error: task 1, round 0: agent \d+ layer \d+: norm split violated", err, re.M
    ), err
    assert not out.exists()


def test_an_oversized_representation_batch_warns_once(tmp_path, caplog):
    """The default 64-row representation batch exceeds every 40-row shard of
    the default two-task run: said once, before training, and by
    ``validate`` too; a method without a memory is not warned."""
    caplog.set_level(logging.WARNING)
    want = ["rep_samples 64 exceeds the smallest shard (40 samples); "
            "a representation batch is clamped to its shard"]
    assert main(["run", "--out", str(tmp_path / "run")]) == 0
    assert [r.getMessage() for r in caplog.records] == want
    caplog.clear()
    assert main(["validate"]) == 0
    assert [r.getMessage() for r in caplog.records] == want
    caplog.clear()
    assert main(["validate", "--method", "naive"]) == 0
    assert caplog.records == []


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_the_default_dewc_config_learns_three_tasks(tmp_path, caplog, seed):
    """The penalty's implicit step is stable at the default eta * lambda,
    so three tasks under it finish with no warning, above chance (50%); an
    explicit step diverges in task 2 on seeds 0, 1 and 3, and reaches 50%
    on seed 2."""
    caplog.set_level(logging.WARNING)
    out = tmp_path / "dewc"
    args = ["run", "--method", "dewc", "--tasks", "3", "--seed", str(seed)]
    assert main([*args, "--out", str(out)]) == 0
    assert caplog.records == []
    summary = json.loads((out / "summary.json").read_text())
    assert summary["accuracy_percent"] > 50.0


def test_run_single_agent_all_inclusive_ratio_is_one(tmp_path):
    out = tmp_path / "solo"
    rc = main(_run_args(out, "--method", "codec", "--agents", "1"))
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    # no peer traffic: the ratio reduces to synchronization overhead only
    assert summary["compression"]["all_inclusive"]["overall"] == 1.0
    assert summary["compression"]["pure_subspace"]["overall"] is None


def test_run_naive_writes_no_memory_file(tmp_path):
    out = tmp_path / "naive"
    rc = main(_run_args(out, "--method", "naive"))
    assert rc == 0
    assert not (out / "gpm_state.txt").exists()


@pytest.mark.parametrize("method", ["naive", "dewc", "stl"])
def test_a_run_without_memory_removes_a_stale_memory_file(tmp_path, method):
    out = tmp_path / "reused"
    assert main(_run_args(out, "--method", "codec")) == 0
    assert (out / "gpm_state.txt").exists()
    assert main(_run_args(out, "--method", method)) == 0
    assert not (out / "gpm_state.txt").exists()


def test_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "repeat"
    args = _run_args(out, "--method", "codec")
    assert main(args) == 0
    names = ("rounds.csv", "accuracy_matrix.csv", "summary.json", "gpm_state.txt")
    first = {n: (out / n).read_bytes() for n in names}
    assert main(args) == 0
    for n in names:
        assert (out / n).read_bytes() == first[n], n


# the ``wide`` benchmark's shapes at two tasks of one epoch
_WIDE_SMALL = [
    "run", "--method", "codec", "--topology", "torus:4x4", "--agents", "16",
    "--tasks", "2", "--set", "dims=64,256,128", "--set", "input_dim=64",
    "--set", "samples_per_class=100", "--set", "epochs=1",
    "--set", "rep_samples=8", "--seed", "4", "--out", "out",
]


def _run_in_a_process(cwd, **env):
    """``_WIDE_SMALL`` run by ``python -m dccl.cli`` in a new directory
    ``cwd`` with ``env`` added; returns its stdout and report bytes."""
    src = str(Path(dccl.trainer.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    cwd.mkdir()
    proc = subprocess.run(
        [sys.executable, "-m", "dccl.cli", *_WIDE_SMALL],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path, **env},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, {p.name: p.read_bytes() for p in sorted((cwd / "out").iterdir())}


def test_reports_do_not_depend_on_the_openblas_thread_count(tmp_path):
    """The same config run under ``OPENBLAS_NUM_THREADS`` 1 and 2, each in
    its own process with the same relative ``--out``, writes the same
    report bytes and stdout: ``run`` holds OpenBLAS at one thread.  Before
    that, this config's ``gpm_state.txt`` differed at two threads."""
    if dccl.trainer._openblas_threads() is None:
        pytest.skip("no OpenBLAS thread-count symbols in this process")
    written = [
        _run_in_a_process(tmp_path / f"threads{n}", OPENBLAS_NUM_THREADS=n)
        for n in ("1", "2")
    ]
    assert {"rounds.csv", "gpm_state.txt", "summary.json"} <= set(written[0][1])
    assert written[0] == written[1]


def test_the_cpu_kernels_move_only_the_last_bits(tmp_path):
    """The same config run as is and with other kernels: OpenBLAS's
    Sandybridge ones (``OPENBLAS_CORETYPE``) and numpy's loops without
    AVX-512 (``NPY_DISABLE_CPU_FEATURES``).  The accuracy matrix and the
    memory ranks stay the same; every ``rounds.csv`` column and memory
    projector ``m m^T`` stays within 1e-14 of its largest magnitude.  On an
    AVX-512 host, seeds 0 and 4 to 6 moved them by at most 3.4e-16 and
    4.4e-16."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    env = {}
    if __cpu_features__.get("AVX") and dccl.trainer._openblas_threads() is not None:
        env["OPENBLAS_CORETYPE"] = "Sandybridge"
    avx512 = [
        f for f in __cpu_dispatch__
        if ("AVX512" in f or f == "X86_V4") and __cpu_features__.get(f)
    ]
    if avx512:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(avx512)
    if not env:
        pytest.skip("neither OpenBLAS's core type nor numpy's AVX-512 loops apply")
    (_, base), (_, other) = (
        _run_in_a_process(tmp_path / name, **switches)
        for name, switches in (("as_is", {}), ("switched", env))
    )
    assert base["accuracy_matrix.csv"] == other["accuracy_matrix.csv"]
    a, b = (
        np.loadtxt(io.BytesIO(files["rounds.csv"]), delimiter=",", skiprows=1)
        for files in (base, other)
    )
    assert np.all(np.abs(a - b).max(axis=0) <= 1e-14 * np.abs(a).max(axis=0))
    states = [load_state(str(tmp_path / name / "out" / "gpm_state.txt"))
              for name in ("as_is", "switched")]
    assert states[0].ranks() == states[1].ranks()
    for x, y in zip(states[0].layers, states[1].layers):
        assert np.abs(x.m @ x.m.T - y.m @ y.m.T).max() <= 1e-14


def test_precedence_defaults_file_set_flags(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("eta = 0.5\nseed = 1\nepochs = 7\n")
    values = resolve_config(str(cfg), ["eta=0.25", "seed=2"], {"seed": "3"})
    assert values["eta"] == 0.25  # --set beats the file
    assert values["seed"] == 3  # dedicated flag beats --set
    assert values["epochs"] == 7  # file beats the default
    assert values["batch_size"] == 16  # untouched default


def test_later_set_override_wins(tmp_path):
    values = resolve_config(None, ["eta=0.3", "eta=0.4"], {})
    assert values["eta"] == 0.4


def test_sectioned_config_file_merges(tmp_path):
    cfg = tmp_path / "sections.ini"
    cfg.write_text("[data]\ntasks = 3\n[training]\neta = 0.2\n")
    values = resolve_config(str(cfg), [], {})
    assert values["tasks"] == 3
    assert values["eta"] == 0.2


def test_duplicate_key_across_sections_rejected(tmp_path):
    """A key set twice, in two sections or in a file without a section
    header, and a malformed sectionless line stop the CLI naming the file;
    a sectionless file is one section, counted by its own lines."""
    cfg = tmp_path / "dup.ini"
    for text, cause in (
        ("[a]\neta = 0.1\n[b]\neta = 0.2\n",
         "duplicate config key 'eta' (seen again in section b)"),
        ("eta = 0.1\neta = 0.2\n",
         f"cannot parse config file {cfg}: While reading from '{cfg}' [line  2]: "
         "option 'eta' in section 'run' already exists"),
        ("eta = 0.1\nepochs\n",
         f"cannot parse config file {cfg}: Source contains parsing errors: '{cfg}'"
         "\n\t[line  2]: 'epochs\\n'"),
    ):
        cfg.write_text(text)
        with pytest.raises(ConfigError) as caught:
            resolve_config(str(cfg), [], {})
        assert str(caught.value) == cause


def test_missing_config_file_is_an_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        resolve_config(str(tmp_path / "nope.ini"), [], {})


def test_data_seed_defaults_to_run_seed():
    values = resolve_config(None, ["seed=9", "tasks=1", "samples_per_class=4"], {})
    seq = _build_sequence(values)
    want = generate_synthetic_sequence(1, 2, 16, 4, 9, separation=4.0)
    assert np.array_equal(seq[0].train_x, want[0].train_x)
    values = resolve_config(
        None, ["seed=9", "data_seed=2", "tasks=1", "samples_per_class=4"], {}
    )
    other = _build_sequence(values)
    assert not np.array_equal(other[0].train_x, want[0].train_x)


def _save_sequence_csvs(tmp_path, tasks=2):
    seq = generate_synthetic_sequence(tasks, 2, 8, 10, 5, separation=4.0)
    paths = []
    for t, ds in enumerate(seq):
        path = tmp_path / f"task{t}.csv"
        save_csv_dataset(ds, str(path))
        paths.append(str(path))
    return paths


def test_run_from_csv_datasets(tmp_path, capsys):
    paths = _save_sequence_csvs(tmp_path)
    out = tmp_path / "csvrun"
    rc = main([
        "run",
        "--method", "dewc",
        "--agents", "2",
        "--topology", "ring",
        "--tasks", "2",
        "--seed", "1",
        "--out", str(out),
        "--set", f"dataset_path={paths[0]},{paths[1]}",
        "--set", "input_dim=8",
        "--set", "dims=8,16,8",
        "--set", "epochs=2",
        "--set", "batch_size=8",
    ])
    capsys.readouterr()
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["method"] == "dewc"
    assert len(summary["final_accuracies_percent"]) == 2


def test_csv_tasks_may_have_different_class_counts(tmp_path, capsys):
    """A 2-class and a 3-class CSV task train in one run, each with its own
    head, and both tasks' cells of the accuracy matrix are filled."""
    two = generate_synthetic_sequence(1, 2, 8, 10, 5, separation=4.0)[0]
    three = generate_synthetic_sequence(1, 3, 8, 10, 6, separation=4.0)[0]
    three = dataclasses.replace(three, classes=[2, 3, 4])  # class-disjoint
    paths = [str(tmp_path / "two.csv"), str(tmp_path / "three.csv")]
    for ds, path in zip((two, three), paths):
        save_csv_dataset(ds, path)
    out = tmp_path / "mixed"
    rc = main([
        "run",
        "--agents", "2",
        "--tasks", "2",
        "--out", str(out),
        "--set", f"dataset_path={paths[0]},{paths[1]}",
        "--set", "input_dim=8",
        "--set", "dims=8,16,8",
    ])
    capsys.readouterr()
    assert rc == 0
    rows = (out / "accuracy_matrix.csv").read_text().splitlines()
    assert rows[0] == "after_task,task_0,task_1"
    cells = [row.split(",")[1:] for row in rows[1:]]
    assert cells[0][1] == ""  # task 1 is not measured before it trains
    for value in (cells[0][0], *cells[1]):
        assert 0.0 <= float(value) <= 100.0


def test_dataset_path_count_must_match_tasks(tmp_path, capsys):
    paths = _save_sequence_csvs(tmp_path, tasks=1)
    rc = main(["validate", "--tasks", "2", "--set", f"dataset_path={paths[0]}"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "1 files for 2 tasks" in err


def test_reused_class_labels_rejected(tmp_path, capsys):
    paths = _save_sequence_csvs(tmp_path, tasks=1)
    out = tmp_path / "overlap"
    rc = main([
        "run",
        "--tasks", "2",
        "--agents", "2",
        "--out", str(out),
        "--set", f"dataset_path={paths[0]},{paths[0]}",
        "--set", "input_dim=8",
        "--set", "dims=8,16,8",
    ])
    err = capsys.readouterr().err
    assert rc == 1
    assert "class labels" in err


def test_an_unreadable_or_malformed_dataset_names_dataset_path(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    textual = tmp_path / "textual.csv"
    textual.write_text("0,1.0,2.0\n1,x,4.0\n")
    for path, where, cause in (
        (missing, f"{missing}", "No such file or directory"),
        (textual, f"{textual}:2", "non-numeric feature"),
    ):
        rc = main([
            "validate", "--tasks", "1", "--set", f"dataset_path={path}",
            "--set", "input_dim=2", "--set", "dims=2,4",
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"error: config key 'dataset_path': dataset {where}: {cause}\n", err


def test_dims_must_match_input_dim(capsys):
    rc = main(["validate", "--set", "dims=8,16,8"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "input_dim" in err


def test_csv_width_other_than_input_dim_rejected(tmp_path, capsys):
    paths = _save_sequence_csvs(tmp_path)  # 8 features; input_dim is 16
    rc = main(["validate", "--tasks", "2", "--set", f"dataset_path={paths[0]},{paths[1]}"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "task 0 has train features of shape (16, 8), not (rows, 16)" in err
