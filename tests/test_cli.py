"""End-to-end command line behaviour, config precedence, and report files."""

import dataclasses
import json
import logging
import re

import numpy as np
import pytest

import dccl.trainer
from dccl.cli import ConfigError, main, resolve_config, _build_sequence
from dccl.tasks import generate_synthetic_sequence, save_csv_dataset


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
    assert "outside (0, 1)" in err


def test_validate_rejects_grid_agent_mismatch(capsys):
    rc = main(["validate", "--topology", "torus:3x3", "--agents", "8"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "9" in err


@pytest.mark.parametrize(
    "args, cause",
    [
        (["--set", "classes_per_task=1"], "classes_per_task >= 2"),
        (["--set", "samples_per_class=1"], "per_class >= 2"),
        (["--agents", "200"], "task 0 has 160 training samples, fewer than 200 agents"),
    ],
    ids=["one-class", "one-sample", "more-agents-than-samples"],
)
def test_validate_rejects_what_run_rejects_before_training(
    tmp_path, capsys, args, cause
):
    out = tmp_path / "out"
    for command in ("validate", "run"):
        rc = main([command, "--topology", "full", "--out", str(out), *args])
        err = capsys.readouterr().err
        assert rc == 1, command
        assert cause in err, command
    assert not out.exists()


def test_unknown_method_and_key_are_rejected(capsys):
    rc = main(["validate", "--set", "method=foo"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "method" in err
    rc = main(["validate", "--set", "bogus=1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "bogus" in err
    rc = main(["validate", "--set", "eta"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "key=value" in err


def test_bad_value_names_the_key(capsys):
    rc = main(["validate", "--set", "agents=zero"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "agents" in err and "zero" in err


@pytest.mark.parametrize(
    "key, value",
    [("eta", "nan"), ("eta", "inf"), ("separation", "nan"), ("lambda", "inf")],
)
def test_non_finite_floats_are_rejected_by_name(tmp_path, capsys, key, value):
    out = tmp_path / "out"
    for command in ("validate", "run"):
        rc = main([command, "--out", str(out), "--set", f"{key}={value}"])
        err = capsys.readouterr().err
        assert rc == 1, command
        assert f"config key '{key}'" in err and "finite" in err, command
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
        "--tasks", "3", "--out", str(out), "--set", "use_bias=true",
        "--set", "lr_decay=true", "--set", "debug_checks=true",
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
    cfg = tmp_path / "dup.ini"
    cfg.write_text("[a]\neta = 0.1\n[b]\neta = 0.2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        resolve_config(str(cfg), [], {})


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
