"""Accuracy summaries, compression ratios, and report files."""

import csv
import json

import numpy as np
import pytest

from reference import write_rounds


from dccl.metrics import (
    acc,
    bwt,
    compression,
    diagonal_mean,
    emit_reports,
    per_layer_compression,
)
from dccl.tasks import generate_synthetic_sequence
from dccl.topology import Topology
from dccl.trainer import RunResult, TaskComm, TrainConfig, run


def _matrix(rows):
    m = np.full((len(rows), len(rows)), np.nan)
    for t, row in enumerate(rows):
        m[t, : len(row)] = row
    return m


def test_acc_is_mean_of_last_row():
    assert acc(_matrix([[0.9]])) == pytest.approx(0.9)
    assert acc(_matrix([[0.5], [0.8, 0.6]])) == pytest.approx(0.7)


def test_acc_requires_complete_matrix():
    m = np.full((2, 2), np.nan)
    m[0, 0] = 0.5
    with pytest.raises(ValueError):
        acc(m)


def test_bwt_reference_example():
    assert bwt(_matrix([[0.8], [0.7, 0.9]])) == pytest.approx(-0.1)


def test_bwt_zero_when_nothing_forgotten():
    assert bwt(_matrix([[0.8], [0.8, 0.9]])) == pytest.approx(0.0)


def test_bwt_needs_two_tasks():
    with pytest.raises(ValueError):
        bwt(_matrix([[0.9]]))


def test_diagonal_mean():
    m = np.full((2, 2), np.nan)
    np.fill_diagonal(m, [0.8, 0.6])
    assert diagonal_mean(m) == pytest.approx(0.7)
    m[1, 1] = np.nan
    with pytest.raises(ValueError):
        diagonal_mean(m)


def _ledger_single_layer(full, actual, extra=0, over_full=0, over_actual=0):
    return [
        TaskComm(
            task=0,
            layer_full=[full],
            layer_actual=[actual],
            extra_scalars=extra,
            overhead_full=over_full,
            overhead_actual=over_actual,
        )
    ]


def test_compression_ratio_closed_form():
    # one layer of width 10 with rank 5 memory: exactly 2x
    ledger = _ledger_single_layer(full=10 * 7, actual=5 * 7)
    assert compression(ledger)["pure_subspace"]["overall"] == 2.0
    assert per_layer_compression(ledger) == [[2.0]]


def test_compression_ratio_all_inclusive_adds_overhead_to_both_sides():
    ledger = _ledger_single_layer(full=100, actual=50, extra=10, over_full=40, over_actual=40)
    block = compression(ledger)
    assert block["pure_subspace"]["overall"] == 2.0
    assert block["all_inclusive"]["overall"] == pytest.approx(150.0 / 100.0)


def test_compression_is_null_where_a_task_sent_nothing():
    ledger = [
        TaskComm(task=t, layer_full=[10], layer_actual=[a], overhead_full=4, overhead_actual=4)
        for t, a in enumerate([10, 0])
    ]
    block = compression(ledger)
    # one silent task leaves its variant's per-task list and overall ratio null
    assert block["pure_subspace"] == {"overall": None, "per_task": None}
    assert block["all_inclusive"] == {"overall": 28 / 18, "per_task": [1.0, 14 / 4]}
    assert compression([]) == {
        variant: {"overall": None, "per_task": []}
        for variant in ("pure_subspace", "all_inclusive")
    }


def test_per_task_scope_returns_a_list():
    ledger = [
        TaskComm(task=0, layer_full=[40], layer_actual=[40]),
        TaskComm(task=1, layer_full=[40], layer_actual=[20]),
    ]
    assert compression(ledger)["pure_subspace"]["per_task"] == [1.0, 2.0]


def _result(matrix, ledger, method="codec", loss=(), mu=(), ce=()):
    """A one-agent ``RunResult`` with one round per entry of ``loss``."""
    return RunResult(
        method=method,
        accuracy=matrix,
        ledger=ledger,
        loss=np.array(loss, dtype=float).reshape(-1, 1),
        mu=np.array(mu, dtype=float).reshape(-1, 1),
        consensus_error=np.array(ce, dtype=float),
        final_params=np.zeros(1),
        gpm=None,
    )


def _tiny_run():
    matrix = _matrix([[0.5], [0.75, 1.0]])
    ledger = [
        TaskComm(task=0, layer_full=[8], layer_actual=[8], rounds=1, scalars_sent=(10,),
                 extra_scalars=2, overhead_full=4, overhead_actual=4),
        TaskComm(task=1, layer_full=[8], layer_actual=[4], rounds=1, scalars_sent=(6,),
                 extra_scalars=2, overhead_full=4, overhead_actual=4),
    ]
    return _result(matrix, ledger, loss=[0.7, 0.6], mu=[1.0, 0.5], ce=[0.1, 0.05])


def test_emit_reports_files_and_summary(tmp_path):
    out = tmp_path / "out"
    summary = emit_reports(_tiny_run(), str(out), seed=5, config_echo={"eta": 0.1})
    rounds = (out / "rounds.csv").read_text().splitlines()
    assert rounds == [
        "task,round,agent,loss,consensus_error,mu,scalars_sent",
        "0,0,0,0.7,0.1,1.0,10",
        "1,0,0,0.6,0.05,0.5,6",
    ]
    grid = (out / "accuracy_matrix.csv").read_text().splitlines()
    assert grid[0] == "after_task,task_0,task_1"
    assert grid[1] == "0,50.000000,"
    assert grid[2] == "1,75.000000,100.000000"
    parsed = json.loads((out / "summary.json").read_text())
    assert parsed == json.loads(json.dumps(summary))
    assert parsed["accuracy_percent"] == pytest.approx(87.5)
    assert parsed["bwt_percent"] == pytest.approx(25.0)
    assert parsed["mu"]["min"] == 0.5
    assert parsed["config"] == {"eta": 0.1}
    assert parsed["compression"]["pure_subspace"]["per_task"] == [1.0, 2.0]
    assert not (out / "gpm_state.txt").exists()


def test_emit_reports_is_byte_deterministic(tmp_path):
    result = _tiny_run()
    a = tmp_path / "a"
    b = tmp_path / "b"
    emit_reports(result, str(a), seed=5, config_echo={})
    emit_reports(result, str(b), seed=5, config_echo={})
    for name in ("rounds.csv", "accuracy_matrix.csv", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_emit_reports_empty_logs_headers_only(tmp_path):
    matrix = _matrix([[0.5]])
    ledger = [TaskComm(task=0, layer_full=[4], layer_actual=[4])]
    out = tmp_path / "empty"
    summary = emit_reports(_result(matrix, ledger), str(out), seed=0, config_echo={})
    rounds = (out / "rounds.csv").read_text().splitlines()
    assert rounds == ["task,round,agent,loss,consensus_error,mu,scalars_sent"]
    assert summary["mu"]["min"] is None
    assert summary["bwt_percent"] is None


def test_emit_reports_stl_uses_diagonal(tmp_path):
    matrix = np.full((2, 2), np.nan)
    matrix[0, 0], matrix[1, 1] = 0.8, 0.9
    ledger = [TaskComm(task=0, layer_full=[4], layer_actual=[4])]
    result = _result(matrix, ledger, method="stl")
    summary = emit_reports(result, str(tmp_path / "stl"), seed=0, config_echo={})
    assert summary["accuracy_percent"] == pytest.approx(85.0)
    assert summary["bwt_percent"] is None


def test_report_files_agree_with_each_other_and_the_ledger(tmp_path):
    # a path graph 0 - 1 - 2: the middle agent sends twice what the ends do
    path = Topology("custom", 3, adjacency=np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]))
    cfg = TrainConfig(
        eta=0.1,
        epochs=1,
        batch_size=8,
        eps_base=0.95,
        eps_increment=0.003,
        topology=path,
        seed=2,
        method="codec",
        lam=5000.0,
        dims=[16, 32, 16],
        rep_samples=16,
        debug_checks=False,
    )
    result = run(cfg, generate_synthetic_sequence(2, 2, 16, 30, 1))
    out = tmp_path / "agree"
    emit_reports(result, str(out), seed=2, config_echo={})
    with open(out / "rounds.csv", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 3 * sum(entry.rounds for entry in result.ledger)
    mus = [float(row["mu"]) for row in rows]
    written = json.loads((out / "summary.json").read_text())["mu"]
    assert written == {"min": min(mus), "max": max(mus), "mean": float(np.mean(mus))}
    assert written["min"] < 1.0  # task 1 projects
    for entry in result.ledger:
        sent = [int(row["scalars_sent"]) for row in rows if int(row["task"]) == entry.task]
        assert sent == list(entry.scalars_sent) * entry.rounds
    assert result.ledger[0].scalars_sent[1] == 2 * result.ledger[0].scalars_sent[0]


def test_rounds_csv_is_the_per_row_writer_byte_for_byte(tmp_path):
    # a ring of 0, 1, 2 with agent 3 hung on agent 0: fan-outs 3, 2, 2, 1
    adj = np.array([[0, 1, 1, 1], [1, 0, 1, 0], [1, 1, 0, 0], [1, 0, 0, 0]])
    cfg = TrainConfig(
        eta=0.1,
        epochs=1,
        batch_size=8,
        eps_base=0.95,
        eps_increment=0.003,
        topology=Topology("custom", 4, adjacency=adj),
        seed=3,
        method="codec",
        lam=5000.0,
        dims=[16, 32, 16],
        rep_samples=16,
        debug_checks=False,
    )
    result = run(cfg, generate_synthetic_sequence(3, 2, 16, 30, 3))
    assert [len(set(e.scalars_sent)) for e in result.ledger] == [3, 3, 3]
    emit_reports(result, str(tmp_path / "out"), seed=3, config_echo={})
    write_rounds(result, tmp_path / "want.csv")
    got = (tmp_path / "out" / "rounds.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    assert got.count(b"\n") == 1 + 4 * sum(e.rounds for e in result.ledger)
