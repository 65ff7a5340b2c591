"""Accuracy summaries, compression ratios, and report files."""

import json

import pytest

from dccl.metrics import (
    AccuracyMatrix,
    acc,
    bwt,
    compression_ratio,
    diagonal_mean,
    emit_reports,
    per_layer_compression,
)
from dccl.trainer import LogRecord, TaskComm


def _matrix(rows):
    m = AccuracyMatrix(len(rows))
    for t, row in enumerate(rows):
        for i, v in enumerate(row):
            m.set(t, i, v)
    return m


def test_acc_is_mean_of_last_row():
    assert acc(_matrix([[0.9]])) == pytest.approx(0.9)
    assert acc(_matrix([[0.5], [0.8, 0.6]])) == pytest.approx(0.7)


def test_acc_requires_complete_matrix():
    m = AccuracyMatrix(2)
    m.set(0, 0, 0.5)
    with pytest.raises(ValueError):
        acc(m)


def test_bwt_reference_example():
    assert bwt(_matrix([[0.8], [0.7, 0.9]])) == pytest.approx(-0.1)


def test_bwt_zero_when_nothing_forgotten():
    assert bwt(_matrix([[0.8], [0.8, 0.9]])) == pytest.approx(0.0)


def test_bwt_needs_two_tasks():
    with pytest.raises(ValueError):
        bwt(_matrix([[0.9]]))


def test_matrix_rejects_bad_cells():
    m = AccuracyMatrix(2)
    with pytest.raises(ValueError):
        m.set(0, 1, 0.5)
    with pytest.raises(ValueError):
        m.set(1, 0, 1.5)


def test_diagonal_mean():
    m = AccuracyMatrix(2)
    m.set(0, 0, 0.8)
    m.set(1, 1, 0.6)
    assert diagonal_mean(m) == pytest.approx(0.7)


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
    assert compression_ratio(ledger, "overall", "pure_subspace") == 2.0
    assert per_layer_compression(ledger) == [[2.0]]


def test_compression_ratio_all_inclusive_adds_overhead_to_both_sides():
    ledger = _ledger_single_layer(full=100, actual=50, extra=10, over_full=40, over_actual=40)
    assert compression_ratio(ledger, "overall", "pure_subspace") == 2.0
    got = compression_ratio(ledger, "overall", "all_inclusive")
    assert got == pytest.approx(150.0 / 100.0)


def test_compression_ratio_rejects_zero_actual_and_bad_args():
    ledger = _ledger_single_layer(full=10, actual=0)
    with pytest.raises(ValueError):
        compression_ratio(ledger, "overall", "pure_subspace")
    ok = _ledger_single_layer(full=10, actual=10)
    with pytest.raises(ValueError):
        compression_ratio(ok, "weekly")
    with pytest.raises(ValueError):
        compression_ratio(ok, "overall", "optimistic")


def test_per_task_scope_returns_a_list():
    ledger = [
        TaskComm(task=0, layer_full=[40], layer_actual=[40]),
        TaskComm(task=1, layer_full=[40], layer_actual=[20]),
    ]
    assert compression_ratio(ledger, "per_task", "pure_subspace") == [1.0, 2.0]


def _tiny_run():
    matrix = _matrix([[0.5], [0.75, 1.0]])
    ledger = [
        TaskComm(task=0, layer_full=[8], layer_actual=[8], extra_scalars=2,
                 overhead_full=4, overhead_actual=4),
        TaskComm(task=1, layer_full=[8], layer_actual=[4], extra_scalars=2,
                 overhead_full=4, overhead_actual=4),
    ]
    logs = [
        LogRecord(task=0, round=0, agent=0, loss=0.7, ce=0.1, mu=1.0, scalars_sent=10),
        LogRecord(task=1, round=0, agent=0, loss=0.6, ce=0.05, mu=0.5, scalars_sent=6),
    ]
    return matrix, ledger, logs


def test_emit_reports_files_and_summary(tmp_path):
    matrix, ledger, logs = _tiny_run()
    out = tmp_path / "out"
    summary = emit_reports(
        matrix, ledger, logs, str(out), method="codec", seed=5, config_echo={"eta": 0.1}
    )
    rounds = (out / "rounds.csv").read_text().splitlines()
    assert rounds[0] == "task,round,agent,loss,consensus_error,mu,scalars_sent"
    assert len(rounds) == 3
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


def test_emit_reports_is_byte_deterministic(tmp_path):
    matrix, ledger, logs = _tiny_run()
    a = tmp_path / "a"
    b = tmp_path / "b"
    emit_reports(matrix, ledger, logs, str(a), method="codec", seed=5, config_echo={})
    emit_reports(matrix, ledger, logs, str(b), method="codec", seed=5, config_echo={})
    for name in ("rounds.csv", "accuracy_matrix.csv", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_emit_reports_empty_logs_headers_only(tmp_path):
    matrix = _matrix([[0.5]])
    ledger = [TaskComm(task=0, layer_full=[4], layer_actual=[4])]
    out = tmp_path / "empty"
    summary = emit_reports(
        matrix, ledger, [], str(out), method="codec", seed=0, config_echo={}
    )
    rounds = (out / "rounds.csv").read_text().splitlines()
    assert rounds == ["task,round,agent,loss,consensus_error,mu,scalars_sent"]
    assert summary["mu"]["min"] is None
    assert summary["bwt_percent"] is None


def test_emit_reports_stl_uses_diagonal(tmp_path):
    matrix = AccuracyMatrix(2)
    matrix.set(0, 0, 0.8)
    matrix.set(1, 1, 0.9)
    ledger = [TaskComm(task=0, layer_full=[4], layer_actual=[4])]
    summary = emit_reports(
        matrix, ledger, [], str(tmp_path / "stl"), method="stl", seed=0, config_echo={}
    )
    assert summary["accuracy_percent"] == pytest.approx(85.0)
    assert summary["bwt_percent"] is None
