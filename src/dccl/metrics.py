"""Continual-learning metrics and deterministic report files.

Accuracies are kept as fractions in memory and rendered as percentages in
every report.  Report writers use fixed formatting and sorted JSON keys so
re-running the same configuration reproduces byte-identical files.
"""

from __future__ import annotations

import json
import os

import numpy as np


class AccuracyMatrix:
    """Lower-triangular matrix; entry (t, i) is task-i accuracy after task t."""

    def __init__(self, t: int):
        if t < 1:
            raise ValueError("need at least one task")
        self.t = t
        self._a = np.full((t, t), np.nan)

    def set(self, after_task: int, task: int, value: float) -> None:
        if not 0 <= task <= after_task < self.t:
            raise ValueError(f"bad cell ({after_task}, {task}) for {self.t} tasks")
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"accuracy {value} outside [0, 1]")
        self._a[after_task, task] = value

    def get(self, after_task: int, task: int) -> float:
        return float(self._a[after_task, task])

    @property
    def complete(self) -> bool:
        return not any(
            np.isnan(self._a[t, i]) for t in range(self.t) for i in range(t + 1)
        )

    @property
    def diagonal_complete(self) -> bool:
        return not any(np.isnan(self._a[t, t]) for t in range(self.t))

    def last_row(self) -> list[float]:
        return [float(v) for v in self._a[self.t - 1, :]]

    def diagonal(self) -> list[float]:
        return [float(self._a[t, t]) for t in range(self.t)]


def acc(matrix: AccuracyMatrix) -> float:
    """Mean final accuracy over all tasks (the last matrix row)."""
    if not matrix.complete:
        raise ValueError("accuracy matrix is incomplete")
    return float(np.mean(matrix.last_row()))


def bwt(matrix: AccuracyMatrix) -> float:
    """Mean drop from just-trained to final accuracy; needs at least 2 tasks."""
    if matrix.t < 2:
        raise ValueError("backward transfer needs at least two tasks")
    if not matrix.complete:
        raise ValueError("accuracy matrix is incomplete")
    last = matrix.last_row()
    diag = matrix.diagonal()
    return float(np.mean([last[i] - diag[i] for i in range(matrix.t - 1)]))


def diagonal_mean(matrix: AccuracyMatrix) -> float:
    """Mean of just-trained accuracies; the natural summary for per-task models."""
    if not matrix.diagonal_complete:
        raise ValueError("diagonal is incomplete")
    return float(np.mean(matrix.diagonal()))


def _task_totals(entry, variant: str) -> tuple[int, int]:
    full = sum(entry.layer_full)
    actual = sum(entry.layer_actual)
    if variant == "all_inclusive":
        full += entry.extra_scalars + entry.overhead_full
        actual += entry.extra_scalars + entry.overhead_actual
    elif variant != "pure_subspace":
        raise ValueError(f"unknown compression variant {variant!r}")
    return full, actual


def compression_ratio(ledger, scope: str = "overall", variant: str = "pure_subspace"):
    """Communication compression: full-communication scalars over actual.

    ``pure_subspace`` counts trunk update payloads only; ``all_inclusive``
    adds head/bias deltas and protocol overhead (boundary synchronization
    and basis or Fisher broadcasts) to both sides.
    """
    per_task = []
    for entry in ledger:
        full, actual = _task_totals(entry, variant)
        if actual == 0:
            raise ValueError(f"task {entry.task} sent zero scalars; ratio undefined")
        per_task.append(full / actual)
    if scope == "per_task":
        return per_task
    if scope == "overall":
        full = sum(_task_totals(e, variant)[0] for e in ledger)
        actual = sum(_task_totals(e, variant)[1] for e in ledger)
        if actual == 0:
            raise ValueError("ledger records zero scalars sent; ratio undefined")
        return full / actual
    raise ValueError(f"unknown scope {scope!r}")


def per_layer_compression(ledger) -> list[list[float | None]]:
    """Per task, per trunk layer: full/actual scalar ratio, None if untransmitted."""
    out = []
    for entry in ledger:
        row = []
        for full, actual in zip(entry.layer_full, entry.layer_actual):
            row.append(full / actual if actual else None)
        out.append(row)
    return out


def _fmt_percent(fraction: float) -> str:
    return f"{fraction * 100.0:.6f}"


def emit_reports(
    matrix: AccuracyMatrix,
    ledger,
    logs,
    out_dir: str,
    *,
    method: str,
    seed: int,
    config_echo: dict,
) -> dict:
    """Write rounds.csv, accuracy_matrix.csv and summary.json under out_dir."""
    os.makedirs(out_dir, exist_ok=True)

    with open(os.path.join(out_dir, "rounds.csv"), "w", encoding="utf-8") as handle:
        handle.write("task,round,agent,loss,consensus_error,mu,scalars_sent\n")
        for rec in logs:
            handle.write(
                f"{rec.task},{rec.round},{rec.agent},{float(rec.loss)!r},"
                f"{float(rec.ce)!r},{float(rec.mu)!r},{rec.scalars_sent}\n"
            )

    with open(
        os.path.join(out_dir, "accuracy_matrix.csv"), "w", encoding="utf-8"
    ) as handle:
        header = "after_task," + ",".join(f"task_{i}" for i in range(matrix.t))
        handle.write(header + "\n")
        for t in range(matrix.t):
            cells = []
            for i in range(matrix.t):
                v = matrix.get(t, i)
                cells.append("" if np.isnan(v) else _fmt_percent(v))
            handle.write(f"{t}," + ",".join(cells) + "\n")

    if method == "stl":
        accuracy = diagonal_mean(matrix) if matrix.diagonal_complete else None
        backward = None
    else:
        accuracy = acc(matrix) if matrix.complete else None
        backward = (
            bwt(matrix) if matrix.t >= 2 and matrix.complete else None
        )

    def _maybe_ratio(scope, variant):
        try:
            return compression_ratio(ledger, scope, variant)
        except ValueError:
            return None

    mus = [float(rec.mu) for rec in logs]
    mu_stats = {
        "min": min(mus) if mus else None,
        "max": max(mus) if mus else None,
        "mean": float(np.mean(mus)) if mus else None,
    }

    summary = {
        "schema_version": 1,
        "method": method,
        "seed": seed,
        "accuracy_percent": None if accuracy is None else accuracy * 100.0,
        "bwt_percent": None if backward is None else backward * 100.0,
        "final_accuracies_percent": [
            None if np.isnan(v) else v * 100.0 for v in matrix.last_row()
        ],
        "compression": {
            "pure_subspace": {
                "overall": _maybe_ratio("overall", "pure_subspace"),
                "per_task": _maybe_ratio("per_task", "pure_subspace"),
            },
            "all_inclusive": {
                "overall": _maybe_ratio("overall", "all_inclusive"),
                "per_task": _maybe_ratio("per_task", "all_inclusive"),
            },
        },
        "per_layer_compression": per_layer_compression(ledger),
        "mu": mu_stats,
        "config": config_echo,
    }
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return summary
