"""CoDeC's evaluation: continual-learning metrics, the ledger that prices
each task's traffic as sent and as it would go raw, and deterministic
report files.

Accuracies are kept as fractions in memory and rendered as percentages in
every report.  Report writers use fixed formatting and sorted JSON keys so
re-running the same configuration reproduces byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .gpm import GpmState, save_state
from .model import Mlp, param_arrays


def _check_complete(cells: np.ndarray) -> None:
    if cells.size == 0:
        raise ValueError("need at least one task")
    if np.isnan(cells).any():
        raise ValueError("accuracy matrix is incomplete")


def acc(matrix: np.ndarray) -> float:
    """Mean final accuracy over all tasks: the last row of the ``(T, T)``
    accuracy array, whose ``[t, i]`` is task i's accuracy after task t."""
    _check_complete(matrix[np.tril_indices(len(matrix))])
    return float(np.mean(matrix[-1]))


def bwt(matrix: np.ndarray) -> float:
    """Mean drop from just-trained to final accuracy; needs at least 2 tasks."""
    if len(matrix) < 2:
        raise ValueError("backward transfer needs at least two tasks")
    _check_complete(matrix[np.tril_indices(len(matrix))])
    return float(np.mean(matrix[-1, :-1] - np.diag(matrix)[:-1]))


def diagonal_mean(matrix: np.ndarray) -> float:
    """Mean of just-trained accuracies; the natural summary for per-task models."""
    diag = np.diag(matrix)
    _check_complete(diag)
    return float(np.mean(diag))


@dataclass(frozen=True)
class TaskComm:
    """Scalars one task sent, full and actual: each trunk layer's round
    payloads, the raw head, and the boundary phases' overhead;
    ``scalars_sent`` holds what each agent sent in one round."""

    task: int
    layer_full: list[int]
    layer_actual: list[int]
    rounds: int = 0
    scalars_sent: tuple[int, ...] = ()
    extra_scalars: int = 0
    overhead_actual: int = 0
    overhead_full: int = 0


def fanout(w: np.ndarray) -> np.ndarray:
    """Receivers per sender: the positive off-diagonal weights of its column."""
    return np.count_nonzero(w > 0.0, axis=0) - (np.diag(w) > 0.0)


def price_task(
    model: Mlp,
    memory: GpmState,
    task: int,
    method: str,
    sizes: list[int],
    rounds: int,
    receivers: np.ndarray,
) -> TaskComm:
    """Task ``task``'s record, priced once its boundary phases ran, from the
    scalars one message carries per array of ``task_params`` while the task
    trained, its rounds and each agent's ``receivers`` (``fanout``)."""
    n = model.lead[0]
    n_layers = len(model.layers)
    sent = rounds * int(receivers.sum())
    # the boundary sync sends every agent's whole model
    fixed = n * sum(a[0].size for a in param_arrays(model))
    if method == "dewc":  # the trunk Fisher diagonal, gathered and sent back
        fixed += 2 * (n - 1) * sum(p[0].size for p in model.layers)
    basis = actual = 0
    if method == "codec":  # the grown memory, with its complement to decode by
        basis = (n - 1) * sum(b.dim * b.rank for b in memory.layers)
        actual = (n - 1) * sum(b.dim * b.dim for b in memory.layers)
    return TaskComm(
        task=task,
        layer_full=[sent * x[0].size for x in model.layers],
        layer_actual=[sent * s for s in sizes[:n_layers]],
        rounds=rounds,
        scalars_sent=tuple(sum(sizes) * int(k) for k in receivers),
        extra_scalars=sent * sum(sizes[n_layers:]),
        overhead_actual=fixed + actual,
        overhead_full=fixed + basis,
    )


def compression(ledger) -> dict:
    """The summary's compression block: full-communication scalars over
    actual, per task and overall, for two variants.

    ``pure_subspace`` counts trunk update payloads only; ``all_inclusive``
    adds head deltas and protocol overhead (boundary synchronization
    and basis or Fisher broadcasts) to both sides.  A variant's ratios are
    ``None`` if any task sent zero actual scalars in it.
    """
    pure = [(sum(e.layer_full), sum(e.layer_actual)) for e in ledger]
    inclusive = [
        (f + e.extra_scalars + e.overhead_full, a + e.extra_scalars + e.overhead_actual)
        for (f, a), e in zip(pure, ledger)
    ]
    block = {}
    for variant, totals in (("pure_subspace", pure), ("all_inclusive", inclusive)):
        defined = all(a for _, a in totals)
        full = sum(f for f, _ in totals)
        actual = sum(a for _, a in totals)
        block[variant] = {
            "overall": full / actual if defined and actual else None,
            "per_task": [f / a for f, a in totals] if defined else None,
        }
    return block


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


def emit_reports(result, out_dir: str, *, seed: int, config_echo: dict) -> dict:
    """Write a ``RunResult``'s rounds.csv, accuracy_matrix.csv, summary.json
    and, for a method with a memory, gpm_state.txt under out_dir; a
    gpm_state.txt left there by an earlier run is removed otherwise."""
    os.makedirs(out_dir, exist_ok=True)
    matrix, method = result.accuracy, result.method

    with open(os.path.join(out_dir, "rounds.csv"), "w", encoding="utf-8") as handle:
        handle.write("task,round,agent,loss,consensus_error,mu,scalars_sent\n")
        # one round's rows per write: no list of the whole run's values
        rows = zip(result.loss, result.mu, result.consensus_error.tolist())
        for entry in result.ledger:
            agents = [f"{i}," for i in range(len(entry.scalars_sent))]
            sent = [f",{s}\n" for s in entry.scalars_sent]
            for r, (losses, mus, ce) in zip(range(entry.rounds), rows):
                lead, ce = f"{entry.task},{r},", f",{ce!r},"
                values = zip(agents, losses.tolist(), mus.tolist(), sent)
                handle.write("".join([
                    f"{lead}{i}{loss!r}{ce}{mu!r}{s}" for i, loss, mu, s in values
                ]))

    with open(
        os.path.join(out_dir, "accuracy_matrix.csv"), "w", encoding="utf-8"
    ) as handle:
        header = "after_task," + ",".join(f"task_{i}" for i in range(len(matrix)))
        handle.write(header + "\n")
        for t, row in enumerate(matrix.tolist()):
            cells = ["" if math.isnan(v) else _fmt_percent(v) for v in row]
            handle.write(f"{t}," + ",".join(cells) + "\n")

    if method == "stl":
        accuracy, backward = diagonal_mean(matrix), None
    else:
        accuracy = acc(matrix)
        backward = bwt(matrix) if len(matrix) >= 2 else None

    mu = result.mu
    summary = {
        "schema_version": 1,
        "method": method,
        "seed": seed,
        "accuracy_percent": accuracy * 100.0,
        "bwt_percent": None if backward is None else backward * 100.0,
        "final_accuracies_percent": [
            None if math.isnan(v) else v * 100.0 for v in matrix[-1].tolist()
        ],
        "compression": compression(result.ledger),
        "per_layer_compression": per_layer_compression(result.ledger),
        "mu": {
            "min": float(mu.min()) if mu.size else None,
            "max": float(mu.max()) if mu.size else None,
            "mean": float(mu.mean()) if mu.size else None,
        },
        "config": config_echo,
    }
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")

    gpm_path = os.path.join(out_dir, "gpm_state.txt")
    if result.gpm is not None:
        save_state(result.gpm, gpm_path)
    elif os.path.exists(gpm_path):
        os.remove(gpm_path)
    return summary
