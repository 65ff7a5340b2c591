"""Benchmark of the dccl simulator, one workload per invocation.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 40 --trace 0

Every run is a fresh child process (`child.py`) that executes the real
`dccl run` CLI single-threaded on the workload's configuration and records
two instants: when the CLI calls into the trainer and when it returns.
The setup phase runs from process spawn to the trainer call (interpreter
start, imports, config resolution, data generation); the run phase from the
trainer call to the CLI's return (training, memory growth, evaluation,
reports).  `setup_s` and `run_s` are those phases' wall times at the host's
full speed: the wall time without the child's speed probes, times the mean
share of full speed the probes measured during the phase (`full_speed_s`).
The host is shared, and its speed drifts by up to 2x over minutes; raw wall
times are recorded and printed beside the adjusted ones.

The workload seed n fixes four run seeds, 4n .. 4n+3.  The first four runs
cover them in order and the loop then cycles through them again while one
more run still ends within `--seconds`, with at least one repeat, so each
invocation checks the byte-identity contract: a repeated run seed must
reproduce the report files of its first run exactly.  A run fails on a
non-zero exit, a missing or non-finite report value, report bytes that differ
from that first run, or a memory basis in `gpm_state.txt` that is not
orthonormal.  After every full run a setup-only run (it stops at the trainer
call) adds a `setup_s` sample.

With `--trace 0` the last line reports the end-to-end metrics: medians of
`run_s` and `setup_s`, the mean over the four run seeds of each seed's median
`peak_rss_mb`, and the mean over the four run seeds of `accuracy_percent`
and `compression_x` from `summary.json`.

With `--trace 1` untraced and traced runs of the first run seed alternate in
the same way, with at least one pair.
The traced child wraps every public function of every dccl module (see
`tracer.py`); the last line reports `<module>.<function>.<calls|self_s|
total_s>` medians over the traced runs, exact counts read from the untraced
report files, and `trace.overhead_s`, the traced minus the untraced median
`run_s`.  A metric whose function no longer exists reads 0 and is listed as
absent; this is not an error.

Outputs go under `.perfbench_work/` in the checkout; the full result of an
invocation, with provenance, is written to
`.perfbench_work/results/<workload>-seed<n>-trace<t>.json`.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

# One BLAS thread, set before numpy loads, for this process and every child:
# the speed probe samples the core the program runs on, and a second BLAS
# thread would run on a core whose speed nothing samples.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = ".perfbench_work"
OUT = os.path.join(WORK, "out")  # relative to ROOT: summary.json echoes --out
BUDGET_S = 170.0  # an invocation must end within 180 s
SEEDS_PER_RUN = 4
REPORT_FILES = ("summary.json", "rounds.csv", "accuracy_matrix.csv", "gpm_state.txt")
ORTHONORMAL_TOL = 1e-8

_WIDE_SHAPES = [
    "--topology", "torus:4x4", "--agents", "16", "--tasks", "5",
    "--set", "dims=64,256,128", "--set", "input_dim=64",
    "--set", "samples_per_class=400", "--set", "epochs=3",
    "--set", "rep_samples=32",
]
WORKLOADS = {
    "wide": ["--method", "codec", *_WIDE_SHAPES],
    "dewc": ["--method", "dewc", *_WIDE_SHAPES],
    "many": [
        "--method", "codec", "--topology", "ring", "--agents", "64",
        "--tasks", "5", "--set", "samples_per_class=800",
        "--set", "epochs=20", "--set", "rep_samples=16",
    ],
}
_STAT_INDEX = {"calls": 0, "total_s": 1, "self_s": 2}


class RunFailed(Exception):
    """A child run broke the workload's output contract."""


@dataclass
class Run:
    setup_s: float
    run_s: float
    rss_mb: float
    child: dict


@dataclass
class Invocation:
    """The child runs of one workload in one invocation."""

    argv: list[str]
    deadline: float
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    untraced: list[Run] = field(default_factory=list)
    traced: list[Run] = field(default_factory=list)
    hashes: dict[int, dict[str, str]] = field(default_factory=dict)
    reports: dict[int, dict] = field(default_factory=dict)
    rss_mb: dict[int, list[float]] = field(default_factory=dict)  # untraced, per seed

    def launch(self, seed: int, *, trace: bool = False, setup_only: bool = False):
        """Start one child, wait for it and check it; failures are counted."""
        self.attempted += 1
        try:
            run = self._launch(seed, trace, setup_only)
        except RunFailed as exc:
            self.failures.append(f"seed {seed}: {exc}")
            return
        if setup_only or not trace:
            self.setups.append(run.setup_s)
        if not setup_only:
            (self.traced if trace else self.untraced).append(run)
            if not trace:
                self.rss_mb.setdefault(seed, []).append(run.rss_mb)

    def _launch(self, seed: int, trace: bool, setup_only: bool) -> Run:
        shutil.rmtree(os.path.join(ROOT, OUT), ignore_errors=True)
        result_path = os.path.join(ROOT, WORK, "child.json")
        if os.path.exists(result_path):
            os.remove(result_path)
        spec = {
            "src": SRC,
            "argv": ["run", *self.argv, "--seed", str(seed), "--out", OUT],
            "result": result_path,
            "trace": trace,
            "setup_only": setup_only,
        }
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RunFailed("no time left in the invocation's budget")
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise RunFailed(f"timed out after {timeout:.0f} s") from None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            raise RunFailed(f"exit code {proc.returncode}: {' | '.join(tail)}")
        try:
            with open(result_path, encoding="utf-8") as handle:
                child = json.load(handle)
        except (OSError, ValueError) as exc:
            raise RunFailed(f"no timing record: {exc}") from None
        if "t_call" not in child:
            raise RunFailed("the CLI never called into the trainer")
        probe = child.get("probe", {})
        run = Run(
            setup_s=full_speed_s(child["t_call"] - t_spawn, probe.get("setup")),
            run_s=0.0 if setup_only else full_speed_s(
                child["t_end"] - child["t_call"], probe.get("run")),
            rss_mb=child["maxrss_kb"] / 1024.0,
            child=child,
        )
        if not setup_only:
            self._check_reports(seed, os.path.join(ROOT, OUT))
        return run

    def _check_reports(self, seed: int, out: str) -> None:
        hashes = {}
        for name in REPORT_FILES:
            path = os.path.join(out, name)
            if os.path.exists(path):
                with open(path, "rb") as handle:
                    hashes[name] = hashlib.sha256(handle.read()).hexdigest()
        first = self.hashes.get(seed)
        if first is not None:
            if hashes != first:
                changed = sorted(k for k in first.keys() | hashes.keys()
                                 if first.get(k) != hashes.get(k))
                raise RunFailed(f"report bytes differ from the first run: {changed}")
            return
        self.reports[seed] = read_reports(out)
        self.hashes[seed] = hashes


def full_speed_s(wall_s: float, probe: dict | None) -> float:
    """A phase's wall time without the probes, scaled to the host's full speed.

    `probe` is the child's record for the phase: `spent_s` seconds of probing
    and `factor`, the mean share of full speed the probes measured.
    """
    if not probe or not probe["count"]:
        raise RunFailed("the speed probe took no sample")
    return (wall_s - probe["spent_s"]) * probe["factor"]


def _finite(value, what: str) -> float:
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        raise RunFailed(f"{what} is missing or not finite: {value!r}")
    return float(value)


def read_reports(out: str) -> dict:
    """Check one run's report files and read the values the benchmark uses."""
    try:
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as handle:
            summary = json.load(handle)
        with open(os.path.join(out, "rounds.csv"), encoding="utf-8") as handle:
            header = handle.readline().strip().split(",")
            rows = [line.rstrip("\n").split(",") for line in handle]
    except (OSError, ValueError) as exc:
        raise RunFailed(f"cannot read reports: {exc}") from None
    config = summary.get("config", {})
    if config.get("threads", 1) != 1:
        raise RunFailed(f"run used threads={config.get('threads')}, expected 1")
    try:
        compression = summary["compression"]["all_inclusive"]["overall"]
    except (KeyError, TypeError):
        compression = None
    values = {
        "accuracy_percent": _finite(summary.get("accuracy_percent"), "accuracy_percent"),
        "bwt_percent": _finite(summary.get("bwt_percent"), "bwt_percent"),
        "compression_x": _finite(compression, "compression.all_inclusive.overall"),
    }
    col = {name: i for i, name in enumerate(header)}
    try:
        rounds = {(r[col["task"]], r[col["round"]]) for r in rows}
        agents = {r[col["agent"]] for r in rows}
        for r in rows:
            for name in ("loss", "consensus_error", "mu"):
                _finite(float(r[col[name]]), f"rounds.csv {name}")
        scalars = sum(int(r[col["scalars_sent"]]) for r in rows)
    except (KeyError, IndexError, ValueError) as exc:
        raise RunFailed(f"malformed rounds.csv: {exc}") from None
    if not rows or len(rows) != len(rounds) * len(agents):
        raise RunFailed(f"rounds.csv has {len(rows)} rows, not agents x rounds")
    counts = {
        "trainer.rounds": len(rounds),
        "trainer.scalars_sent": scalars,
        "train.samples": len(rows) * int(config.get("batch_size", 0)),
    }
    gpm_path = os.path.join(out, "gpm_state.txt")
    if os.path.exists(gpm_path):
        for width, rank in check_gpm_state(gpm_path):
            key = f"gpm.final_rank.n{width}"
            counts[key] = counts.get(key, 0) + rank
    elif summary.get("method") == "codec":
        raise RunFailed("codec run wrote no gpm_state.txt")
    return {"values": values, "counts": counts}


def check_gpm_state(path: str) -> list[tuple[int, int]]:
    """Parse the hex-float memory file; each [m | o] must be square orthogonal.

    Returns (input width, rank) per layer.
    """
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    layers = []
    try:
        pos = 2  # "gpm-state 1", "layers L"
        for _ in range(int(lines[1].split()[1])):
            _, _, _, width, _, rank = lines[pos].split()
            pos += 1
            blocks = []
            for _ in ("m", "o"):
                cols = int(lines[pos].split()[1])
                block = [[float.fromhex(v) for v in lines[pos + 1 + c].split()]
                         for c in range(cols)]
                blocks.append(np.array(block).reshape(cols, int(width)))
                pos += 1 + cols
            q = np.concatenate(blocks).T
            if q.shape != (int(width), int(width)):
                raise RunFailed(f"gpm_state.txt layer basis has shape {q.shape}")
            defect = float(np.max(np.abs(q.T @ q - np.eye(int(width)))))
            if defect > ORTHONORMAL_TOL:
                raise RunFailed(f"gpm_state.txt basis is not orthonormal ({defect:.2e})")
            layers.append((int(width), int(rank)))
    except (IndexError, ValueError) as exc:
        raise RunFailed(f"malformed gpm_state.txt: {exc}") from None
    return layers


def run_seeds(seed: int) -> list[int]:
    return [SEEDS_PER_RUN * seed + i for i in range(SEEDS_PER_RUN)]


def _repeat(step, min_steps: int, seconds: float, deadline: float) -> None:
    """Call step(0), step(1), ...: at least `min_steps` times, then as long as
    another step, at the median length so far, still ends within `seconds`."""
    start = time.monotonic()
    lengths: list[float] = []
    while (now := time.monotonic()) < deadline:
        if len(lengths) >= min_steps and now - start + statistics.median(lengths) > seconds:
            break
        step(len(lengths))
        lengths.append(time.monotonic() - now)


def _warm_up(inv: Invocation, seed: int) -> None:
    """One untimed setup-only run: compiles bytecode and fills the page cache."""
    inv.launch(seed, setup_only=True)
    inv.setups.clear()


def measure_end_to_end(inv: Invocation, seed: int, seconds: float) -> None:
    seeds = run_seeds(seed)
    _warm_up(inv, seeds[0])

    def step(i: int) -> None:
        inv.launch(seeds[i % len(seeds)])
        inv.launch(seeds[i % len(seeds)], setup_only=True)

    _repeat(step, len(seeds) + 1, seconds, inv.deadline)


def measure_traced(inv: Invocation, seed: int, seconds: float) -> None:
    first = run_seeds(seed)[0]
    _warm_up(inv, first)

    def step(i: int) -> None:
        inv.launch(first)
        inv.launch(first, trace=True)

    _repeat(step, 1, seconds, inv.deadline)


def _walls(runs: list[Run]) -> list[float]:
    return [r.child["t_end"] - r.child["t_call"] for r in runs]


def _speeds(runs: list[Run]) -> list[float]:
    return [r.child["probe"]["run"]["factor"] for r in runs]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail_percentile(n: int) -> int | None:
    """Highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    supported = [p for p in (75, 90, 95, 99) if n * (100 - p) >= 1000]
    return supported[-1] if supported else None


def end_to_end_values(inv: Invocation, seed: int) -> dict[str, float]:
    reports = [inv.reports[s]["values"] for s in run_seeds(seed)
               if s in inv.reports]
    return {
        "run_s": _median([r.run_s for r in inv.untraced]),
        "setup_s": _median(inv.setups),
        # the peak depends on the run seed's data, not on timing
        "peak_rss_mb": statistics.mean(_median(v) for v in inv.rss_mb.values()),
        "accuracy_percent": statistics.mean(r["accuracy_percent"] for r in reports),
        "compression_x": statistics.mean(r["compression_x"] for r in reports),
    }


def per_layer_values(
    inv: Invocation, seed: int, names: list[str]
) -> tuple[dict[str, float], list[str]]:
    """Resolve every per-layer metric name; unknown functions read as absent."""
    traced = [r.child for r in inv.traced]
    wrapped = set(traced[0]["wrapped"]) if traced else set()
    counts = dict(inv.reports[run_seeds(seed)[0]]["counts"])
    offered = sum(c["grow"]["offered"] for c in traced)
    grown = sum(c["grow"]["grown"] for c in traced)
    counts["trace.overhead_s"] = _median([r.run_s for r in inv.traced]) - _median(
        [r.run_s for r in inv.untraced]
    )
    values, absent = {}, []
    for name in names:
        if name in counts or name.startswith("gpm.final_rank."):
            values[name] = counts.get(name, 0)
            continue
        key, _, stat = name.rpartition(".")
        if ".".join(key.split(".")[:2]) not in wrapped:
            values[name] = 0
            absent.append(name)
        elif stat == "grow_ratio":
            values[name] = grown / offered if offered else 0.0
        else:
            samples = [c["trace"].get(key, [0, 0.0, 0.0])[_STAT_INDEX[stat]] for c in traced]
            # median_low keeps a call count a whole number
            median = statistics.median_low if stat == "calls" else statistics.median
            values[name] = median(samples)
    return values, absent


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": _blas_threads(),
        },
        "commit": _git_commit(),
        "workload_seed": seed,
        "run_seeds": run_seeds(seed),
        "loadavg": list(os.getloadavg()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    started = time.monotonic()
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "dccl", "cli.py")) or not os.path.isfile(
        spec_path
    ):
        print(f"error: no src/dccl or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    os.makedirs(os.path.join(ROOT, WORK, "results"), exist_ok=True)
    prov = provenance(args.seed)
    inv = Invocation(WORKLOADS[args.workload], deadline=started + BUDGET_S)
    if args.trace:
        measure_traced(inv, args.seed, args.seconds)
        declared = spec["per_layer"]
    else:
        measure_end_to_end(inv, args.seed, args.seconds)
        declared = spec["end_to_end"]
    prov["loadavg_end"] = list(os.getloadavg())
    for failure in inv.failures:
        print(f"failed: {failure}", file=sys.stderr)
    if not inv.untraced or (args.trace and not inv.traced):
        print("error: no run succeeded", file=sys.stderr)
        return 1
    e2e = end_to_end_values(inv, args.seed)
    absent: list[str] = []
    if args.trace:
        values, absent = per_layer_values(
            inv, args.seed, [m["name"] for m in declared]
        )
    else:
        values = e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    print("provenance " + json.dumps(prov, sort_keys=True))
    n_runs = len(inv.untraced)
    tail = tail_percentile(n_runs)
    run_times = sorted(r.run_s for r in inv.untraced)
    print(f"workload {args.workload}: {inv.attempted} runs attempted, "
          f"{len(inv.failures)} failed; {n_runs} untraced and "
          f"{len(inv.traced)} traced full runs, {len(inv.setups)} setup samples")
    if tail is None:
        print(f"run_s tail: no percentile has ten samples beyond it in {n_runs} "
              f"runs; max {run_times[-1]:.4f} s")
    else:
        idx = math.ceil(tail / 100 * n_runs) - 1
        print(f"run_s p{tail} {run_times[idx]:.4f} s over {n_runs} runs")
    print(f"run phase: median wall {_median(_walls(inv.untraced)):.4f} s, "
          f"median share of full speed {_median(_speeds(inv.untraced)):.3f}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    if absent:
        print("absent (function not found, reported as 0): " + ", ".join(absent))
    for seed, hashes in sorted(inv.hashes.items()):
        print(f"seed {seed} sha256 " + " ".join(
            f"{k}={v[:16]}" for k, v in sorted(hashes.items())))

    result = {
        "correct": not inv.failures,
        "attempted": inv.attempted,
        "failed": len(inv.failures),
        "metrics": metrics,
    }
    record = {
        **result,
        "workload": args.workload,
        "trace": args.trace,
        "provenance": prov,
        "end_to_end": e2e,
        "absent": absent,
        "failures": inv.failures,
        "run_s_samples": [r.run_s for r in inv.untraced],
        "run_wall_s_samples": _walls(inv.untraced),
        "run_speed_samples": _speeds(inv.untraced),
        "traced_run_s_samples": [r.run_s for r in inv.traced],
        "setup_s_samples": inv.setups,
        "report_sha256": {str(k): v for k, v in inv.hashes.items()},
        "reports": {str(k): v for k, v in inv.reports.items()},
        "trace_table": inv.traced[0].child["trace"] if inv.traced else None,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(ROOT, WORK, "results", name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
