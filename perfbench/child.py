"""One benchmark run of `dccl run`, executed in its own fresh process.

Usage: python3 child.py '<json spec>'

The spec names the source tree to import dccl from, the `dccl` argument
list, the file to write timings to, and two switches: `trace` installs the
call tracer over every dccl module, `setup_only` stops at the moment the CLI
calls into the trainer.  The CLI itself runs unchanged, in process, through
`dccl.cli.main`.

The result file holds `t_call` (monotonic clock when the CLI entered the
trainer), `t_end` (when `main` returned), the peak resident set size in KiB,
the speed probe's record per phase, and with tracing the wrapped names, the
per-function table and the memory growth counts.

The speed probe times a fixed piece of work every `PROBE_EVERY_S` seconds
from a SIGALRM handler, plus once at the start of each phase.  The work is
of the kinds dccl spends its time on, but none of dccl's code: a Python loop
over tiny matrix products (the `many` workload's hot loop) and products with
a 256 x 256 matrix (the width of `wide`'s layers).  On a shared host the
speed of a core changes by up to 2x for seconds to minutes at a time, as
other tenants' load comes and goes; the probe follows it.  Per phase
(`setup` before the trainer call, `run` after it) the record holds the
number of probes, the time they took and `factor`, the mean over the probes
of `PROBE_REF_S / probe time`: the share of full speed the host ran at.
"""

from __future__ import annotations

import functools
import gc
import inspect
import json
import os
import resource
import signal
import sys
import time

import numpy as np

PROBE_EVERY_S = 0.02
PROBE_STEPS = 50
PROBE_WARM_STEPS = 5  # untimed, so the probe's own cache misses stay out
# A probe's time at full speed on the 2-vCPU Xeon host the benchmark was
# defined on.  It only sets the scale of the adjusted times; comparisons
# between commits on one host do not depend on it.
PROBE_REF_S = 1.3e-4


class SpeedProbe:
    """Samples the host's speed while the program runs; see the module doc."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        # Operands and outputs are allocated once: allocating at random moments
        # of the program would change its heap layout and so its peak RSS.
        self.small = rng.standard_normal((16, 32))
        self.small_t = np.ascontiguousarray(self.small.T)
        self.small_out = np.empty((16, 16))
        self.big = rng.standard_normal((256, 256))
        self.big_out = np.empty(256)
        self.phases: dict[str, dict[str, float]] = {}
        self.phase: str | None = None
        self.spent = 0.0  # seconds spent probing, in every phase
        self.busy = False

    def _work(self, steps: int) -> None:
        small, small_t, small_out = self.small, self.small_t, self.small_out
        big, big_out = self.big, self.big_out
        for i in range(steps):
            np.matmul(small, small_t, out=small_out)
            if i % 10 == 0:
                np.matmul(big, big[i], out=big_out)

    def sample(self, *_signal_args) -> None:
        if self.phase is None or self.busy:  # a signal may land mid-probe
            return
        self.busy = True
        collect = gc.isenabled()
        gc.disable()  # collecting the program's garbage is not probe work
        t0 = time.perf_counter()
        self._work(PROBE_WARM_STEPS)
        t1 = time.perf_counter()
        self._work(PROBE_STEPS)
        t2 = time.perf_counter()
        if collect:
            gc.enable()
        stats = self.phases.setdefault(self.phase, {"count": 0, "spent_s": 0.0, "factor": 0.0})
        stats["count"] += 1
        stats["spent_s"] += t2 - t0
        # running mean of PROBE_REF_S / probe time
        stats["factor"] += (PROBE_REF_S / (t2 - t1) - stats["factor"]) / stats["count"]
        self.spent += t2 - t0
        self.busy = False

    def enter(self, phase: str) -> None:
        """Start filing probes under `phase`, with one probe now."""
        self.phase = phase
        self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.phase = None


class _SetupDone(BaseException):
    """Raised at the trainer entry of a setup-only run; main() lets it pass."""


def _basis_width(args: tuple, kwargs: dict) -> str | None:
    """Layer input width of the basis argument of project/encode/decode."""
    basis = args[1] if len(args) > 1 else None
    shape = getattr(basis, "shape", None)
    if not shape:
        return None
    return f"n{shape[0]}"


def _ranks(state) -> list[int] | None:
    try:
        return [int(layer.m.shape[1]) for layer in state.layers]
    except (AttributeError, IndexError, TypeError):
        return None


def main() -> int:
    spec = json.loads(sys.argv[1])
    probe = SpeedProbe()
    probe.enter("setup")
    probe.start()
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    import dccl.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"dccl was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 3
    entries = [
        name
        for name, obj in vars(cli).items()
        if name.startswith("run")
        and inspect.isfunction(obj)
        and obj.__module__ == "dccl.trainer"
    ]
    if not entries:
        print("dccl.cli calls no dccl.trainer.run* function", file=sys.stderr)
        return 3

    record: dict[str, object] = {}
    tracer = None
    grow = {"offered": 0, "grown": 0}
    if spec["trace"]:
        from tracer import Tracer

        def on_update(args, kwargs, result):
            before = _ranks(args[0]) if args else None
            after = _ranks(result)
            if before is None or after is None or len(before) != len(after):
                return
            grow["offered"] += len(after)
            grow["grown"] += sum(b < a for b, a in zip(before, after))

        tracer = Tracer(
            clock=lambda: time.perf_counter() - probe.spent,
            splits={f"gpm.{fn}": _basis_width for fn in ("project", "encode", "decode")},
            observers={"gpm.update_memory": on_update},
        )
        record["wrapped"] = tracer.install("dccl")

    def entered(fn):
        @functools.wraps(fn)
        def hook(*args, **kwargs):
            record.setdefault("t_call", time.monotonic())
            if spec["setup_only"]:
                raise _SetupDone
            probe.enter("run")
            return fn(*args, **kwargs)

        return hook

    for name in entries:
        setattr(cli, name, entered(getattr(cli, name)))

    try:
        code = cli.main(spec["argv"])
    except _SetupDone:
        code = 0
    finally:
        probe.stop()
    record["t_end"] = time.monotonic()
    record["probe"] = probe.phases
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        record["trace"] = {
            key: [s.calls, s.total_s, s.self_s] for key, s in tracer.table.items()
        }
        record["grow"] = grow
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
