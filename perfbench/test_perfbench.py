"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

The run tests start real `dccl run` children on a tiny configuration and take
a few seconds.
"""

from __future__ import annotations

import os
import sys
import time
import types

import pytest

import child
import run
from run import (
    Invocation, Run, RunFailed, full_speed_s, measure_end_to_end, per_layer_values,
    run_seeds,
)
from tracer import Stats, Tracer

TINY = [
    "--method", "codec", "--agents", "2", "--tasks", "2",
    "--set", "epochs=1", "--set", "samples_per_class=20", "--set", "rep_samples=8",
]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_excludes_nested_wrapped_calls():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner(fail=False):
        clock.now += 2.0
        if fail:
            raise ValueError("inner failed")

    def outer():
        clock.now += 1.0
        traced_inner()
        clock.now += 3.0
        with pytest.raises(ValueError):
            traced_inner(fail=True)

    traced_inner = tracer.wrap("m.inner", inner)
    tracer.wrap("m.outer", outer)()

    assert tracer.stats("m.outer") == Stats(calls=1, total_s=8.0, self_s=4.0)
    assert tracer.stats("m.inner") == Stats(calls=2, total_s=4.0, self_s=4.0)


def test_split_and_observer_see_each_call():
    clock = FakeClock()
    seen = []
    tracer = Tracer(
        clock=clock,
        splits={"m.f": lambda args, kwargs: f"n{args[0]}"},
        observers={"m.f": lambda args, kwargs, result: seen.append(result)},
    )
    f = tracer.wrap("m.f", lambda width: width * 10)
    f(3)
    f(4)
    f(3)
    assert tracer.stats("m.f").calls == 3
    assert tracer.stats("m.f.n3").calls == 2
    assert tracer.stats("m.f.n4").calls == 1
    assert seen == [30, 40, 30]


def test_install_rebinds_every_binding_of_a_function():
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")
    exec("def f():\n    return 1\ndef g():\n    return f() + _h()\ndef _h():\n    return 1\n", a.__dict__)
    a.f.__module__ = a.g.__module__ = a._h.__module__ = "fakepkg.a"
    b.f = a.f
    pkg.g = a.g
    modules = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(modules)
    try:
        tracer = Tracer()
        assert sorted(tracer.install("fakepkg")) == ["a.f", "a.g"]
        assert pkg.g() == 2 and b.f() == 1
    finally:
        for name in modules:
            del sys.modules[name]
    assert tracer.stats("a.g").calls == 1
    assert tracer.stats("a.f").calls == 2  # once inside g, once through fakepkg.b
    assert tracer.stats("a._h") is None


def test_missing_function_reads_as_absent_not_as_error():
    first = run_seeds(1)[0]
    inv = Invocation(argv=[], deadline=0.0)
    inv.untraced.append(Run(0.2, 1.0, 50.0, child={}))
    inv.traced.append(Run(0.2, 1.25, 50.0, child={
        "wrapped": ["gpm.decode", "gpm.update_memory"],
        "trace": {"gpm.decode": [3, 0.5, 0.4], "gpm.decode.n64": [3, 0.5, 0.4]},
        "grow": {"offered": 4, "grown": 1},
    }))
    inv.reports[first] = {"counts": {"trainer.rounds": 7, "gpm.final_rank.n64": 5}}
    names = [
        "gpm.decode.calls", "gpm.decode.n64.self_s", "gpm.decode.n256.calls",
        "gpm.update_memory.grow_ratio", "linalg.svd_full.self_s",
        "trainer.rounds", "gpm.final_rank.n64", "gpm.final_rank.n16",
        "trace.overhead_s",
    ]
    values, absent = per_layer_values(inv, 1, names)
    assert values == {
        "gpm.decode.calls": 3,
        "gpm.decode.n64.self_s": 0.4,
        "gpm.decode.n256.calls": 0,
        "gpm.update_memory.grow_ratio": 0.25,
        "linalg.svd_full.self_s": 0,
        "trainer.rounds": 7,
        "gpm.final_rank.n64": 5,
        "gpm.final_rank.n16": 0,
        "trace.overhead_s": 0.25,
    }
    assert absent == ["linalg.svd_full.self_s"]


def test_probe_files_samples_by_phase():
    probe = child.SpeedProbe()
    probe.enter("setup")
    probe.enter("run")
    probe.sample()
    assert [probe.phases[p]["count"] for p in ("setup", "run")] == [1, 2]
    assert probe.spent == pytest.approx(
        probe.phases["setup"]["spent_s"] + probe.phases["run"]["spent_s"])
    assert all(0.0 < probe.phases[p]["factor"] < 10.0 for p in ("setup", "run"))
    probe.stop()
    probe.sample()
    assert probe.phases["run"]["count"] == 2


def test_full_speed_time_drops_probe_time_and_scales_by_speed():
    assert full_speed_s(2.1, {"count": 3, "spent_s": 0.1, "factor": 0.5}) == 1.0
    with pytest.raises(RunFailed):
        full_speed_s(2.1, None)


def test_good_runs_pass_and_repeat_byte_for_byte():
    inv = Invocation(argv=TINY, deadline=time.monotonic() + 120.0)
    measure_end_to_end(inv, seed=0, seconds=0.0)
    assert inv.failures == []
    assert inv.attempted == 1 + 2 * (run.SEEDS_PER_RUN + 1)
    assert len(inv.untraced) == run.SEEDS_PER_RUN + 1
    assert sorted(inv.hashes) == run_seeds(0)
    assert all(r.child["probe"]["run"]["count"] >= 1 for r in inv.untraced)
    assert sorted(inv.rss_mb) == run_seeds(0)
    counts = inv.reports[run_seeds(0)[0]]["counts"]
    assert counts["trainer.rounds"] * 2 * 16 == counts["train.samples"]


def test_forced_failures_are_counted():
    inv = Invocation(argv=TINY + ["--set", "eta=-1"], deadline=time.monotonic() + 120.0)
    measure_end_to_end(inv, seed=0, seconds=0.0)
    assert inv.attempted == 1 + 2 * (run.SEEDS_PER_RUN + 1)
    assert len(inv.failures) == inv.attempted
    assert inv.untraced == []


def test_report_bytes_that_differ_from_the_first_run_fail():
    seed = run_seeds(0)[0]
    inv = Invocation(argv=TINY, deadline=time.monotonic() + 120.0)
    inv.hashes[seed] = {"summary.json": "0" * 64}
    inv.launch(seed)
    assert inv.attempted == 1
    assert len(inv.failures) == 1 and "differ" in inv.failures[0]


def test_missing_source_tree_exits_nonzero_without_a_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", os.path.join(run.ROOT, "no-such-src"))
    code = run.main(["--workload", "wide", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
