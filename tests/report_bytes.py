"""The report-byte manifest, ``report_bytes.json``: the SHA-256 of every
report file and of stdout for the fast configs of CI's live-check runs,
with the kernel fingerprint they were written under.

``test_report_bytes.py`` reruns each config against it.  Rewrite it only in
a change that means to move report bytes, and name in that change each
config whose hashes moved and why::

    PYTHONPATH=src python tests/report_bytes.py
"""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from dccl import cli
from dccl.gpm import load_state
from dccl.trainer import _openblas

MANIFEST = Path(__file__).resolve().with_name("report_bytes.json")

# CI's live-check runs that take well under a second all together: each
# is its output directory and the keys that run sets, past the defaults
CONFIGS = {
    "dccl-debug": dict(
        method="codec", topology="ring", agents=4, tasks=2, samples_per_class=40,
        epochs=1, rep_samples=8, debug_checks=True,
    ),
    "dccl-saturated": dict(
        method="codec", topology="ring", agents=4, tasks=3, dims=[4, 8, 4],
        input_dim=4, samples_per_class=40, epochs=1, rep_samples=16, debug_checks=True,
    ),
    "dccl-torus": dict(
        method="codec", topology="torus:2x3", agents=6, tasks=3, debug_checks=True,
    ),
    "dccl-blocks": dict(
        method="codec", topology="torus:4x4", agents=16, tasks=3, dims=[64, 256, 129],
        input_dim=64, samples_per_class=100, epochs=1, rep_samples=8, debug_checks=True,
    ),
    "dccl-dewc-blocks": dict(
        method="dewc", topology="torus:4x4", agents=16, tasks=2, dims=[64, 256, 129],
        input_dim=64, samples_per_class=100, epochs=1, rep_samples=8, debug_checks=True,
    ),
    "dccl-dewc": dict(
        method="dewc", topology="ring", agents=4, tasks=2, samples_per_class=40,
        epochs=1, debug_checks=True,
    ),
    "dccl-stl3": dict(
        method="stl", topology="ring", agents=4, tasks=3, samples_per_class=40, epochs=1,
    ),
    "dccl-dewc-torus": dict(
        method="dewc", topology="torus:2x4", agents=8, tasks=3, rep_samples=16,
        debug_checks=True,
    ),
    "dccl-naive": dict(
        method="naive", topology="ring", agents=4, tasks=2, samples_per_class=40,
        debug_checks=True, epochs=4,
    ),
    "dccl-deep": dict(
        method="codec", topology="torus:2x3", agents=6, tasks=3,
        dims=[16, 64, 48, 32, 16], rep_samples=16, debug_checks=True,
    ),
    "dccl-classes": dict(
        method="codec", topology="ring", agents=4, tasks=2, classes_per_task=10,
        samples_per_class=40, debug_checks=True,
    ),
}


def _text(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, list):
        return ",".join(map(str, value))
    return str(value)


def argv(out: str, sets: dict) -> list[str]:
    """``dccl run`` with every schema key set: the defaults, then ``sets``,
    ``data_seed`` the run seed, as unset it would be.  Only
    ``dataset_path`` stays unset, as no value spells synthetic tasks."""
    values = {key: default for key, (_, default) in cli._SCHEMA.items()}
    values.update(sets, out=out)
    values["data_seed"] = values["seed"]
    del values["dataset_path"]
    return ["run", *(f"--set={key}={_text(v)}" for key, v in sorted(values.items()))]


def fingerprint() -> dict:
    """The kernels report bytes depend on: the numpy version, OpenBLAS's
    build and core name, and numpy's dispatched SIMD targets."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    found = _openblas("get_config", "get_corename") or []
    for fn in found:
        fn.restype = ctypes.c_char_p
    config, core = (fn().decode() for fn in found) if found else (None, None)
    return {
        "numpy": np.__version__,
        "openblas_config": config,
        "openblas_core": core,
        "simd": [f for f in __cpu_dispatch__ if __cpu_features__.get(f)],
    }


def run(name: str, args: list[str], cwd: Path) -> dict:
    """``args`` run in process in ``cwd``, writing under ``cwd / name``:
    the SHA-256 of stdout and of each report file, and the memory's ranks
    if the run wrote one."""
    stdout, here = io.StringIO(), os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(stdout):
            rc = cli.main(args)
    finally:
        os.chdir(here)
    if rc:
        raise RuntimeError(f"dccl {' '.join(args)} exited {rc}")
    out = cwd / name
    sha = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    sha["stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    memory = out / "gpm_state.txt"
    ranks = load_state(str(memory)).ranks() if memory.exists() else None
    return {"sha256": sha, "ranks": ranks}


def main() -> None:
    configs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, sets in CONFIGS.items():
            args = argv(name, sets)
            configs[name] = {"argv": args, **run(name, args, Path(tmp))}
    manifest = {"fingerprint": fingerprint(), "configs": configs}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
