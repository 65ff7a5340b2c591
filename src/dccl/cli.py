"""Command-line experiment runner.

`dccl run` trains one of four methods on a shared task sequence and writes
`rounds.csv`, `accuracy_matrix.csv`, `summary.json` and, for `codec`,
`gpm_state.txt` under the output directory.  `dccl validate` runs the checks
`dccl run` makes before training and prints a mixing report.

Configuration comes from an INI-style file (sections are merged into one
flat namespace), then `--set key=value` overrides, then dedicated flags.
Every run is a pure function of the resolved configuration; no value is
ever drawn from the clock.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys

from .gpm import ThresholdSchedule
from .metrics import emit_reports
from .tasks import LabeledDataset, generate_synthetic_sequence, load_csv_dataset
from .topology import build_mixing, parse_topology, validate_assumption3
from .trainer import EWC_MODES, METHODS, TrainConfig, check_run, run
from .trainer import InvariantError, NonFiniteError


class ConfigError(ValueError):
    """A configuration value is missing, unknown, or out of range."""


def _parse_int(text: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None


def _parse_count(text: str) -> int:
    value = _parse_int(text)
    if value < 1:
        raise ConfigError(f"expected a count of at least 1, got {value}")
    return value


def _parse_nonneg_int(text: str) -> int:
    value = _parse_int(text)
    if value < 0:
        raise ConfigError(f"expected a non-negative integer, got {value}")
    return value


def _parse_float(text: str) -> float:
    try:
        value = float(text.strip())
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text.strip()!r}")
    return value


def _parse_positive_float(text: str) -> float:
    value = _parse_float(text)
    if value <= 0.0:
        raise ConfigError(f"expected a positive number, got {value}")
    return value


def _parse_nonneg_float(text: str) -> float:
    value = _parse_float(text)
    if value < 0.0:
        raise ConfigError(f"expected a non-negative number, got {value}")
    return value


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_dims(text: str) -> list[int]:
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    parts = [p for p in (s.strip() for s in body.split(",")) if p]
    if not parts:
        raise ConfigError(f"expected a list of layer widths, got {text!r}")
    dims = []
    for p in parts:
        width = _parse_int(p)
        if width < 1:
            raise ConfigError(f"layer width must be at least 1, got {width}")
        dims.append(width)
    return dims


def _parse_paths(text: str) -> list[str]:
    paths = [s.strip() for s in text.split(",") if s.strip()]
    if not paths:
        raise ConfigError(f"expected a comma-separated path list, got {text!r}")
    return paths


def _parse_str(text: str) -> str:
    return text.strip()


def _parse_choice(key: str, choices: tuple[str, ...]):
    def parse(text: str) -> str:
        value = text.strip()
        if value not in choices:
            raise ConfigError(
                f"unknown {key} {value!r}; choose from {', '.join(choices)}"
            )
        return value

    return parse


# key -> (parser, default); the single source of truth for the schema
_SCHEMA = {
    "method": (_parse_choice("method", METHODS), "codec"),
    "agents": (_parse_count, 4),
    "topology": (_parse_str, "ring"),
    "tasks": (_parse_count, 2),
    "classes_per_task": (_parse_count, 2),
    "input_dim": (_parse_count, 16),
    "samples_per_class": (_parse_count, 100),
    "separation": (_parse_positive_float, 4.0),
    "data_seed": (_parse_nonneg_int, None),
    "dataset_path": (_parse_paths, None),
    "dims": (_parse_dims, [16, 32, 16]),
    "eta": (_parse_positive_float, 0.1),
    "epochs": (_parse_count, 5),
    "batch_size": (_parse_count, 16),
    "eps_base": (_parse_float, 0.97),
    "eps_increment": (_parse_nonneg_float, 0.003),
    "rep_samples": (_parse_count, 64),
    "lambda": (_parse_nonneg_float, 5000.0),
    "ewc_mode": (_parse_choice("ewc_mode", EWC_MODES), "online"),
    "lr_decay": (_parse_bool, False),
    "use_bias": (_parse_bool, False),
    "seed": (_parse_nonneg_int, 0),
    "out": (_parse_str, "out"),
    "debug_checks": (_parse_bool, False),
}


def _load_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    parser = configparser.RawConfigParser()
    try:
        parser.read_string(text, source=path)
    except configparser.MissingSectionHeaderError:
        parser = configparser.RawConfigParser()
        parser.read_string("[run]\n" + text, source=path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from None
    merged: dict[str, str] = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            if key in merged:
                raise ConfigError(
                    f"duplicate config key {key!r} (seen again in section {section})"
                )
            merged[key] = value
    return merged


def resolve_config(
    config_path: str | None,
    overrides: list[str],
    flags: dict[str, str | None],
) -> dict[str, object]:
    """Merge defaults, file values, --set pairs, then dedicated flags.

    Every value arrives as text and goes through its key's schema parser.
    """
    values: dict[str, object] = {k: default for k, (_, default) in _SCHEMA.items()}
    pairs = list(_load_file(config_path).items()) if config_path else []
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        pairs.append((key.strip().lower(), raw))
    pairs += [(key, raw) for key, raw in flags.items() if raw is not None]
    for key, raw in pairs:
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            values[key] = _SCHEMA[key][0](raw)
        except ConfigError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from None
    _cross_check(values)
    return values


def _cross_check(values: dict[str, object]) -> None:
    dims = values["dims"]
    if dims[0] != values["input_dim"]:
        raise ConfigError(
            f"dims[0] = {dims[0]} does not match input_dim = {values['input_dim']}"
        )
    paths = values["dataset_path"]
    if paths is not None and len(paths) != int(values["tasks"]):
        raise ConfigError(
            f"dataset_path lists {len(paths)} files for {values['tasks']} tasks"
        )


def _build_sequence(values: dict[str, object]) -> list[LabeledDataset]:
    paths = values["dataset_path"]
    if paths is None:
        data_seed = values["data_seed"]
        if data_seed is None:
            data_seed = int(values["seed"])
        return generate_synthetic_sequence(
            int(values["tasks"]),
            int(values["classes_per_task"]),
            int(values["input_dim"]),
            int(values["samples_per_class"]),
            int(data_seed),
            separation=float(values["separation"]),
        )
    # check_run compares every task's feature width with dims[0]
    datasets = [load_csv_dataset(p) for p in paths]
    seen: set[int] = set()
    for i, ds in enumerate(datasets):
        overlap = seen.intersection(ds.classes)
        if overlap:
            raise ConfigError(
                f"dataset {paths[i]} reuses class labels {sorted(overlap)}; "
                "tasks must be class-disjoint"
            )
        seen.update(ds.classes)
    return datasets


def _train_config(values: dict[str, object]) -> TrainConfig:
    return TrainConfig(
        eta=float(values["eta"]),
        epochs=int(values["epochs"]),
        batch_size=int(values["batch_size"]),
        threshold=ThresholdSchedule(
            base=float(values["eps_base"]),
            increment_per_task=float(values["eps_increment"]),
        ),
        topology=parse_topology(str(values["topology"]), int(values["agents"])),
        seed=int(values["seed"]),
        method=str(values["method"]),
        lam=float(values["lambda"]),
        ewc_mode=str(values["ewc_mode"]),
        dims=list(values["dims"]),
        use_bias=bool(values["use_bias"]),
        rep_samples=int(values["rep_samples"]),
        lr_decay=bool(values["lr_decay"]),
        debug_checks=bool(values["debug_checks"]),
    )


def _echo(values: dict[str, object]) -> dict[str, object]:
    return {key: values[key] for key in sorted(_SCHEMA)}


def _fmt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.4f}"


_FLAGS = ("method", "agents", "topology", "tasks", "seed", "out")


def _resolve(args: argparse.Namespace) -> dict[str, object]:
    flags = {key: getattr(args, key) for key in _FLAGS}
    return resolve_config(args.config, args.overrides, flags)


def cmd_run(args: argparse.Namespace) -> int:
    values = _resolve(args)
    sequence = _build_sequence(values)
    cfg = _train_config(values)
    result = run(cfg, sequence)
    out_dir = str(values["out"])
    summary = emit_reports(
        result, out_dir, seed=int(values["seed"]), config_echo=_echo(values)
    )
    overall = summary["compression"]["all_inclusive"]["overall"]
    print(f"method {cfg.method} seed {values['seed']} out {out_dir}")
    print(f"accuracy_percent {_fmt(summary['accuracy_percent'])}")
    print(f"bwt_percent {_fmt(summary['bwt_percent'])}")
    print(f"compression_all_inclusive {_fmt(overall)}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    values = _resolve(args)
    cfg = _train_config(values)
    check_run(cfg, _build_sequence(values))
    report = validate_assumption3(build_mixing(cfg.topology))
    print(f"method {values['method']}")
    print(f"topology {values['topology']} agents {values['agents']}")
    for line in report.lines():
        print(line)
    if not report.passed:
        print("validation failed", file=sys.stderr)
        return 1
    print("validation passed")
    return 0


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="INI-style config file")
    parser.add_argument("--method", help="training method: " + ", ".join(METHODS))
    parser.add_argument("--agents", metavar="N", help="number of agents")
    parser.add_argument(
        "--topology",
        metavar="STR",
        help="ring, full, torus:RxC, or custom:<adjacency file>",
    )
    parser.add_argument("--tasks", metavar="T", help="number of tasks")
    parser.add_argument("--seed", metavar="S", help="run seed")
    parser.add_argument("--out", metavar="DIR", help="output directory")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override any config key (repeatable)",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dccl",
        description="Decentralized continual learning simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="train and write reports")
    _add_common_flags(run_p)
    val_p = sub.add_parser("validate", help="check a config without training")
    _add_common_flags(val_p)
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        return cmd_validate(args)
    except (ConfigError, ValueError, OSError, NonFiniteError, InvariantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
