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
import os
import sys

from .gossip import NonFiniteError
from .metrics import emit_reports
from .model import InvariantError
from .tasks import LabeledDataset, check_synthetic, generate_synthetic_sequence
from .tasks import load_csv_dataset
from .topology import build_mixing, parse_topology, validate_assumption3
from .trainer import METHODS, TrainConfig, check_run, run


class ConfigError(ValueError):
    """A configuration value is missing, unknown, or out of range."""


def _parse_int(text: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None


def _parse_float(text: str) -> float:
    try:
        return float(text.strip())
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None


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
    return [_parse_int(p) for p in body.split(",")]


def _parse_paths(text: str) -> list[str]:
    paths = [s.strip() for s in text.split(",")]
    if not all(paths):
        raise ConfigError(f"expected a comma-separated path list, got {text!r}")
    return paths


# key -> (parser, default); the single source of truth for the schema.  A
# parser reads the text as its type; the library checks every bound.
_SCHEMA = {
    "method": (str.strip, "codec"),
    "agents": (_parse_int, 4),
    "topology": (str.strip, "ring"),
    "tasks": (_parse_int, 2),
    "classes_per_task": (_parse_int, 2),
    "input_dim": (_parse_int, 16),
    "samples_per_class": (_parse_int, 100),
    "separation": (_parse_float, 4.0),
    "data_seed": (_parse_int, None),
    "dataset_path": (_parse_paths, None),
    "dims": (_parse_dims, [16, 32, 16]),
    "eta": (_parse_float, 0.1),
    "epochs": (_parse_int, 5),
    "batch_size": (_parse_int, 16),
    "eps_base": (_parse_float, 0.97),
    "eps_increment": (_parse_float, 0.003),
    "rep_samples": (_parse_int, 64),
    "lambda": (_parse_float, 5000.0),
    "seed": (_parse_int, 0),
    "out": (str.strip, "out"),
    "debug_checks": (_parse_bool, False),
}

# the library's name for a config value, where it is not the key
_LIBRARY_NAMES = {
    "n": "agents", "t": "tasks", "dim": "input_dim", "per_class": "samples_per_class",
    "lam": "lambda", "torus": "topology", "custom": "topology", "graph": "topology",
    "dataset": "dataset_path",
}
_SET_BY = {  # words of a library message, and the keys of more values that set it
    "agents were requested": ("topology", "agents"),
    "eps_increment": ("eps_increment",),
}


def _named(exc: Exception, **names: str) -> Exception:
    """``exc`` naming its config keys: a library message leads with the
    name of the value it rejects, mapped by ``names`` or the table, and
    may name more values that set it (``_SET_BY``)."""
    message = str(exc)
    name = message.split(" ", 1)[0]
    key = names.get(name) or _LIBRARY_NAMES.get(name, name)
    keys = [key] if key in _SCHEMA else []
    keys += [k for w, ks in _SET_BY.items() if w in message for k in ks if k not in keys]
    if isinstance(exc, ConfigError) or not keys:
        return exc
    named = ", ".join(map(repr, keys))
    return ConfigError(f"config key{'s' * (len(keys) > 1)} {named}: {message}")


def _parse(text: str, path: str) -> configparser.RawConfigParser:
    """The sections of ``text``.  The keys before a file's first section
    header are one more section, first, named apart from the file's own
    (``run``, else ``run'`` and so on), whose errors give the file's own
    line numbers."""
    parser = configparser.RawConfigParser()
    try:
        parser.read_string(text, source=path)
    except configparser.MissingSectionHeaderError:  # at the first key: nothing was read
        head, lines = "run", map(str.strip, text.splitlines())
        named = {m["header"] for m in map(parser.SECTCRE.match, lines) if m}
        while head in named:
            head += "'"
        try:
            parser.read_string(f"[{head}]\n" + text, source=path)
        except configparser.ParsingError as exc:
            own = configparser.ParsingError(path)
            for no, line in exc.errors:
                own.append(no - 1, line)
            raise own from None
        except configparser.Error as exc:  # a duplicate key or section, at its lineno
            raise type(exc)(*exc.args[:-1], exc.lineno - 1) from None
    return parser


def _load_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    try:
        parser = _parse(text, path)
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
    out = values["out"]
    found = os.path.abspath(out)  # the nearest existing path at or above out
    while not os.path.exists(found):
        found = os.path.dirname(found)
    if not out or not os.path.isdir(found):
        raise ConfigError(f"config key 'out': no directory can be made at {out!r}")


def _build_sequence(values: dict[str, object]) -> list[LabeledDataset]:
    data_seed = values["data_seed"]
    keys = ("tasks", "classes_per_task", "input_dim", "samples_per_class")
    seed = values["seed"] if data_seed is None else data_seed
    synthetic = (*(values[k] for k in keys), seed, values["separation"])
    paths = values["dataset_path"]
    try:  # the synthetic keys hold their bounds in a CSV run too
        if paths is None:
            return generate_synthetic_sequence(*synthetic)
        check_synthetic(*synthetic)
    except ValueError as exc:
        raise _named(exc, seed="seed" if data_seed is None else "data_seed") from None
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


def _fmt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.4f}"


_FLAGS = ("method", "agents", "topology", "tasks", "seed", "out")
# the keys TrainConfig takes under their own names, as the schema types them
_TRAIN_KEYS = (
    "eta", "epochs", "batch_size", "eps_base", "eps_increment", "seed", "method",
    "dims", "rep_samples", "debug_checks",
)


def _prepare(args: argparse.Namespace) -> tuple[dict, TrainConfig, list[LabeledDataset]]:
    """Values, graph, tasks, then TrainConfig: one order, so both commands
    stop at one fault."""
    flags = {key: getattr(args, key) for key in _FLAGS}
    values = resolve_config(args.config, args.overrides, flags)
    topology = parse_topology(str(values["topology"]), int(values["agents"]))
    sequence = _build_sequence(values)
    same = {key: values[key] for key in _TRAIN_KEYS}
    cfg = TrainConfig(topology=topology, lam=values["lambda"], **same)
    return values, cfg, sequence


def cmd_run(args: argparse.Namespace) -> int:
    values, cfg, sequence = _prepare(args)
    result = run(cfg, sequence)
    out_dir = str(values["out"])
    echo = dict(sorted(values.items()))  # every key of the schema
    summary = emit_reports(result, out_dir, seed=int(values["seed"]), config_echo=echo)
    overall = summary["compression"]["all_inclusive"]["overall"]
    print(f"method {cfg.method} seed {values['seed']} out {out_dir}")
    print(f"accuracy_percent {_fmt(summary['accuracy_percent'])}")
    print(f"bwt_percent {_fmt(summary['bwt_percent'])}")
    print(f"compression_all_inclusive {_fmt(overall)}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    values, cfg, sequence = _prepare(args)
    check_run(cfg, sequence)
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
    except (ValueError, OSError, NonFiniteError, InvariantError) as exc:
        print(f"error: {_named(exc)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
