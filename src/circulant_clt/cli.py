"""Command-line front end: config parsing, study dispatch, CSV/JSON output.

Subcommands: variance, simulate, tv-bound.
Exit codes: 0 success, 2 refusal or a failed allocation, 3 I/O failure.
A subcommand prints the report it writes, once the file is written.

Configs are JSON key-value documents (or equivalent inline flags) with
keys n, poly, family, seed, m, worker_count.  Polynomials are dense
coefficient lists from degree 0 upward; the constant and degree-one
entries must be zero.  summary.json serializes floats with their
shortest round-trip representation, samples.csv with 17 significant
digits; either way parsing an emitted document reproduces every numeric
field bit-exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .circulant import TestPolynomial
from .combinatorics import limiting_variance
from .ensembles import EnsembleSpec
from .errors import ConfigError
from .harness import ExperimentConfig, available_cpus, estimate_kappas, run_clt_experiment

CONFIG_KEYS = frozenset({"n", "poly", "family", "seed", "m", "worker_count"})
DEFAULT_REPLICAS = 2000

EXIT_OK = 0
EXIT_REFUSED = 2
EXIT_IO = 3


def parse_config(doc) -> ExperimentConfig:
    """Validate a key-value config document into an ExperimentConfig.

    Accepts a JSON string or a mapping.  Unknown keys are rejected;
    n and poly are required; m defaults to 2000 and worker_count to the
    CPUs the process may run on.  poly must be a list of numbers, and n, m,
    seed and worker_count integers; nothing is rounded or split into digits.
    """
    if isinstance(doc, (str, bytes)):
        try:
            data = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    else:
        data = dict(doc)
    if not isinstance(data, dict):
        raise ConfigError("config must be a key-value document")
    unknown = sorted(set(data) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(map(str, unknown))}")
    for key in ("n", "poly"):
        if key not in data:
            raise ConfigError(f"missing required config key: {key}")
    data = {"m": DEFAULT_REPLICAS, "seed": 0, "worker_count": available_cpus(), **data}
    if not (isinstance(data["poly"], list)
            and all(type(a) in (int, float) for a in data["poly"])):
        raise ConfigError(f"config key poly must be a list of numbers, "
                          f"not {data['poly']!r}")
    try:
        poly = TestPolynomial.from_dense(data["poly"])
        ensemble = EnsembleSpec(data.get("family", "gaussian"))
        return ExperimentConfig(
            n=data["n"],
            m=data["m"],
            poly=poly,
            ensemble=ensemble,
            master_seed=data["seed"],
            worker_count=data["worker_count"],
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def config_echo(config: ExperimentConfig) -> dict:
    # worker_count is an execution detail (like wall time), not part of the
    # experiment's identity, so it is not echoed into reports
    return {
        "n": config.n,
        "m": config.m,
        "poly": config.poly.dense(),
        "family": config.ensemble.family,
        "seed": config.master_seed,
    }


def emit_samples_csv(raw_traces, w_values) -> str:
    # 17 significant digits parse back to the same double without repr's
    # shortest-digit search; no cell needs CSV quoting, so the whole table
    # is one % operation over its cells in row order
    traces = np.asarray(raw_traces, dtype=np.float64).tolist()
    m = len(traces)
    cells = [0] * (3 * m)
    cells[::3] = range(m)
    cells[1::3] = traces
    cells[2::3] = np.asarray(w_values, dtype=np.float64).tolist()
    return ("replica,raw_trace,W\n" + "%d,%.17g,%.17g\n" * m) % tuple(cells)


def emit_summary_json(config: ExperimentConfig, summary=None, stein=None) -> str:
    # each block is every field of its record but the per-replica arrays,
    # plus the exact target it is read against
    doc = {"config": config_echo(config), "version": __version__,
           "experiment": None, "stein": None}
    if summary is not None:
        doc["experiment"] = {k: v for k, v in vars(summary).items()
                             if k not in ("w_values", "raw_traces")}
        doc["experiment"]["target_variance_exact"] = str(limiting_variance(config.poly))
    if stein is not None:
        # the bound uses the empirical trace variance; the limiting variance
        # scaled by n is reported alongside for context
        scaled = config.n * float(limiting_variance(config.poly))
        doc["stein"] = {**vars(stein), "tv_bound": stein.tv_bound,
                        "sigma2_target_scaled": scaled}
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _write(path: Path, content: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")


def _report(path: Path, content: str) -> None:
    # written first, so a failed write prints nothing
    _write(path, content)
    sys.stdout.write(content)


def _config_from_options(args: argparse.Namespace) -> ExperimentConfig:
    data = {key: getattr(args, key) for key in sorted(CONFIG_KEYS)
            if getattr(args, key) is not None}
    if args.config:
        if data:
            flags = ", ".join("--workers" if key == "worker_count" else f"--{key}"
                              for key in data)
            raise ConfigError(f"--config cannot be combined with {flags}")
        return parse_config(Path(args.config).read_text(encoding="utf-8"))
    if "poly" in data:
        data["poly"] = _parse_poly(data["poly"])
    return parse_config(data)


def _parse_poly(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"could not parse polynomial coefficients {text!r}") from exc


def _cmd_variance(args: argparse.Namespace, out: Path) -> None:
    exact = limiting_variance(TestPolynomial.from_dense(_parse_poly(args.poly)))
    print(exact)
    print(float(exact))


def _cmd_simulate(args: argparse.Namespace, out: Path) -> None:
    config = _config_from_options(args)
    summary = run_clt_experiment(config)
    _write(out / "samples.csv", emit_samples_csv(summary.raw_traces, summary.w_values))
    _report(out / "summary.json", emit_summary_json(config, summary=summary))


def _cmd_tv_bound(args: argparse.Namespace, out: Path) -> None:
    config = _config_from_options(args)
    stein = estimate_kappas(config)
    _report(out / "summary.json", emit_summary_json(config, stein=stein))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circulant-clt",
        description="CLT verification studies for circulant-matrix trace statistics",
    )
    parser.add_argument("--out", default=".",
                        help="output directory (default: the working directory)")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_experiment_flags(p: argparse.ArgumentParser) -> None:
        # dest is the config key, so the flags map onto parse_config unchanged
        p.add_argument("--config", help="path to a JSON config document")
        p.add_argument("--n", type=int, help="matrix size")
        p.add_argument("--poly", help="dense coefficients from degree 0, e.g. 0,0,1")
        p.add_argument("--family", help="ensemble family")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--m", type=int, help="replica count")
        p.add_argument("--workers", type=int, dest="worker_count", metavar="WORKERS",
                       help="worker count")

    p = sub.add_parser("variance", help="print the exact limiting variance")
    p.set_defaults(run=_cmd_variance)
    p.add_argument("--poly", required=True)

    p = sub.add_parser("simulate", help="run the Monte Carlo CLT experiment")
    p.set_defaults(run=_cmd_simulate)
    add_experiment_flags(p)

    p = sub.add_parser("tv-bound", help="assemble the total-variation bound")
    p.set_defaults(run=_cmd_tv_bound)
    add_experiment_flags(p)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand; refusals and I/O failures map to exit codes."""
    args = _build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        args.run(args, out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
