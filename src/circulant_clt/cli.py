"""Command-line front end: config parsing, study dispatch, CSV/JSON output.

Subcommands: variance, density-table, simulate, tv-bound, norm-scaling.
Exit codes: 0 success, 2 refusal or a failed allocation, 3 I/O failure.
A subcommand prints the report it writes, once the file is written.

Configs are JSON key-value documents (or equivalent inline flags) with
keys n, poly, family, seed, m, worker_count.  Polynomials are dense
coefficient lists from degree 0 upward; the constant and degree-one
entries must be zero.  summary.json and table.csv serialize floats with
their shortest round-trip representation, samples.csv with 17 significant
digits; either way parsing an emitted document reproduces every numeric
field bit-exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .circulant import TestPolynomial
from .combinatorics import euler_frobenius_density, limiting_variance, slice_table
from .ensembles import EnsembleSpec
from .errors import ConfigError
from .harness import (
    ExperimentConfig,
    available_cpus,
    estimate_kappas,
    norm_scaling_study,
    run_clt_experiment,
)

OUTPUT_DIR_ENV = "CIRCULANT_CLT_OUT"
CONFIG_KEYS = frozenset({"n", "poly", "family", "seed", "m", "worker_count"})
DEFAULT_REPLICAS = 2000
# Largest density-table degree: the largest p whose whole run, with n as
# large as the digit limit allows, stays within about 0.9 s in a fresh
# interpreter; 0.7-0.8 s at p = 240 (CHANGES.md).
MAX_TABLE_P = 240

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


def _write_table(out: Path, header, rows) -> None:
    # ints and float reprs never need CSV quoting, so rows are joined directly
    _report(out / "table.csv",
            "".join(",".join(map(str, row)) + "\n" for row in [header, *rows]))


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
        data["poly"] = _parse_list(data["poly"], float, "polynomial coefficients")
    return parse_config(data)


def _parse_list(text: str, parse, what: str) -> list:
    try:
        return [parse(part) for part in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"could not parse {what} {text!r}") from exc


def _cmd_variance(args: argparse.Namespace, out: Path) -> None:
    coeffs = _parse_list(args.poly, float, "polynomial coefficients")
    exact = limiting_variance(TestPolynomial.from_dense(coeffs))
    print(exact)
    print(float(exact))


def _cmd_density_table(args: argparse.Namespace, out: Path) -> None:
    p, n = args.p, args.n
    if p < 2:
        raise ConfigError("p must be at least 2")
    if p > MAX_TABLE_P:
        raise ConfigError(f"--p {p} is above {MAX_TABLE_P}, the largest table "
                          f"density-table computes")
    # 0 (no limit) where Python predates the limit or it is switched off
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits and n ** (p - 1) >= 10**digits:
        raise ConfigError(f"--n is too large for --p {p}: counts reach n^(p-1), "
                          f"more than the {digits} digits Python writes as text")
    f = [euler_frobenius_density(p, s) for s in range(p)]
    _write_table(out, ["p", "s", "n", "count", "density", "f_density", "gap"],
                 ([p, row.s, n, row.count, float(row.density), float(f[row.s]),
                   float(abs(row.density - f[row.s]))] for row in slice_table(p, n)))


def _cmd_simulate(args: argparse.Namespace, out: Path) -> None:
    config = _config_from_options(args)
    summary = run_clt_experiment(config)
    _write(out / "samples.csv", emit_samples_csv(summary.raw_traces, summary.w_values))
    _report(out / "summary.json", emit_summary_json(config, summary=summary))


def _cmd_tv_bound(args: argparse.Namespace, out: Path) -> None:
    config = _config_from_options(args)
    stein = estimate_kappas(config)
    _report(out / "summary.json", emit_summary_json(config, stein=stein))


def _cmd_norm_scaling(args: argparse.Namespace, out: Path) -> None:
    ensemble = EnsembleSpec(args.family)
    sizes = _parse_list(args.sizes, int, "sizes")
    rows = norm_scaling_study(ensemble, sizes, args.trials, master_seed=args.seed)
    _write_table(out, ["n", "trials", "max_ratio", "mean_ratio"],
                 ([row.n, row.trials, row.max_ratio, row.mean_ratio] for row in rows))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circulant-clt",
        description="CLT verification studies for circulant-matrix trace statistics",
    )
    parser.add_argument(
        "--out",
        default=None,
        help=f"output directory (default: ${OUTPUT_DIR_ENV} or the working directory)",
    )
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

    p = sub.add_parser("density-table", help="slice counts and densities as CSV")
    p.set_defaults(run=_cmd_density_table)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("simulate", help="run the Monte Carlo CLT experiment")
    p.set_defaults(run=_cmd_simulate)
    add_experiment_flags(p)

    p = sub.add_parser("tv-bound", help="assemble the total-variation bound")
    p.set_defaults(run=_cmd_tv_bound)
    add_experiment_flags(p)

    p = sub.add_parser("norm-scaling", help="spectral norm vs sqrt(log n)")
    p.set_defaults(run=_cmd_norm_scaling)
    p.add_argument("--family", default="gaussian")
    p.add_argument("--sizes", required=True, help="comma-separated sizes")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand; refusals and I/O failures map to exit codes."""
    args = _build_parser().parse_args(argv)
    out = Path(args.out or os.environ.get(OUTPUT_DIR_ENV) or ".")
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
