"""Command-line front end: config parsing, study dispatch, CSV/JSON output.

Subcommands: variance, density-table, simulate, tv-bound, norm-scaling.
Exit codes: 0 success, 2 validation or refusal, 3 I/O failure.

Configs are JSON key-value documents (or equivalent inline flags) with
keys n, poly, family, seed, m, worker_count.  Polynomials are dense
coefficient lists from degree 0 upward; the constant and degree-one
entries must be zero.  Floats are serialized with their shortest
round-trip representation, so parsing an emitted document reproduces
every numeric field bit-exactly.
"""

from __future__ import annotations

import argparse
import csv
import io
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
    ExperimentSummary,
    estimate_kappas,
    norm_scaling_study,
    run_clt_experiment,
)

OUTPUT_DIR_ENV = "CIRCULANT_CLT_OUT"
CONFIG_KEYS = frozenset({"n", "poly", "family", "seed", "m", "worker_count"})
DEFAULT_REPLICAS = 2000

EXIT_OK = 0
EXIT_REFUSED = 2
EXIT_IO = 3


def parse_config(doc) -> ExperimentConfig:
    """Validate a key-value config document into an ExperimentConfig.

    Accepts a JSON string or a mapping.  Unknown keys are rejected;
    n and poly are required; m defaults to 2000 and worker_count to the
    available parallelism.  n, m, seed and worker_count must be integers
    and poly a list of numbers; nothing is rounded or split into digits.
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
    data = {"m": DEFAULT_REPLICAS, "seed": 0, "worker_count": os.cpu_count() or 1,
            **data}
    for key in ("n", "m", "seed", "worker_count"):
        if type(data[key]) is not int:  # bool and float are refused, not cast
            raise ConfigError(f"config key {key} must be an integer, "
                              f"not {data[key]!r}")
    if not (isinstance(data["poly"], list)
            and all(type(a) in (int, float) for a in data["poly"])):
        raise ConfigError(f"config key poly must be a list of numbers, "
                          f"not {data['poly']!r}")
    try:
        poly = TestPolynomial.from_dense(data["poly"])
        ensemble = EnsembleSpec(str(data.get("family", "gaussian")))
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
        "centering": "sample_mean",
    }


def _csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def emit_samples_csv(raw_traces, w_values) -> str:
    # the repr of a float never needs CSV quoting, so rows are joined directly
    traces = np.asarray(raw_traces, dtype=np.float64).tolist()
    ws = np.asarray(w_values, dtype=np.float64).tolist()
    return "replica,raw_trace,W\n" + "".join(
        f"{r},{t!r},{w!r}\n" for r, (t, w) in enumerate(zip(traces, ws)))


def emit_summary_json(config: ExperimentConfig, summary=None, stein=None) -> str:
    doc = {
        "config": config_echo(config),
        "version": __version__,
        "experiment": None,
        "stein": None,
    }
    if summary is not None:
        doc["experiment"] = {
            "n": summary.n,
            "m": summary.m,
            "raw_trace_mean": summary.raw_trace_mean,
            "variance_w": summary.variance_w,
            "standardized_moments": list(summary.standardized_moments),
            "ks_distance": summary.ks_distance,
            "target_variance": summary.target_variance,
            "low_confidence": summary.low_confidence,
            "wall_time_s": summary.wall_time_s,
            "target_variance_exact": str(limiting_variance(config.poly)),
        }
    if stein is not None:
        doc["stein"] = {
            "kappa0_hat": stein.kappa0_hat,
            "kappa1_hat": stein.kappa1_hat,
            "kappa2_hat": stein.kappa2_hat,
            "sigma2_hat": stein.sigma2_hat,
            "c1": stein.c1,
            "c2": stein.c2,
            "tv_bound": stein.tv_bound,
            # empirical trace variance goes into the bound; the scaled
            # limiting variance n * sigma2 is reported alongside for context
            "sigma2_target_scaled": config.n * float(limiting_variance(config.poly)),
        }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _text_report(summary: ExperimentSummary) -> str:
    rows = [
        ("n", str(summary.n), ""),
        ("replicas", str(summary.m), ""),
        ("variance_w", repr(summary.variance_w),
         f"target {repr(summary.target_variance)}"),
        ("raw_trace_mean", repr(summary.raw_trace_mean), ""),
        ("ks_distance", repr(summary.ks_distance), ""),
        ("skewness", repr(summary.standardized_moments[2]), "target 0.0"),
        ("kurtosis", repr(summary.standardized_moments[3]), "target 3.0"),
        ("wall_time_s", repr(summary.wall_time_s), ""),
    ]
    if summary.low_confidence:
        rows.append(("low_confidence", "true", "fewer than 30 replicas"))
    width = max(len(r[0]) for r in rows)
    # the wall time varies run to run, so it does not set the padding
    vwidth = max(len(value) for name, value, _ in rows if name != "wall_time_s")
    return "\n".join(
        f"{name:<{width}}  {value:>{vwidth}}  {note}".rstrip() for name, value, note in rows
    ) + "\n"


def _write(path: Path, content: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")


def _write_table(out: Path, header, rows) -> None:
    text = _csv(header, rows)
    _write(out / "table.csv", text)
    sys.stdout.write(text)


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
        data["poly"] = _parse_poly_flag(data["poly"])
    return parse_config(data)


def _parse_poly_flag(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"could not parse polynomial coefficients {text!r}") from exc


def _parse_sizes_flag(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"could not parse sizes {text!r}") from exc


def _cmd_variance(args: argparse.Namespace, out: Path) -> None:
    exact = limiting_variance(TestPolynomial.from_dense(_parse_poly_flag(args.poly)))
    print(exact)
    print(float(exact))


def _cmd_density_table(args: argparse.Namespace, out: Path) -> None:
    p, n = args.p, args.n
    rows = []
    for row in slice_table(p, n):
        f_val = euler_frobenius_density(p, row.s)
        rows.append([p, row.s, n, row.count, repr(float(row.density)),
                     repr(float(f_val)), repr(float(abs(row.density - f_val)))])
    _write_table(out, ["p", "s", "n", "count", "density", "f_density", "gap"], rows)


def _cmd_simulate(args: argparse.Namespace, out: Path) -> None:
    config = _config_from_options(args)
    summary = run_clt_experiment(config)
    _write(out / "samples.csv", emit_samples_csv(summary.raw_traces, summary.w_values))
    _write(out / "summary.json", emit_summary_json(config, summary=summary))
    sys.stdout.write(_text_report(summary))


def _cmd_tv_bound(args: argparse.Namespace, out: Path) -> None:
    config = _config_from_options(args)
    stein = estimate_kappas(config)
    _write(out / "summary.json", emit_summary_json(config, stein=stein))
    for name in ("kappa0_hat", "kappa1_hat", "kappa2_hat", "sigma2_hat", "tv_bound"):
        print(f"{name} {repr(getattr(stein, name))}")


def _cmd_norm_scaling(args: argparse.Namespace, out: Path) -> None:
    ensemble = EnsembleSpec(args.family)
    sizes = _parse_sizes_flag(args.sizes)
    rows = norm_scaling_study(ensemble, sizes, args.trials, master_seed=args.seed)
    _write_table(out, ["n", "trials", "max_ratio", "mean_ratio"],
                 ([row.n, row.trials, repr(row.max_ratio), repr(row.mean_ratio)]
                  for row in rows))


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
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
