"""Command-line front end: config parsing, study dispatch, CSV/JSON output.

Subcommands: variance, density-table, simulate, tv-bound, norm-scaling,
moments.  Exit codes: 0 success, 2 validation or refusal, 3 I/O failure.

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
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from . import __version__
from .circulant import TestPolynomial
from .combinatorics import (
    euler_frobenius_density,
    gaussian_central_moment,
    limiting_variance,
    slice_table,
)
from .ensembles import from_family
from .errors import ConfigError
from .harness import (
    ExperimentConfig,
    ExperimentSummary,
    empirical_moments,
    estimate_kappas,
    norm_scaling_study,
    run_clt_experiment,
    standardized_moments,
)

OUTPUT_DIR_ENV = "CIRCULANT_CLT_OUT"
CONFIG_KEYS = frozenset({"n", "poly", "family", "seed", "m", "worker_count"})
DEFAULT_REPLICAS = 2000

EXIT_OK = 0
EXIT_REFUSED = 2
EXIT_IO = 3


@dataclass(frozen=True)
class CommandSpec:
    subcommand: str
    options: Mapping[str, object]
    output_dir: Path


def parse_config(doc) -> ExperimentConfig:
    """Validate a key-value config document into an ExperimentConfig.

    Accepts a JSON string or a mapping.  Unknown keys are rejected;
    n and poly are required; m defaults to 2000 and worker_count to the
    available parallelism.
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
    try:
        poly = TestPolynomial.from_dense(data["poly"])
        ensemble = from_family(str(data.get("family", "gaussian")))
        return ExperimentConfig(
            n=int(data["n"]),
            m=int(data.get("m", DEFAULT_REPLICAS)),
            poly=poly,
            ensemble=ensemble,
            master_seed=int(data.get("seed", 0)),
            worker_count=int(data.get("worker_count", os.cpu_count() or 1)),
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


def emit_samples_csv(raw_traces, w_values) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(["replica", "raw_trace", "W"])
    for r, (t, w) in enumerate(zip(raw_traces, w_values)):
        writer.writerow([r, repr(float(t)), repr(float(w))])
    return buf.getvalue()


def _experiment_fields(summary: ExperimentSummary) -> dict:
    return {
        "n": summary.n,
        "m": summary.m,
        "raw_trace_mean": summary.raw_trace_mean,
        "variance_w": summary.variance_w,
        "standardized_moments": list(summary.standardized_moments),
        "ks_distance": summary.ks_distance,
        "target_variance": summary.target_variance,
        "low_confidence": summary.low_confidence,
        "wall_time_s": summary.wall_time_s,
    }


def summary_document(config: ExperimentConfig, summary=None, stein=None) -> dict:
    doc = {
        "config": config_echo(config),
        "version": __version__,
        "experiment": None,
        "stein": None,
    }
    if summary is not None:
        doc["experiment"] = _experiment_fields(summary)
        doc["experiment"]["target_variance_exact"] = str(
            limiting_variance(config.poly)
        )
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
    return doc


def emit_summary_json(config: ExperimentConfig, summary=None, stein=None) -> str:
    doc = summary_document(config, summary=summary, stein=stein)
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
    vwidth = max(len(r[1]) for r in rows)
    return "\n".join(
        f"{name:<{width}}  {value:>{vwidth}}  {note}".rstrip() for name, value, note in rows
    ) + "\n"


def emit_report(summary: ExperimentSummary, format: str) -> str:
    """Serialize a summary as csv (per-replica samples), json, or text."""
    if format == "csv":
        return emit_samples_csv(summary.raw_traces, summary.w_values)
    if format == "json":
        fields = _experiment_fields(summary)
        return json.dumps(fields, sort_keys=True, indent=2) + "\n"
    if format == "text":
        return _text_report(summary)
    raise ConfigError(f"unknown report format {format!r}")


def _write(path: Path, content: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")


def _config_from_options(options: Mapping[str, object]) -> ExperimentConfig:
    if options.get("config"):
        text = Path(str(options["config"])).read_text(encoding="utf-8")
        return parse_config(text)
    data: dict = {}
    for key, opt in (
        ("n", "n"), ("poly", "poly"), ("family", "family"),
        ("seed", "seed"), ("m", "m"), ("worker_count", "workers"),
    ):
        value = options.get(opt)
        if value is not None:
            data[key] = value
    if isinstance(data.get("poly"), str):
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


def _cmd_variance(spec: CommandSpec) -> int:
    poly = TestPolynomial.from_dense(_parse_poly_flag(str(spec.options["poly"])))
    exact = limiting_variance(poly)
    print(exact)
    print(float(exact))
    return EXIT_OK


def _cmd_density_table(spec: CommandSpec) -> int:
    p = int(spec.options["p"])
    n = int(spec.options["n"])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["p", "s", "n", "count", "density", "f_density", "gap"])
    for row in slice_table(p, n):
        f_val = euler_frobenius_density(p, row.s)
        writer.writerow(
            [p, row.s, n, row.count, repr(float(row.density)), repr(float(f_val)),
             repr(float(abs(row.density - f_val)))]
        )
    text = buf.getvalue()
    _write(spec.output_dir / "table.csv", text)
    sys.stdout.write(text)
    return EXIT_OK


def _cmd_simulate(spec: CommandSpec) -> int:
    config = _config_from_options(spec.options)
    summary = run_clt_experiment(config)
    _write(spec.output_dir / "samples.csv",
           emit_samples_csv(summary.raw_traces, summary.w_values))
    _write(spec.output_dir / "summary.json",
           emit_summary_json(config, summary=summary))
    sys.stdout.write(_text_report(summary))
    return EXIT_OK


def _cmd_tv_bound(spec: CommandSpec) -> int:
    config = _config_from_options(spec.options)
    stein = estimate_kappas(config)
    _write(spec.output_dir / "summary.json",
           emit_summary_json(config, stein=stein))
    for name in ("kappa0_hat", "kappa1_hat", "kappa2_hat", "sigma2_hat", "tv_bound"):
        print(f"{name} {repr(getattr(stein, name))}")
    return EXIT_OK


def _cmd_norm_scaling(spec: CommandSpec) -> int:
    ensemble = from_family(str(spec.options.get("family") or "gaussian"))
    sizes = _parse_sizes_flag(str(spec.options["sizes"]))
    trials = int(spec.options.get("trials") or 50)
    seed = int(spec.options.get("seed") or 0)
    rows = norm_scaling_study(ensemble, sizes, trials, master_seed=seed)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "trials", "max_ratio", "mean_ratio"])
    for row in rows:
        writer.writerow([row.n, row.trials, repr(row.max_ratio), repr(row.mean_ratio)])
    text = buf.getvalue()
    _write(spec.output_dir / "table.csv", text)
    sys.stdout.write(text)
    return EXIT_OK


def _cmd_moments(spec: CommandSpec) -> int:
    config = _config_from_options(spec.options)
    max_order = int(spec.options.get("max_order") or 8)
    summary = run_clt_experiment(config)
    central = empirical_moments(summary.w_values, max_order)
    standardized = standardized_moments(summary.w_values, max_order)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["order", "central_moment", "gaussian_target",
         "standardized_moment", "standardized_target"]
    )
    for order in range(1, max_order + 1):
        writer.writerow([
            order,
            repr(float(central[order - 1])),
            repr(gaussian_central_moment(order, summary.target_variance)),
            repr(float(standardized[order - 1])),
            repr(gaussian_central_moment(order, 1.0)),
        ])
    text = buf.getvalue()
    _write(spec.output_dir / "table.csv", text)
    sys.stdout.write(text)
    return EXIT_OK


_DISPATCH = {
    "variance": _cmd_variance,
    "density-table": _cmd_density_table,
    "simulate": _cmd_simulate,
    "tv-bound": _cmd_tv_bound,
    "norm-scaling": _cmd_norm_scaling,
    "moments": _cmd_moments,
}


def run_command(spec: CommandSpec) -> int:
    """Dispatch one parsed command; refusals and I/O failures map to exit codes."""
    try:
        return _DISPATCH[spec.subcommand](spec)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REFUSED


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
        p.add_argument("--config", help="path to a JSON config document")
        p.add_argument("--n", type=int, help="matrix size")
        p.add_argument("--poly", help="dense coefficients from degree 0, e.g. 0,0,1")
        p.add_argument("--family", help="ensemble family")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--m", type=int, help="replica count")
        p.add_argument("--workers", type=int, help="worker count")

    p = sub.add_parser("variance", help="print the exact limiting variance")
    p.add_argument("--poly", required=True)

    p = sub.add_parser("density-table", help="slice counts and densities as CSV")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("simulate", help="run the Monte Carlo CLT experiment")
    add_experiment_flags(p)

    p = sub.add_parser("tv-bound", help="assemble the total-variation bound")
    add_experiment_flags(p)

    p = sub.add_parser("norm-scaling", help="spectral norm vs sqrt(log n)")
    p.add_argument("--family", default="gaussian")
    p.add_argument("--sizes", required=True, help="comma-separated sizes")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("moments", help="standardized moments of the statistic")
    add_experiment_flags(p)
    p.add_argument("--max-order", type=int, default=8, dest="max_order")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    options = {k.replace("-", "_"): v for k, v in vars(args).items()}
    out = options.pop("out", None) or os.environ.get(OUTPUT_DIR_ENV) or "."
    spec = CommandSpec(
        subcommand=str(options.pop("subcommand")),
        options=options,
        output_dir=Path(out),
    )
    return run_command(spec)


if __name__ == "__main__":
    raise SystemExit(main())
