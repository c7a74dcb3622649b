"""Command-line front end: config parsing, study dispatch, CSV/JSON output.

Subcommands: variance, simulate, tv-bound.
The harness records carry every value a report holds; summary.json is
their non-array fields, serialized here, and nothing is computed for it.
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
from .harness import ConfigError, ExperimentConfig, estimate_kappas, run_clt_experiment

CONFIG_KEYS = frozenset({"n", "poly", "family", "seed", "m", "worker_count"})
DEFAULT_REPLICAS = 2000

EXIT_OK = 0
EXIT_REFUSED = 2
EXIT_IO = 3


def parse_config(doc) -> ExperimentConfig:
    """Validate a key-value config document into an ExperimentConfig.

    Accepts a JSON string or a mapping.  Unknown keys are rejected;
    n and poly are required; m defaults to 2000, and worker_count to
    ExperimentConfig's default, the CPUs the process may run on.  poly must
    be a list of numbers, and n, m, seed and worker_count integers; nothing
    is rounded or split into digits.
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
    data = {"m": DEFAULT_REPLICAS, "seed": 0, **data}
    if not isinstance(data["poly"], list):  # TestPolynomial checks each coefficient
        raise ConfigError(f"config key poly must be a list of numbers, "
                          f"not {data['poly']!r}")
    try:
        # the keys left, n, m and worker_count where given, are field names
        poly = TestPolynomial.from_dense(data.pop("poly"))
        ensemble = EnsembleSpec(data.pop("family", "gaussian"))
        return ExperimentConfig(poly=poly, ensemble=ensemble,
                                master_seed=data.pop("seed"), **data)
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


# samples.csv is formatted and written this many rows at a time, so the
# file's size sets no memory peak; no output depends on it
SAMPLES_CHUNK_ROWS = 4096

# A chunk is built as rows of uint16 columns, two ASCII bytes each, with NUL
# where a cell is narrower than its column; the NULs are dropped at the end.
# _PAIRS spells the base-100 digits in segments of 100 entries: the pair
# holding digit 2j of a number shown with w digits (zero-filled) reads
# segment 2j + 22 - w, which shows both digits up to segment 20, the units
# digit alone at 21 and neither from 22 on.
_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)) * 21
                       + b"".join(b"\0%d" % (i % 10) for i in range(100))
                       + b"\0\0" * 100 * 19, dtype=np.uint16)
_COMMA = np.frombuffer(b",\0,-", dtype=np.uint16)  # by the sign bit
_POINT = np.frombuffer(b"\0\0.\0", dtype=np.uint16)  # by whether a fraction is left
_NEWLINE = np.frombuffer(b"\n\0", dtype=np.uint16)
# 10^k is an exact double for k <= 22; Dekker's split of each into two
# halves of at most 26 significant bits
_POW10 = np.array([float(10**k) for k in range(23)])
_SPLITTER = 2.0**27 + 1
_POW10_HI = _POW10 * _SPLITTER - (_POW10 * _SPLITTER - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# 10^k as an integer, capped at 10^18 (beyond it only multiplies a zero
# integer part)
_INT_POW10 = np.array([10**min(k, 18) for k in range(23)])


def emit_samples_csv(raw_traces, w_values, start: int = 0) -> str:
    """The samples.csv rows of replicas start, start + 1, ...: the header
    first when start is 0, then ``replica,raw_trace,W`` per replica, each
    float spelled as ``'%.17g'`` spells it.

    A cell with 1e-4 <= |x| < 1e15, the fixed-notation range of %g, is
    spelled in bulk from its exact 17 significant digits; any other (0,
    subnormals, larger magnitudes, inf, nan) by one ``%`` over those cells.
    """
    header = "replica,raw_trace,W\n" if start == 0 else ""
    traces = np.asarray(raw_traces, dtype=np.float64)
    m = len(traces)
    if m == 0:
        return header
    x = np.empty(2 * m)  # the float cells in row order
    x[0::2] = traces
    x[1::2] = w_values
    a = np.abs(x)
    slow = np.flatnonzero(~((a >= 1e-4) & (a < 1e15)))
    a[slow] = 1.0  # any value in range: their cells are replaced below
    exponent, digits = _digits17(a)
    # digits = integer * 10^frac_width + fraction; %g drops the fraction's
    # trailing zeros, and its point with the last of them
    frac_width = 16 - exponent
    scale = _INT_POW10.take(frac_width)
    integer = np.floor(a).astype(np.int64)
    fraction = digits - integer * scale
    carry = np.flatnonzero(fraction >= scale)  # rounded up to the next integer
    integer[carry] += 1
    fraction[carry] -= scale[carry]
    int_width = np.maximum(exponent + 1, 1)
    ends_in_zero = np.flatnonzero(fraction % 10 == 0)
    while ends_in_zero.size:
        zero = fraction[ends_in_zero] == 0
        frac_width[ends_in_zero[zero]] = 0
        ends_in_zero = ends_in_zero[~zero]
        fraction[ends_in_zero] //= 10
        frac_width[ends_in_zero] -= 1
        ends_in_zero = ends_in_zero[fraction[ends_in_zero] % 10 == 0]
    # the other cells as '%.17g' spells them, at most 24 characters, each
    # after its comma and padded with NULs to 25 bytes
    spelled = np.frombuffer((",%-24.17g" * slow.size % tuple(x[slow].tolist()))
                            .encode("ascii").replace(b" ", b"\0"), dtype=np.uint8)
    n_int = (int(int_width.max()) + 1) // 2
    n_frac = (int(frac_width.max()) + 1) // 2
    # in 2-byte columns, of which a spelled cell takes 13
    width = max(2 + n_int + n_frac, 13 if slow.size else 0)
    replicas = np.arange(start, start + m)
    n_replica = (len(str(start + m - 1)) + 1) // 2
    # two half rows per row: the replica and raw_trace, then W and the newline
    half = n_replica + 1 + width
    out = np.empty((2 * m, half), dtype=np.uint16)
    rows = out.reshape(m, 2, half)
    _put_digits(rows[:, 0, :n_replica], replicas,
                np.maximum(np.searchsorted(_INT_POW10[:19], replicas, side="right"), 1))
    rows[:, 1, :n_replica] = 0
    cells = out[:, n_replica:-1]
    cells[:, 0] = _COMMA.take(np.signbit(x))
    _put_digits(cells[:, 1:1 + n_int], integer, int_width)
    cells[:, 1 + n_int] = _POINT.take(frac_width > 0)
    _put_digits(cells[:, 2 + n_int:2 + n_int + n_frac], fraction, frac_width)
    cells[:, 2 + n_int + n_frac:] = 0
    if slow.size:
        cells.view(np.uint8)[slow, :25] = spelled.reshape(-1, 25)
        cells.view(np.uint8)[slow, 25:] = 0
    rows[:, 0, -1] = 0
    rows[:, 1, -1] = _NEWLINE
    return header + out.tobytes().translate(None, b"\0").decode("ascii")


def _digits17(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The decimal exponent X and the 17 significant digits D, as an integer
    in [10^16, 10^17), of each 1e-4 <= a < 1e15 rounded half-even to 17
    digits: a = D * 10^(X - 16) to within half a unit of D."""
    exponent = np.floor(np.log10(a)).astype(np.int64)  # or one off
    c = a * _SPLITTER
    a_hi = c - (c - a)
    a_lo = a - a_hi
    while True:
        k = 16 - exponent
        # a * 10^k = hi + lo exactly: Dekker's two-product
        hi = a * _POW10.take(k)
        p_hi, p_lo = _POW10_HI.take(k), _POW10_LO.take(k)
        lo = a_hi * p_hi - hi
        lo += a_hi * p_lo
        lo += a_lo * p_hi
        lo += a_lo * p_lo
        # hi >= 2^53 is an even integer, so rounding lo half-even rounds
        # hi + lo half-even
        digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
        low, high = digits < 10**16, digits >= 10**17
        if not (low.any() or high.any()):
            # no double lies within half a unit of the 17th digit below a
            # power of ten, so digits in range are the right ones
            return exponent, digits
        exponent += high
        exponent -= low


def _put_digits(columns: np.ndarray, values: np.ndarray, widths: np.ndarray) -> None:
    """Spell each value, 0 <= value < 4 * 10^17, into its row of uint16 pair
    columns, right-aligned: widths[i] digits, zero-filled, and NUL before
    them."""
    segment = (2200 - 100 * widths).astype(np.uint32)
    rest = values
    for j in range(columns.shape[1]):  # pairs from the right
        if j % 4 == 0:  # 32-bit arithmetic on the next 8 digits
            high = rest // 10**8
            pairs = (rest - high * 10**8).astype(np.uint32)
            rest = high
        low = pairs // 100
        pairs -= low * 100
        pairs += segment
        columns[:, -1 - j] = _PAIRS.take(pairs)
        pairs = low
        segment += 200


def emit_summary_json(config: ExperimentConfig, summary=None, stein=None) -> str:
    # each block is every field of its record but the per-replica arrays
    def block(record):
        return None if record is None else {
            k: v for k, v in vars(record).items() if not isinstance(v, np.ndarray)}

    doc = {"config": config_echo(config), "version": __version__,
           "experiment": block(summary), "stein": block(stein)}
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _write(path: Path, content: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")


def _write_samples_csv(path: Path, raw_traces, w_values) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        for start in range(0, len(raw_traces), SAMPLES_CHUNK_ROWS):
            stop = start + SAMPLES_CHUNK_ROWS
            fh.write(emit_samples_csv(raw_traces[start:stop], w_values[start:stop],
                                      start).encode("ascii"))


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
    _write_samples_csv(out / "samples.csv", summary.raw_traces, summary.w_values)
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
