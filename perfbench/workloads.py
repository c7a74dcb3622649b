"""Workload table and per-command output checks for the circulant-clt benchmark.

Each workload is one fixed CLI command; only ``--seed`` varies between
commands.  The checks accept any correct random stream: every tolerance is
a statistical bound (a multiple of the standard error, or the DKW bound for
the Kolmogorov-Smirnov distance) plus the finite-n bias measured on the
seed code over ten or more independent streams.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

# All commands run with this many worker threads: nproc of the 2-core box
# the benchmark was defined on.
WORKERS = 2

# Standard errors allowed before a variance check fails.  A 6-sigma
# excursion has probability ~2e-9 per command.
VARIANCE_Z = 6.0
# DKW: P(sup|F_m - F| > c / sqrt(m)) <= 2 exp(-2 c^2) = 1.1e-6 at c = 2.69.
KS_C = 2.69


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    n: int
    poly: tuple[float, ...]
    family: str
    m: int
    # measured finite-n offset |E variance_w - target| (relative for tv-bound)
    variance_bias: float
    # upper bound on the Kolmogorov distance between the finite-n law of W
    # and N(0, target); 0 where the KS distance is not reported
    ks_bias: float
    # upper bound on the kurtosis of W, used to bound the standard error of
    # the variance where the command does not report the kurtosis itself
    kurtosis_cap: float = 0.0

    def argv(self, seed: int, out_dir, workers: int = WORKERS) -> list[str]:
        return [
            "--out", str(out_dir), self.subcommand,
            "--n", str(self.n),
            "--poly", ",".join(format(a, "g") for a in self.poly),
            "--family", self.family,
            "--m", str(self.m),
            "--seed", str(seed),
            "--workers", str(workers),
        ]

    def config(self) -> dict:
        """The config document a CLI user would parse for this workload."""
        return {"n": self.n, "poly": list(self.poly), "family": self.family,
                "m": self.m, "worker_count": WORKERS}


WORKLOADS = {
    w.name: w
    for w in (
        # Loads the per-replica fixed cost: SeedSequence+Philox construction
        # (ensembles.substream), Python dispatch and the GIL in the harness,
        # plus the m-sized KS sort and the m-row samples.csv (cli).
        # Bypasses large-array work: n=64 arrays sit in L1, so the FFT is
        # a small share.  Batching and substream changes show here.  m is
        # 20000 rather than 60000 so that a 30 s run holds ~20 commands.
        Workload("sim-small-n", "simulate", 64, (0, 0, 1, 1), "gaussian", 20000,
                 variance_bias=0.36, ks_bias=0.0175),
        # Loads circulant.fft and circulant.trace: per-term complex powers of
        # a degree-5 polynomial on 2 MiB spectra larger than the per-core
        # L2, with NumPy releasing the GIL so both threads compute.  Runs the
        # Rademacher integer-draw path.  Bypasses per-replica overhead
        # (m=500) and CSV cost.  Where batching could trade memory for speed.
        Workload("sim-large-n", "simulate", 131072, (0, 0, 1, 1, 0, 0.5),
                 "rademacher", 500, variance_bias=1.2, ks_bias=0.024),
        # Loads circulant.gradient (a second FFT per replica), circulant.norm
        # (spectral norm and Hessian majorant), the ndtr transform in
        # ensembles.draw, and 4-wide reductions.  Bypasses samples.csv and
        # the KS/moment statistics.
        Workload("tv-bound", "tv-bound", 4096, (0, 0, 1, 1), "uniform_symmetric",
                 6000, variance_bias=0.02, ks_bias=0.0, kurtosis_cap=4.0),
    )
}


def command_seed(workload_seed: int, index: int) -> int:
    """Master seed of the index-th command of a run; command 0 gets the
    workload seed itself, and runs with different seeds never share one."""
    return workload_seed + (index << 32)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def check_outputs(w: Workload, out_dir: Path, seed: int) -> list[str]:
    """Problems found in one command's output directory (empty if none)."""
    try:
        doc = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"summary.json unreadable: {exc}"]
    problems = []
    expected = {"n": w.n, "m": w.m, "poly": [float(a) for a in w.poly],
                "family": w.family, "seed": seed}
    echo = doc.get("config") or {}
    for key, value in expected.items():
        if echo.get(key) != value:
            problems.append(f"config.{key} echoes {echo.get(key)!r}, expected {value!r}")
    if w.subcommand == "simulate":
        problems += _check_simulate(w, out_dir, doc.get("experiment") or {})
    else:
        problems += _check_tv_bound(w, doc.get("stein") or {})
    return problems


def _check_simulate(w: Workload, out_dir: Path, exp: dict) -> list[str]:
    problems = []
    try:
        with open(out_dir / "samples.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        return [f"samples.csv unreadable: {exc}"]
    if not rows or rows[0] != ["replica", "raw_trace", "W"]:
        problems.append("samples.csv header is not replica,raw_trace,W")
    body = rows[1:]
    if len(body) != w.m:
        problems.append(f"samples.csv has {len(body)} rows, expected {w.m}")
    ws = []
    for r, row in enumerate(body):
        try:
            values = [float(v) for v in row[1:]]
            ok = len(row) == 3 and int(row[0]) == r and all(map(math.isfinite, values))
        except ValueError:
            ok = False
        if not ok:
            problems.append(f"samples.csv row {r} is not (index, finite, finite)")
            break
        ws.append(values[1])
    fields = ("variance_w", "ks_distance", "target_variance")
    if not all(_finite(exp.get(k)) for k in fields) or len(exp.get("standardized_moments") or []) < 4:
        return problems + ["summary.json lacks finite variance_w/ks_distance/target_variance/moments"]
    if exp.get("n") != w.n or exp.get("m") != w.m:
        problems.append("experiment n/m differ from the config")
    var, target = exp["variance_w"], exp["target_variance"]
    if problems:
        return problems
    mean_w = math.fsum(ws) / len(ws)
    csv_var = math.fsum((x - mean_w) ** 2 for x in ws) / (len(ws) - 1)
    if not math.isclose(csv_var, var, rel_tol=1e-9):
        problems.append(f"variance of W in samples.csv {csv_var!r} != variance_w {var!r}")
    kurtosis = exp["standardized_moments"][3]
    se = var * math.sqrt(max(kurtosis - 1.0, 0.0) / w.m)
    if abs(var - target) > w.variance_bias + VARIANCE_Z * se:
        problems.append(
            f"variance_w {var!r} is more than {w.variance_bias} + {VARIANCE_Z}*{se:.4g} "
            f"from target {target!r}"
        )
    ks_limit = w.ks_bias + KS_C / math.sqrt(w.m)
    if not 0.0 <= exp["ks_distance"] <= ks_limit:
        problems.append(f"ks_distance {exp['ks_distance']!r} exceeds {ks_limit:.4g}")
    return problems


def _check_tv_bound(w: Workload, stein: dict) -> list[str]:
    keys = ("kappa0_hat", "kappa1_hat", "kappa2_hat", "sigma2_hat", "tv_bound",
            "sigma2_target_scaled")
    if not all(_finite(stein.get(k)) for k in keys):
        return ["summary.json lacks finite stein kappas/sigma2/tv_bound"]
    problems = [f"{k} is not positive" for k in keys if stein[k] <= 0.0]
    # sigma2_hat estimates n * Var(W); its relative standard error is at
    # most sqrt((kurtosis - 1) / m)
    rel = stein["sigma2_hat"] / stein["sigma2_target_scaled"] - 1.0
    limit = w.variance_bias + VARIANCE_Z * math.sqrt((w.kurtosis_cap - 1.0) / w.m)
    if abs(rel) > limit:
        problems.append(f"sigma2_hat is {rel:+.4f} relative to n*target, limit {limit:.4f}")
    return problems


def comparable(out_dir: Path) -> dict:
    """Outputs that must not depend on worker count or tracing: samples.csv
    bytes and summary.json without its wall time and diagnostics."""

    def strip(node):
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items()
                    if k not in ("wall_time_s", "diagnostics")}
        return node

    files = {}
    for name in ("samples.csv", "summary.json"):
        path = out_dir / name
        if path.exists():
            text = path.read_text(encoding="utf-8")
            files[name] = strip(json.loads(text)) if name.endswith(".json") else text
    return files
