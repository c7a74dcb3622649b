"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line (run with ``pytest -s`` or ``-rA`` to see them inline).

All tolerances are pinned here.

Criterion 2 (slice densities converge at rate 1/n) is checked exactly,
with no tolerance.  Each inclusion-exclusion term of
slice_table(p, n)[s].count, C((s-k)n + p-1, p-1) for k <= s, is a
polynomial in n of degree at most p-1.  So
N(n) = count - f_p(s) n^(p-1) is a polynomial too, and the signed
density error is exactly

    d(n) = N(n) / n^(p-1) = c1/n + c2/n^2 + ... + c_{p-1}/n^(p-1).

The n^(p-2) coefficient of C(mn + p-1, p-1) = prod_{j=1}^{p-1} (mn + j)
/ (p-1)! is m^(p-2) * (1 + ... + (p-1)) / (p-1)! = m^(p-2) p(p-1)/2 /
(p-1)!.  Summing over the terms with m = s-k gives

    c1(p, s) = (p/2) f_p'(s),
    f_p'(s)  = (1/(p-2)!) sum_{k<=s} (-1)^k C(p, k) (s-k)^(p-2),

the derivative of the Euler-Frobenius density at s.  The test evaluates
N in exact rationals at n = h, 2h, ..., p*h (h = 400) and asserts that
its (p-1)-th forward difference is 0 (no constant term in d, nothing
slower than 1/n) and that its (p-2)-th forward differences divided by
(p-2)! h^(p-2) equal c1(p, s) (the rate itself).  A strict halving
err(800) < err(400)/2 is not asserted: the ratio is 1/2 + Theta(1/n) and
lies above 1/2 whenever c2 opposes c1.  It tends to 1/4 where c1 = 0, as
at the mode (p, s) = (4, 2).
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from circulant_clt import (
    EnsembleSpec,
    ExperimentConfig,
    TestPolynomial,
    estimate_kappas,
    run_clt_experiment,
)
from circulant_clt.cli import main as cli_main
from oracles import (
    count_slice_bruteforce,
    dense_matrix,
    euler_frobenius_density,
    gradient_trace_polynomial,
    hessian_norm,
    sample_sequence,
    slice_table,
    spectrum,
    trace_polynomial,
    trace_power_direct,
    trace_power_spectral,
)

POLY_X2 = TestPolynomial((1.0,))
POLY_X3 = TestPolynomial((0.0, 1.0))
POLY_X2_X3 = TestPolynomial((1.0, 1.0))


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def random_poly(rng: np.random.Generator, max_degree: int = 5) -> TestPolynomial:
    width = int(rng.integers(1, max_degree - 1 + 1))  # degrees 2..max_degree
    coeffs = rng.normal(size=width)
    if coeffs[-1] == 0.0:
        coeffs[-1] = 1.0
    return TestPolynomial(tuple(coeffs))


def test_criterion_01_combinatorial_oracle_equivalence():
    for p in range(1, 6):
        for n in range(1, 21):
            table = slice_table(p, n)
            for s in range(p):
                assert table[s].count == count_slice_bruteforce(p, s, n)
    for p in range(1, 7):
        for n in range(1, 51):
            table = slice_table(p, n)
            total = sum(table[s].count for s in range(p))
            assert total == n ** (p - 1)
    report("criterion-01 oracle-equivalence", True,
           "exact == bruteforce on p<=5, n<=20; slice sums exact for p<=6, n<=50")


def density_slope(p: int, s: int) -> Fraction:
    """Exact f_p'(s) = (1/(p-2)!) sum_{k<=s} (-1)^k C(p,k) (s-k)^(p-2), p >= 3."""
    acc = sum((-1) ** k * math.comb(p, k) * (s - k) ** (p - 2) for k in range(s + 1))
    return Fraction(acc, math.factorial(p - 2))


@pytest.mark.parametrize(
    "p,s",
    [(p, s) for p in (3, 4, 5) for s in range(p)
     if euler_frobenius_density(p, s) > 0],
)
def test_criterion_02_density_error_halving(p, s):
    h = 400
    target = euler_frobenius_density(p, s)
    c1 = Fraction(p, 2) * density_slope(p, s)
    # N(n) = count - f_p(s) n^(p-1) on the grid n = h, 2h, ..., p*h
    diffs = [[slice_table(p, j * h)[s].count - target * (j * h) ** (p - 1)
              for j in range(1, p + 1)]]
    for _ in range(p - 1):
        diffs.append([b - a for a, b in zip(diffs[-1], diffs[-1][1:])])
    slopes = [d / (math.factorial(p - 2) * h ** (p - 2)) for d in diffs[p - 2]]
    err = {j * h: abs(diffs[0][j - 1]) / (j * h) ** (p - 1) for j in (1, 2)}
    ratio = err[800] / err[400]
    vanishes = diffs[p - 1] == [0]
    rate_ok = all(slope == c1 for slope in slopes)
    report(f"criterion-02 density-rate p={p} s={s}", vanishes and rate_ok,
           f"err ratio 800/400 = {float(ratio):.6f}, exact c1 = {c1}, "
           f"so the ratio tends to {'1/2' if c1 else '1/4'}")
    assert vanishes, (
        f"(p-1)-th difference of count - f_p(s) n^(p-1) is {diffs[p - 1][0]}, "
        "not 0: the density error has a term that does not vanish like 1/n"
    )
    assert rate_ok, (
        f"1/n coefficient of the density error is {slopes}, "
        f"expected (p/2) f_p'(s) = {c1}"
    )


def test_criterion_03_trace_route_equivalence():
    rng = np.random.default_rng(301)
    families = [EnsembleSpec(f) for f in ("gaussian", "rademacher", "uniform_symmetric")]
    worst = 0.0
    for case in range(200):
        n = int(rng.integers(2, 33))
        p = int(rng.integers(1, 5))
        spec = families[case % 3]
        raw = sample_sequence(spec, n, 1003, case)
        a = trace_power_spectral(spectrum(raw), p)
        b = trace_power_direct(raw, p)
        gap = abs(a - b) / max(1.0, abs(a), abs(b))
        worst = max(worst, gap)
        assert gap <= 1e-10
    for case in range(20):
        n = int(rng.integers(2, 65))
        poly = random_poly(rng)
        raw = sample_sequence(families[case % 3], n, 1004, case)
        C = dense_matrix(raw)
        power = C.copy()
        dense = 0.0
        for k in range(2, len(poly.dense())):
            power = power @ C
            dense += dict(poly.terms()).get(k, 0.0) * np.trace(power)
        fast = trace_polynomial(spectrum(raw), poly)
        assert abs(fast - dense) <= 1e-8 * max(1.0, abs(dense))
    report("criterion-03 trace-routes", True,
           f"200 spectral/direct cases (worst rel gap {worst:.2e}); "
           "20 dense-oracle cases at 1e-8")


@pytest.mark.parametrize("family", ["gaussian", "rademacher", "uniform_symmetric"])
@pytest.mark.parametrize(
    "poly,target",
    [(POLY_X2, 2.0), (POLY_X3, 6.0), (POLY_X2_X3, 8.0)],
    ids=["x2", "x3", "x2+x3"],
)
def test_criterion_04_limiting_variance(family, poly, target):
    config = ExperimentConfig(
        n=1024, m=2000, poly=poly, ensemble=EnsembleSpec(family),
        master_seed=404, worker_count=2,
    )
    summary = run_clt_experiment(config)
    gap = abs(summary.variance_w - target) / target
    ok = gap <= 0.10
    report(f"criterion-04 variance {family} {poly.dense()}", ok,
           f"Var(W) = {summary.variance_w:.4f}, target {target}, gap {gap:.1%}")
    assert ok


def test_criterion_05_distributional_convergence():
    config = ExperimentConfig(
        n=1024, m=5000, poly=POLY_X2_X3, ensemble=EnsembleSpec("gaussian"),
        master_seed=505, worker_count=2,
    )
    summary = run_clt_experiment(config)
    m = config.m
    skew = summary.standardized_moments[2]
    kurt = summary.standardized_moments[3]
    se_skew = math.sqrt(6.0 / m)
    se_kurt = math.sqrt(24.0 / m)
    ok = (
        summary.ks_distance <= 0.03
        and abs(skew) <= 4 * se_skew
        and abs(kurt - 3.0) <= 4 * se_kurt
    )
    report("criterion-05 distribution", ok,
           f"KS = {summary.ks_distance:.4f} (<= 0.03), skew {skew:.3f} "
           f"(|.| <= {4 * se_skew:.3f}), kurt {kurt:.3f} "
           f"(|.-3| <= {4 * se_kurt:.3f})")
    assert ok


def test_criterion_06_degree_one_identity():
    rng = np.random.default_rng(606)
    families = [EnsembleSpec(f) for f in ("gaussian", "rademacher", "uniform_symmetric")]
    for case in range(100):
        n = int(rng.integers(1, 2049))
        raw = sample_sequence(families[case % 3], n, 606, case)
        lhs = trace_power_spectral(spectrum(raw), 1) / math.sqrt(n)
        x0 = raw[0]
        assert abs(lhs - x0) <= 1e-12 * (1 + abs(x0))
    report("criterion-06 degree-one identity", True,
           "Tr(C)/sqrt(n) == X_0 to 1e-12 in 100 random samples")


@pytest.mark.parametrize("n", [255, 256, 1023, 1024])
def test_criterion_07_mean_boundedness(n):
    config = ExperimentConfig(
        n=n, m=4000, poly=POLY_X2, ensemble=EnsembleSpec("gaussian"),
        master_seed=707, worker_count=2,
    )
    summary = run_clt_experiment(config)
    expected = 2.0 if n % 2 == 0 else 1.0
    se = float(summary.raw_traces.std(ddof=1)) / math.sqrt(config.m)
    gap = abs(summary.raw_trace_mean - expected)
    ok = gap <= 3 * se
    report(f"criterion-07 mean-boundedness n={n}", ok,
           f"mean Tr(C^2) = {summary.raw_trace_mean:.3f}, "
           f"expected {expected}, gap {gap:.3f} <= 3*SE = {3 * se:.3f}")
    assert ok


def test_criterion_08_gradient_vs_finite_differences():
    rng = np.random.default_rng(808)
    families = [EnsembleSpec(f) for f in ("gaussian", "uniform_symmetric", "rademacher")]
    step = 1e-5
    worst = 0.0
    for case in range(50):
        n = int(rng.integers(2, 129))
        poly = random_poly(rng)
        raw = sample_sequence(families[case % 3], n, 808, case)
        grad = gradient_trace_polynomial(spectrum(raw), poly)
        fd = np.empty(n)
        for k in range(n):
            Xp = raw.copy()
            Xm = raw.copy()
            Xp[k] += step
            Xm[k] -= step
            fd[k] = (trace_polynomial(spectrum(Xp), poly)
                     - trace_polynomial(spectrum(Xm), poly)) / (2 * step)
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-9)
        worst = max(worst, rel)
        assert rel <= 1e-6
    report("criterion-08 gradient", True,
           f"50 cases (n<=128, d<=5), worst rel error {worst:.2e} <= 1e-6")


def test_criterion_09_hessian_norm():
    rng = np.random.default_rng(909)
    families = [EnsembleSpec(f) for f in ("gaussian", "uniform_symmetric", "rademacher")]
    step = 1e-5
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 33))
        # the pure quadratic has a constant Hessian; keep it in the mix
        poly = POLY_X2 if trial % 10 == 0 else random_poly(rng)
        raw = sample_sequence(families[trial % 3], n, 909, trial)
        H = np.empty((n, n))
        for k in range(n):
            Xp = raw.copy()
            Xm = raw.copy()
            Xp[k] += step
            Xm[k] -= step
            gp = gradient_trace_polynomial(spectrum(Xp), poly)
            gm = gradient_trace_polynomial(spectrum(Xm), poly)
            # Hessian of the statistic g = Tr P(C) itself
            H[:, k] = (gp - gm) / (2 * step)
        opnorm = float(np.linalg.norm(H, 2))
        exact = hessian_norm(spectrum(raw), poly)
        rel = abs(opnorm - exact) / exact
        worst = max(worst, rel)
        assert rel <= 1e-8
    report("criterion-09 hessian-norm", True,
           f"100 FD Hessians of Tr P(C) (n<=32), worst rel error {worst:.2e} "
           f"<= 1e-8 from the materialized Hessian's norm")


def test_criterion_10_tv_bound_machinery():
    def estimate(n):
        return estimate_kappas(
            ExperimentConfig(
                n=n, m=500, poly=POLY_X2, ensemble=EnsembleSpec("gaussian"),
                master_seed=1010, worker_count=2,
            )
        )

    est_small = estimate(256)
    est_large = estimate(4096)
    decay_ok = est_large.tv_bound <= 0.6 * est_small.tv_bound

    band_ns = (256, 1024, 4096)
    ests = {n: estimate(n) for n in band_ns}
    k0_ratios = [ests[n].kappa0_hat / math.sqrt(n) for n in band_ns]
    band0_ok = max(k0_ratios) <= 2 * min(k0_ratios)
    # degree 2: the Hessian of Tr C^2 is 2 times the reversal, of norm exactly 2
    k2_values = [ests[n].kappa2_hat for n in band_ns]
    kappa2_ok = k2_values == [2.0] * len(band_ns)

    ok = decay_ok and band0_ok and kappa2_ok
    report("criterion-10 tv-machinery", ok,
           f"tv(4096)/tv(256) = {est_large.tv_bound / est_small.tv_bound:.4f} "
           f"(<= 0.6); kappa0/sqrt(n) band {max(k0_ratios)/min(k0_ratios):.3f} "
           f"(<= 2); kappa2 = {k2_values} (== 2)")
    assert ok


def test_criterion_12_reproducibility_across_workers(tmp_path):
    docs = []
    csvs = []
    for workers in ("1", "8"):
        out = tmp_path / f"workers-{workers}"
        code = cli_main([
            "--out", str(out), "simulate", "--n", "1024", "--poly", "0,0,1,1",
            "--family", "gaussian", "--seed", "1212", "--m", "2000",
            "--workers", workers,
        ])
        assert code == 0
        doc = json.loads((out / "summary.json").read_text())
        del doc["experiment"]["wall_time_s"]
        docs.append(json.dumps(doc, sort_keys=True))
        csvs.append((out / "samples.csv").read_bytes())
    ok = docs[0] == docs[1] and csvs[0] == csvs[1]
    report("criterion-12 reproducibility", ok,
           "summary.json (minus wall time) and samples.csv byte-identical "
           "for worker_count 1 vs 8")
    assert ok
