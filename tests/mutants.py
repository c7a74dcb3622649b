"""Mutants of the package that the test suite must kill.

Each entry names a module of ``src/circulant_clt``, a piece of its text,
the text that replaces it, and the tests that must fail once it is
replaced.  For each entry the script copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory, makes the one replacement
there and runs pytest on the entry's selection.  The mutant is killed
when pytest reports a failed test.  Nothing outside the temporary
directory is written.

    python tests/mutants.py          # every entry
    python tests/mutants.py 0 4      # entries by index

It prints one line per mutant and then killed/total, and exits 1 unless
every mutant was killed.  A mutant whose text is not in its module
exactly once, or whose selection pytest cannot run (a renamed test, say),
counts as not killed; tests/test_mutants.py checks both in Tier-1.  The
file is not a test module: Tier-1 does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "W scaled by 1.05",
        "harness.py",
        "w = (traces - t_bar) / math.sqrt(config.n)",
        "w = 1.05 * (traces - t_bar) / math.sqrt(config.n)",
        ("tests/test_harness.py::TestRunExperiment::test_w_is_centered_and_scaled",),
    ),
    Mutant(
        "Hermitian weight 2 at t = 0",
        "circulant.py",
        "re[:, : bufs.n1] *= 0.5",
        "re[:, : bufs.n1] *= 1.0",
        ("tests/test_block_kernel.py::test_block_kernel_matches_per_replica_oracles",),
    ),
    Mutant(
        "P' not conjugated in gradient_block",
        "circulant.py",
        "    np.conjugate(spec, out=spec)\n",
        "",
        ("tests/test_block_kernel.py::test_block_kernel_matches_per_replica_oracles",),
    ),
    Mutant(
        "np.conjugate(lam, out=lam) put back in half_spectrum",
        "circulant.py",
        "        np.fft.fft(spec, axis=2, norm=\"ortho\", out=spec)\n    return lam\n",
        "        np.fft.fft(spec, axis=2, norm=\"ortho\", out=spec)\n"
        "    np.conjugate(lam, out=lam)\n    return lam\n",
        ("tests/test_circulant.py::TestSpectrum::"
         "test_half_spectrum_is_the_first_half_bin_by_bin",),
    ),
    Mutant(
        "Rademacher bits cast without the sign map",
        "ensembles.py",
        "        signs *= 2\n        signs -= 1\n",
        "",
        ("tests/test_ensembles.py::TestSampling::test_rademacher_rows_pin_the_stream",),
    ),
    Mutant(
        "kappa2 from the majorant m2(max_t |lambda_t|) instead of max_t |P''(lambda_t)|",
        "circulant.py",
        "    np.abs(np.reshape(second, -1), out=scratch.real.reshape(-1))\n"
        "    hess = scratch.real.max(axis=1)\n",
        "    hess = np.polynomial.polynomial.polyval(\n"
        "        np.abs(lam).max(axis=1),\n"
        "        [k * (k - 1) * abs(a) for k, a in poly.terms()])\n",
        ("tests/test_harness.py::TestSteinMachinery::"
         "test_kappa2_majorizes_fd_hessian_of_trace",),
    ),
    # the next two reorder kappa_block's steps: the gradient's P' goes
    # into the scratch array that holds the Hessian moduli, and its irfft
    # over the half spectra that P'' reads
    Mutant(
        "Hessian moduli read after the gradient's P' was written over them",
        "circulant.py",
        "    hess = scratch.real.max(axis=1)\n"
        "    # the gradient last, over lam, which nothing reads after it\n"
        "    sq = gradient_block(lam, poly, bufs)\n",
        "    sq = gradient_block(lam, poly, bufs)\n"
        "    hess = scratch.real.max(axis=1)\n",
        ("tests/test_block_kernel.py::test_kernel_matches_oracles_at_split_sizes",),
    ),
    Mutant(
        "gradient written over lam before the Hessian reads it",
        "circulant.py",
        "    scratch = bufs.scratch[: len(lam)]\n"
        "    second = poly.second_derivative_values(lam, out=scratch)\n"
        "    np.abs(np.reshape(second, -1), out=scratch.real.reshape(-1))\n"
        "    hess = scratch.real.max(axis=1)\n"
        "    # the gradient last, over lam, which nothing reads after it\n"
        "    sq = gradient_block(lam, poly, bufs)\n",
        "    sq = gradient_block(lam, poly, bufs)\n"
        "    scratch = bufs.scratch[: len(lam)]\n"
        "    second = poly.second_derivative_values(lam, out=scratch)\n"
        "    np.abs(np.reshape(second, -1), out=scratch.real.reshape(-1))\n"
        "    hess = scratch.real.max(axis=1)\n",
        ("tests/test_block_kernel.py::test_kernel_matches_oracles_at_split_sizes",),
    ),
    # the next two round the bulk-spelled cells to 15 digits (the last two
    # of the 17 are zeros, which %g drops) and drop the last row's two half
    # rows
    Mutant(
        "samples.csv cells written at 15 significant digits",
        "cli.py",
        "digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)",
        "digits = 100 * np.rint((hi + lo) / 100).astype(np.int64)",
        ("tests/test_cli.py::TestEmitters::"
         "test_samples_csv_cells_parse_back_to_the_same_double",),
    ),
    Mutant(
        "last samples.csv row dropped",
        "cli.py",
        'return header + out.tobytes().translate(None, b"\\0").decode("ascii")',
        'return header + out[:-2].tobytes().translate(None, b"\\0").decode("ascii")',
        ("tests/test_cli.py::TestEmitters::test_csv_round_trip",),
    ),
    Mutant(
        "lo dropped from the two-product: 17 digits of the rounded a * 10^k",
        "cli.py",
        "digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)",
        "digits = hi.astype(np.int64)",
        ("tests/test_cli.py::TestEmitters::test_cells_match_format_17g",),
    ),
    Mutant(
        "each samples.csv chunk's last row skipped",
        "cli.py",
        "stop = start + SAMPLES_CHUNK_ROWS\n",
        "stop = start + SAMPLES_CHUNK_ROWS - 1\n",
        ("tests/test_cli.py::TestEmitters::test_chunks_write_every_row_once",),
    ),
    Mutant(
        "samples.csv formatted whole before it is written",
        "cli.py",
        "SAMPLES_CHUNK_ROWS = 4096\n",
        "SAMPLES_CHUNK_ROWS = 2**62\n",
        ("tests/test_cli.py::TestEmitters::"
         "test_tail_memory_is_independent_of_the_file_size",),
    ),
    Mutant(
        "Hermitian weight 2 at t = n/2",
        "circulant.py",
        "re[:, -bufs.n1 :] *= 0.5",
        "re[:, -bufs.n1 :] *= 1.0",
        ("tests/test_block_kernel.py::test_block_kernel_matches_per_replica_oracles",),
    ),
    Mutant(
        "Horner steps swapped: the coefficient added before the multiply",
        "circulant.py",
        "        acc *= z\n        if a:\n            acc += a\n",
        "        if a:\n            acc += a\n        acc *= z\n",
        ("tests/test_circulant.py::TestTracePolynomial::test_dense_oracle_n64",),
    ),
    Mutant(
        "n dropped from the block counter",
        "ensembles.py",
        "counter=[0, 0, block, out.shape[1]]",
        "counter=[0, 0, block, 0]",
        ("tests/test_ensembles.py::TestSampling::test_sizes_share_no_inputs",),
    ),
    Mutant(
        "block index read as the block's first replica",
        "harness.py",
        "draw_rows(config.ensemble, key, lo // rows, bufs.inputs(k))",
        "draw_rows(config.ensemble, key, lo, bufs.inputs(k))",
        ("tests/test_golden.py::test_digests_match_golden_json",),
    ),
    Mutant(
        "seed range < 2**64 read as <= 2**64 in ExperimentConfig",
        "harness.py",
        "0 <= self.master_seed < 2**64",
        "0 <= self.master_seed <= 2**64",
        ("tests/test_harness.py::TestConfigValidation::test_seed_range",),
    ),
    Mutant(
        "zero coefficients not skipped in limiting_variance",
        "combinatorics.py",
        "        if a:\n            total += Fraction(a) ** 2 * factorial(ell)\n",
        "        total += Fraction(a) ** 2 * factorial(ell)\n",
        ("tests/test_combinatorics.py::TestLimitingVariance::"
         "test_factorials_taken_for_nonzero_terms_in_range",),
    ),
    Mutant(
        "limiting_variance summed on past the largest float",
        "combinatorics.py",
        "        if total > float_info.max:\n            break\n",
        "",
        ("tests/test_combinatorics.py::TestLimitingVariance::"
         "test_factorials_taken_for_nonzero_terms_in_range",),
    ),
    # the next four reach only the split path; the first is the halving
    # line of the t = n/2 entry, which is row n2/2 once n is split.  The
    # gradient conjugates after its twiddle multiply, so multiplying there
    # by the conjugate table leaves the inverse with unconjugated twiddles
    Mutant(
        "weight 2 on split row n2/2",
        "circulant.py",
        "re[:, -bufs.n1 :] *= 0.5",
        "re[:, -bufs.n1 :] *= 1.0",
        ("tests/test_block_kernel.py::test_split_kernel_matches_per_replica_oracles",),
    ),
    Mutant(
        "forward twiddle's sign flipped",
        "circulant.py",
        "-2j * np.pi / n",
        "2j * np.pi / n",
        ("tests/test_circulant.py::TestSpectrum::"
         "test_split_half_spectrum_is_in_k2_k1_order_bin_by_bin",),
    ),
    Mutant(
        "inverse twiddle not conjugated",
        "circulant.py",
        "        np.fft.fft(spec, axis=2, norm=\"ortho\", out=spec)\n"
        "        spec *= bufs.twiddles\n",
        "        np.fft.fft(spec, axis=2, norm=\"ortho\", out=spec)\n"
        "        spec *= bufs.twiddles.conj()\n",
        ("tests/test_block_kernel.py::test_split_kernel_matches_per_replica_oracles",),
    ),
    Mutant(
        "gradient's twiddle multiply moved before its n1 fft",
        "circulant.py",
        "        np.fft.fft(spec, axis=2, norm=\"ortho\", out=spec)\n"
        "        spec *= bufs.twiddles\n",
        "        spec *= bufs.twiddles\n"
        "        np.fft.fft(spec, axis=2, norm=\"ortho\", out=spec)\n",
        ("tests/test_block_kernel.py::test_split_kernel_matches_per_replica_oracles",),
    ),
    Mutant(
        "fourth moment from z2 * z",
        "harness.py",
        "    z2 *= z2\n",
        "    z2 = z\n",
        ("tests/test_harness.py::TestMoments::test_matches_manual_computation",),
    ),
    # the next two replace the locked cursor of _replica_blocks; the first
    # keeps the next block start on the shared function object
    Mutant(
        "unlocked cursor: the next block start read, then advanced",
        "harness.py",
        "            with cursor_lock:\n"
        "                lo = next(cursor, None)\n",
        "            lo = getattr(run_blocks, 'next_lo', 0)\n"
        "            if lo >= m:\n"
        "                return\n"
        "            run_blocks.next_lo = lo + rows\n",
        ("tests/test_harness.py::TestBlockCursor::"
         "test_cursor_under_constant_thread_switches",),
    ),
    Mutant(
        "round-robin dealing: worker w takes every workers-th block from w",
        "harness.py",
        "        while True:\n"
        "            with cursor_lock:\n"
        "                lo = next(cursor, None)\n"
        "            if lo is None:\n"
        "                return\n",
        "        for lo in starts[_worker::workers]:\n",
        ("tests/test_harness.py::TestBlockCursor::"
         "test_a_slow_block_holds_back_no_other",),
    ),
    # moves W in its last bits only, below every tolerance-based test
    Mutant(
        "W scaled by the rounded 1 / sqrt(n)",
        "harness.py",
        "w = (traces - t_bar) / math.sqrt(config.n)",
        "w = (traces - t_bar) * (1 / math.sqrt(config.n))",
        ("tests/test_golden.py::test_digests_match_golden_json",),
    ),
    # the value is then unbound, but a replica runs before it is read
    Mutant(
        "tv-bound runs its replicas before the limiting variance is checked",
        "harness.py",
        "    sigma2_target_scaled = config.n * float(limiting_variance(config.poly))\n"
        "    _require_finite(sigma2_target_scaled=sigma2_target_scaled)\n",
        "",
        ("tests/test_cli.py::TestSimulateCommand::"
         "test_limiting_variance_refused_before_any_replica",),
    ),
    # the limiting variance still checked, but not n times it
    Mutant(
        "tv-bound runs its replicas before sigma2_target_scaled is checked",
        "harness.py",
        "    _require_finite(sigma2_target_scaled=sigma2_target_scaled)\n",
        "",
        ("tests/test_cli.py::TestSimulateCommand::"
         "test_limiting_variance_refused_before_any_replica",),
    ),
    # the rounded target as a ratio of integers: right wherever sum_k a_k^2 k!
    # is a float, which a double coefficient's square need not be
    Mutant(
        "target_variance_exact taken from the float target",
        "harness.py",
        "target_variance_exact=str(exact)",
        "target_variance_exact=\"%d/%d\" % target.as_integer_ratio()",
        ("tests/test_cli.py::TestSimulateCommand::"
         "test_target_variance_exact_is_the_exact_rational",),
    ),
    Mutant(
        "sigma2_target_scaled reported without the factor n",
        "harness.py",
        "sigma2_target_scaled = config.n * float(limiting_variance(config.poly))",
        "sigma2_target_scaled = float(limiting_variance(config.poly))",
        ("tests/test_cli.py::TestTvBoundCommand::test_reports_all_components",),
    ),
    # the quartic sums of a multi-row block in reverse row order: their mean,
    # and so kappa0_hat, is unchanged
    Mutant(
        "kappa_block's quartic sums reversed within a block",
        "circulant.py",
        "    return quartic, squared, hess**4, traces\n",
        "    return quartic[::-1], squared, hess**4, traces\n",
        ("tests/test_block_kernel.py::test_split_kernel_matches_per_replica_oracles",),
    ),
    # every quartic sum 3e-11 too large: inside each replica's bound on the
    # gradient's rounding at the split sizes, but not in the mean
    Mutant(
        "kappa_block's quartic sums 3e-11 too large",
        "circulant.py",
        "    return quartic, squared, hess**4, traces\n",
        "    return quartic * (1 + 3e-11), squared, hess**4, traces\n",
        ("tests/test_block_kernel.py::test_kernel_matches_oracles_at_split_sizes",),
    ),
    # 1 KiB per replica kept alive until the run ends: far below the
    # absolute bounds on the peak, but it grows with m
    Mutant(
        "1 KiB kept per replica in _replica_blocks",
        "harness.py",
        "            out[:, lo : lo + k] = fn(lam, config.poly, bufs)\n",
        "            out[:, lo : lo + k] = fn(lam, config.poly, bufs)\n"
        "            run_blocks.__dict__.setdefault('kept', []).append(bytearray(1024 * k))\n",
        ("tests/test_block_kernel.py::test_peak_memory_per_worker_independent_of_m",),
    ),
)


def run(mutant: Mutant) -> str:
    """'killed', 'survived', or why the mutant could not be tested."""
    with tempfile.TemporaryDirectory(prefix="circulant-clt-mutant-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", "*.pyc")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", copy)
        module = copy / "src" / "circulant_clt" / mutant.module
        text = module.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return f"not applied: its text occurs {text.count(mutant.old)} times"
        module.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=copy, capture_output=True, text=True,
            env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        )
    # pytest exits 1 when a test failed and 0 when all passed; anything else
    # (no test collected, a usage or collection error) tested nothing
    return {0: "survived", 1: "killed"}.get(
        proc.returncode, f"not tested: pytest exited {proc.returncode}")


def main(argv: list[str]) -> int:
    chosen = [MUTANTS[int(i)] for i in argv] if argv else list(MUTANTS)
    killed = 0
    for mutant in chosen:
        outcome = run(mutant)
        killed += outcome == "killed"
        print(f"{outcome:>9}  {mutant.module}: {mutant.name}", flush=True)
    print(f"killed {killed}/{len(chosen)}")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
