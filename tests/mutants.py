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
        "Philox output buffer kept when a generator moves to a block",
        "ensembles.py",
        "    state.update(buffer_pos=4, has_uint32=0, uinteger=0)\n",
        "",
        ("tests/test_ensembles.py::TestRandomStream::"
         "test_moved_generator_draws_each_block_afresh",),
    ),
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
        "    np.conjugate(dvals, out=dvals)\n",
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
        "harness.py",
        "        moduli = sq.reshape(-1)[: lam.size].reshape(lam.shape)\n"
        "        hess = np.abs(second, out=moduli).max(axis=1)\n",
        "        hess = np.polynomial.polynomial.polyval(\n"
        "            np.abs(lam).max(axis=1),\n"
        "            [k * (k - 1) * abs(a) for k, a in poly.terms()])\n",
        ("tests/test_harness.py::TestSteinMachinery::"
         "test_kappa2_majorizes_fd_hessian_of_trace",),
    ),
    Mutant(
        "Hessian moduli written over the gradient before kappa0 and kappa1 read it",
        "harness.py",
        "        np.square(sq, out=sq)\n"
        "        squared = sq.sum(axis=1) ** 2\n"
        "        quartic = np.square(sq, out=sq).sum(axis=1)\n"
        "        # the gradient is read: its first lam.size values take the moduli,\n"
        "        # one contiguous (rows, bins) block (lam's shape: P'' of a degree-2\n"
        "        # polynomial is a scalar)\n"
        "        second = poly.second_derivative_values(lam, out=bufs.vals[: len(lam)])\n"
        "        moduli = sq.reshape(-1)[: lam.size].reshape(lam.shape)\n"
        "        hess = np.abs(second, out=moduli).max(axis=1)\n",
        "        second = poly.second_derivative_values(lam, out=bufs.vals[: len(lam)])\n"
        "        moduli = sq.reshape(-1)[: lam.size].reshape(lam.shape)\n"
        "        hess = np.abs(second, out=moduli).max(axis=1)\n"
        "        np.square(sq, out=sq)\n"
        "        squared = sq.sum(axis=1) ** 2\n"
        "        quartic = np.square(sq, out=sq).sum(axis=1)\n",
        ("tests/test_block_kernel.py::test_block_kernel_matches_per_replica_oracles",),
    ),
    Mutant(
        "samples.csv cells written at 15 significant digits",
        "cli.py",
        '"%d,%.17g,%.17g\\n"',
        '"%d,%.15g,%.15g\\n"',
        ("tests/test_cli.py::TestEmitters::"
         "test_samples_csv_cells_parse_back_to_the_same_double",),
    ),
    Mutant(
        "last samples.csv row dropped",
        "cli.py",
        '"%d,%.17g,%.17g\\n" * m) % tuple(cells)',
        '"%d,%.17g,%.17g\\n" * (m - 1)) % tuple(cells[:-3])',
        ("tests/test_cli.py::TestEmitters::test_csv_round_trip",),
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
        "worker-dependent seed",
        "harness.py",
        "rng = worker_generator(config.master_seed)",
        "rng = worker_generator(config.master_seed + _worker)",
        ("tests/test_harness.py::TestBlockCursor::"
         "test_a_slow_block_holds_back_no_other",),
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
    # the next three reach only the split half spectrum; the first is the
    # halving line of the t = n/2 entry, which is row n2/2 once n is split
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
        "        _twiddle(spec, bufs.twiddles)\n",
        "        _twiddle(spec, [t.conj() for t in bufs.twiddles])\n",
        ("tests/test_circulant.py::TestSpectrum::"
         "test_split_half_spectrum_is_in_k2_k1_order_bin_by_bin",),
    ),
    Mutant(
        "inverse twiddle not conjugated",
        "circulant.py",
        "bufs.inverse_twiddles = tuple(t.conj() for t in bufs.twiddles)",
        "bufs.inverse_twiddles = bufs.twiddles",
        ("tests/test_block_kernel.py::test_split_kernel_matches_per_replica_oracles",),
    ),
    Mutant(
        "fourth moment from z2 * z",
        "harness.py",
        "z2 * z2)",
        "z2 * z)",
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
