"""CLI tests: config validation, subcommand dispatch, artifact formats,
exit-code discipline, and reproducibility of emitted files."""

import argparse
import csv
import io
import json
import math
import os
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from circulant_clt import ConfigError, cli, harness, run_clt_experiment
from circulant_clt.cli import (
    SAMPLES_CHUNK_ROWS,
    emit_samples_csv,
    emit_summary_json,
    main,
    parse_config,
)
from circulant_clt.harness import ExperimentConfig

MINIMAL = {"n": 512, "poly": [0, 0, 1], "family": "gaussian", "seed": 7}
UNDERFLOW = "underflows: its fourth-power mean is below the smallest normal float"
OVERFLOW = "overflows: its fourth-power mean is above the largest float"


def small_run():
    config = parse_config({**MINIMAL, "n": 32, "m": 40})
    return config, run_clt_experiment(config)


def reference_csv(traces, ws) -> str:
    """samples.csv as the csv module writes it, each float by format(., '.17g')."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["replica", "raw_trace", "W"])
    writer.writerows([r, format(float(t), ".17g"), format(float(w), ".17g")]
                     for r, (t, w) in enumerate(zip(traces, ws)))
    return buf.getvalue()


class TestParseConfig:
    def test_minimal_with_defaults(self):
        config = parse_config(MINIMAL)
        assert isinstance(config, ExperimentConfig)
        assert config.n == 512
        assert config.m == 2000
        assert config.poly.coefficients == (1.0,)
        assert config.ensemble.family == "gaussian"
        assert config.master_seed == 7
        assert config.worker_count >= 1

    def test_accepts_json_text(self):
        config = parse_config(json.dumps(MINIMAL))
        assert config.n == 512

    def test_rejects_degree_one_coefficient(self):
        with pytest.raises(ConfigError, match="degree"):
            parse_config({**MINIMAL, "poly": [0, 1, 1]})

    def test_missing_keys_named(self):
        with pytest.raises(ConfigError, match="n"):
            parse_config({"poly": [0, 0, 1]})
        with pytest.raises(ConfigError, match="poly"):
            parse_config({"n": 16})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="workers"):
            parse_config({**MINIMAL, "workers": 4})

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="JSON"):
            parse_config("{not json")
        with pytest.raises(ConfigError):
            parse_config(json.dumps([1, 2]))

    def test_unknown_family(self):
        with pytest.raises(ConfigError, match="family"):
            parse_config({**MINIMAL, "family": "levy"})


class TestEmitters:
    def test_empty_samples_csv_has_header_only(self):
        assert emit_samples_csv([], []) == "replica,raw_trace,W\n"

    def test_samples_csv_matches_csv_writer(self):
        awkward = np.array([-0.0, 1e-300, 1e16, 0.1, 5e-324, -2.5, float("inf")])
        traces, ws = awkward, awkward[::-1].copy()
        assert emit_samples_csv(traces, ws) == reference_csv(traces, ws)
        assert emit_samples_csv(list(traces), list(ws)) == reference_csv(traces, ws)

    def test_samples_csv_cells_parse_back_to_the_same_double(self):
        special = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                   2.225073858507201e-308, 0.1, 1 / 3, 1e16, 1e17, 2.0**53 + 2,
                   1.7976931348623157e308, -1.7976931348623157e308]
        bits = np.random.Generator(np.random.Philox(11)).integers(
            0, 2**64, size=4000, dtype=np.uint64, endpoint=False)
        random = bits.view(np.float64)
        values = np.concatenate([special, random[np.isfinite(random)]])
        text = emit_samples_csv(values, values[::-1].copy())
        rows = list(csv.reader(io.StringIO(text)))[1:]
        traces = np.array([float(row[1]) for row in rows])
        ws = np.array([float(row[2]) for row in rows])
        # bit patterns, so -0.0 must keep its sign
        assert traces.view(np.uint64).tolist() == values.view(np.uint64).tolist()
        assert ws.view(np.uint64).tolist() == values[::-1].view(np.uint64).tolist()

    def test_cells_match_format_17g(self):
        # every path of the emitter on over 10^6 doubles: random bit
        # patterns, most with an exponent in the range spelled in bulk,
        # 10^k and its neighbours one ulp away, values half way between two
        # 17-digit decimals and their neighbours, zeros, subnormals and
        # infinities
        gen = np.random.Generator(np.random.Philox(17))
        bits = gen.integers(0, 2**64, size=600_000, dtype=np.uint64, endpoint=False)
        # biased exponents 1009..1073: magnitudes 2^-14 (< 1e-4) to 2^51 (> 1e15)
        bits[50_000:] &= np.uint64(2**63 + 2**52 - 1)
        bits[50_000:] |= gen.integers(1009, 1074, size=550_000).astype(np.uint64) << 52
        powers = np.array([float(f"1e{k}") for k in range(-5, 17)])
        # q * 2^(X - 17) with q odd and decimal exponent X ends in the 18th
        # significant digit, a 5
        exponent = gen.integers(-4, 15, size=135_000)
        span = [np.ceil(10.0 ** (exponent + j) * 2.0 ** (17 - exponent)).astype(np.int64)
                for j in (0, 1)]
        half_way = np.ldexp((gen.integers(*span) | 1).astype(np.float64), exponent - 17)
        subnormal = gen.integers(1, 2**52, size=5_000, dtype=np.uint64).view(np.float64)
        values = np.concatenate([
            bits.view(np.float64),
            *(np.nextafter(v, toward) for v in (powers, half_way)
              for toward in (-np.inf, np.inf)),
            powers, half_way, subnormal, [0.0, -0.0, np.inf, -np.inf]])
        values.view(np.uint64)[gen.random(values.size) < 0.5] ^= np.uint64(2**63)
        assert values.size >= 10**6
        traces, ws = values[::2], values[1::2]
        got = "".join(emit_samples_csv(traces[i:i + SAMPLES_CHUNK_ROWS],
                                       ws[i:i + SAMPLES_CHUNK_ROWS], i)
                      for i in range(0, len(traces), SAMPLES_CHUNK_ROWS))
        expected = reference_csv(traces.tolist(), ws.tolist())
        if got != expected:
            wrong = [(a, b) for a, b in zip(got.split("\n"), expected.split("\n"))
                     if a != b]
            pytest.fail(f"{len(wrong)} rows differ, as {wrong[:5]}")

    def test_cells_out_of_the_bulk_range_alone(self):
        # a chunk whose every cell is at least 1e15, so every cell is
        # spelled by '%', and one where only W is in range
        gen = np.random.Generator(np.random.Philox(15))
        big = 10.0 ** gen.uniform(15, 308, size=3000)
        big[gen.random(big.size) < 0.5] *= -1
        big[:4] = 1e15, -1e15, np.nextafter(1e15, np.inf), np.inf
        traces, ws = big[::2], big[1::2]
        assert emit_samples_csv(traces, ws) == reference_csv(traces, ws)
        small = gen.standard_normal(traces.size)
        assert emit_samples_csv(traces, small) == reference_csv(traces, small)

    @pytest.mark.parametrize("m", [SAMPLES_CHUNK_ROWS - 1, SAMPLES_CHUNK_ROWS,
                                   SAMPLES_CHUNK_ROWS + 1])
    def test_chunks_write_every_row_once(self, tmp_path, m):
        gen = np.random.Generator(np.random.Philox(m))
        traces, ws = gen.standard_normal(m) * 30.0, gen.standard_normal(m)
        cli._write_samples_csv(tmp_path / "samples.csv", traces, ws)
        assert (tmp_path / "samples.csv").read_text() == reference_csv(traces, ws)

    def test_tail_memory_is_independent_of_the_file_size(self):
        # what simulate allocates after its replicas, beyond their two result
        # arrays: the samples.csv writer and ks_distance
        m = 2**20
        gen = np.random.Generator(np.random.Philox(20))
        ws = gen.standard_normal(m) * 3.0
        traces = ws * 8.0 + 5.0
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cli._write_samples_csv(Path(os.devnull), traces, ws)
            harness.ks_distance(ws, 9.0)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 64 * m, f"{peak / m:.1f} bytes per replica"

    def test_csv_round_trip(self):
        _, summary = small_run()
        text = emit_samples_csv(summary.raw_traces, summary.w_values)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert [r["replica"] for r in rows] == [str(r) for r in range(summary.m)]
        got = np.array([float(r["raw_trace"]) for r in rows])
        assert np.array_equal(got, summary.raw_traces)
        assert np.array_equal(np.array([float(r["W"]) for r in rows]), summary.w_values)

    def test_json_round_trip_bit_exact(self):
        config, summary = small_run()
        fields = json.loads(emit_summary_json(config, summary=summary))["experiment"]
        assert fields["variance_w"] == summary.variance_w
        assert fields["ks_distance"] == summary.ks_distance
        assert fields["raw_trace_mean"] == summary.raw_trace_mean
        assert tuple(fields["standardized_moments"]) == summary.standardized_moments


class TestVarianceCommand:
    def test_prints_exact_and_float(self, capsys):
        assert main(["variance", "--poly", "0,0,1"]) == 0
        assert capsys.readouterr().out == "2\n2.0\n"

    def test_mixed_polynomial(self, capsys):
        assert main(["variance", "--poly", "0,0,1,1"]) == 0
        assert capsys.readouterr().out == "8\n8.0\n"

    def test_rejects_linear_term(self, capsys):
        assert main(["variance", "--poly", "0,1,1"]) == 2
        assert "degree" in capsys.readouterr().err

    def test_variance_beyond_float_range_refused(self, capsys):
        # 2e320 and 2e-400 are exact as rationals but have no normal float;
        # so is sum_k k! over degrees 2-20000, refused once it passes the range
        for coefficients, reason in (("1e160", "exceeds the float range"),
                                     ("1e-200", "is below the float range"),
                                     (",".join(["1"] * 19999), "exceeds the float range")):
            assert main(["variance", "--poly", f"0,0,{coefficients}"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: the limiting variance sum_k a_k^2 k! {reason}\n"


class TestSimulateCommand:
    def test_writes_artifacts(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path), "simulate", "--n", "64",
                     "--poly", "0,0,1", "--seed", "9", "--m", "50"])
        assert code == 0
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["config"]["n"] == 64
        assert doc["config"]["seed"] == 9
        assert "worker_count" not in doc["config"]
        assert doc["experiment"]["target_variance_exact"] == "2"
        assert doc["stein"] is None
        samples = (tmp_path / "samples.csv").read_text()
        assert samples.startswith("replica,raw_trace,W\n")
        assert len(samples.splitlines()) == 51

    def test_config_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**MINIMAL, "n": 32, "m": 40}))
        assert main(["--out", str(tmp_path), "simulate", "--config", str(path)]) == 0
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["experiment"]["m"] == 40

    def test_config_echo_preserves_semantic_fields(self, tmp_path):
        # emit(parse(doc)) keeps every semantic key, with defaults filled
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**MINIMAL, "n": 32, "m": 40}))
        main(["--out", str(tmp_path), "simulate", "--config", str(path)])
        echo = json.loads((tmp_path / "summary.json").read_text())["config"]
        assert echo == {
            "n": 32,
            "m": 40,
            "poly": [0.0, 0.0, 1.0],
            "family": "gaussian",
            "seed": 7,
        }

    def test_summary_moments_match_samples(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path), "simulate", "--n", "64",
                     "--poly", "0,0,1", "--seed", "4", "--m", "60"])
        assert code == 0
        moments = json.loads((tmp_path / "summary.json").read_text())[
            "experiment"]["standardized_moments"]
        rows = csv.DictReader(io.StringIO((tmp_path / "samples.csv").read_text()))
        ws = [float(row["W"]) for row in rows]
        assert len(ws) == 60
        assert moments == harness.standardized_moments(ws).tolist()
        assert len(moments) == 4
        assert moments[1] == pytest.approx(1.0)

    def test_huge_coefficients_give_finite_moments(self, tmp_path):
        # |W| near 1e40: no power up to the 4th of W or of its standard
        # deviation may overflow, and any warning fails the suite
        assert main(["--out", str(tmp_path), "simulate", "--n", "64",
                     "--poly", "0,0,1e40", "--m", "50"]) == 0
        moments = json.loads((tmp_path / "summary.json").read_text())[
            "experiment"]["standardized_moments"]
        assert len(moments) == 4 and all(map(math.isfinite, moments))
        assert moments[1] == pytest.approx(1.0)

    @pytest.mark.parametrize("coefficient, quantity", [
        ("1e160", "the limiting variance sum_k a_k^2 k! exceeds"),
        ("9e153", "variance_w is not finite"),
        ("1e-200", "the limiting variance sum_k a_k^2 k! is below"),
    ], ids=["limiting_variance", "variance_w", "limiting_variance_below"])
    def test_statistic_beyond_float_range_refused(self, tmp_path, capsys,
                                                  coefficient, quantity):
        # a numpy overflow warning would fail the suite, and no file is written
        assert main(["--out", str(tmp_path), "simulate", "--n", "64",
                     "--poly", f"0,0,{coefficient}", "--m", "50"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {quantity}")
        assert captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    # tv-bound reports the limiting variance, and n times it, beside the
    # bound, so it refuses both before the Monte Carlo runs too; its
    # refusal below the float range is a row of
    # TestTvBoundCommand::test_kappas_beyond_float_range_refused.  At
    # 4 x^170, sum_k a_k^2 k! = 16 * 170! ~ 1.16e308 is a float, but 64
    # times it is not
    @pytest.mark.parametrize("command, poly, message", [
        ("simulate", "0,0,1e160", "the limiting variance"),
        ("simulate", "0,0,1e-200", "the limiting variance"),
        ("tv-bound", "0,0,1e160", "the limiting variance"),
        ("tv-bound", ",".join(["0"] * 170 + ["4"]),
         "sigma2_target_scaled is not finite: it left the float range"),
    ], ids=["1e160", "1e-200", "tv-bound-1e160", "tv-bound-sigma2_target_scaled"])
    def test_limiting_variance_refused_before_any_replica(self, tmp_path, capsys,
                                                          monkeypatch, command,
                                                          poly, message):
        def no_replicas(*args):
            raise AssertionError("a replica ran before the target was checked")

        monkeypatch.setattr(harness, "_replica_blocks", no_replicas)
        assert main(["--out", str(tmp_path), command, "--n", "64",
                     "--poly", poly, "--m", "50"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_missing_required_flag(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "simulate", "--poly", "0,0,1"]) == 2
        assert "n" in capsys.readouterr().err

    def test_workers_flag_is_worker_count(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "simulate", "--n", "16",
                     "--poly", "0,0,1", "--m", "10", "--workers", "0"]) == 2
        assert "worker_count must be positive" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("n", 64.9, "n must be an integer, not 64.9"),
        ("seed", 1.7, "master_seed must be an integer, not 1.7"),
        ("worker_count", 2.5, "worker_count must be an integer, not 2.5"),
        ("m", True, "m must be an integer, not True"),
        ("poly", "0012", "config key poly must be a list of numbers, not '0012'"),
        ("family", None, "family must be a string, not None"),
        ("family", ["gaussian"], "family must be a string, not ['gaussian']"),
    ])
    def test_config_refuses_non_integers_and_non_lists(self, tmp_path, capsys,
                                                       key, value, message):
        # each value used to be cast (64.9 -> 64) or read digit by digit, and
        # a family null or list read as the text 'None' or "['gaussian']"
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**MINIMAL, "n": 32, "m": 20, key: value}))
        assert main(["--out", str(tmp_path), "simulate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("coefficient, message", [
        (10**400, "coefficients leave the float range at degree 2"),
        (True, "coefficients must be real numbers, not True"),
    ], ids=["int-10**400", "true"])
    def test_config_refuses_a_coefficient_by_name(self, tmp_path, capsys,
                                                  coefficient, message):
        # a 401-digit integer exited 2 with "int too large to convert to float"
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**MINIMAL, "n": 32, "m": 20,
                                    "poly": [0, 0, coefficient]}))
        assert main(["--out", str(tmp_path), "simulate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("command", ["simulate", "tv-bound"])
    def test_config_with_inline_flags_refused(self, tmp_path, capsys, command):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**MINIMAL, "n": 32, "m": 20}))
        code = main(["--out", str(tmp_path), command, "--config", str(path),
                     "--n", "4096", "--m", "500", "--workers", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--config cannot be combined with --m, --n, --workers" in err
        assert not (tmp_path / "summary.json").exists()


class TestTvBoundCommand:
    def test_smoothness_refusal_exit_code(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path), "tv-bound", "--n", "64",
                     "--poly", "0,0,1", "--family", "rademacher", "--m", "40"])
        assert code == 2
        err = capsys.readouterr().err
        assert "smooth" in err and "rademacher" in err

    def test_reports_all_components(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path), "tv-bound", "--n", "64",
                     "--poly", "0,0,1", "--family", "uniform_symmetric",
                     "--seed", "5", "--m", "40"])
        assert code == 0
        stdout = capsys.readouterr().out
        for name in ("kappa0_hat", "kappa1_hat", "kappa2_hat", "sigma2_hat",
                     "tv_bound"):
            assert name in stdout
        doc = json.loads((tmp_path / "summary.json").read_text())
        stein = doc["stein"]
        assert stein["tv_bound"] > 0
        assert stein["sigma2_target_scaled"] == pytest.approx(64 * 2.0)
        assert doc["experiment"] is None

    @pytest.mark.parametrize("coefficient, message", [
        pytest.param(coefficient, f"{kappa} {reason}", id=coefficient)
        for coefficient, kappa, reason in (
            ("1e76", "kappa0_hat", OVERFLOW),
            ("3e77", "kappa0_hat", OVERFLOW),
            # a_2^2 2! = 2e-400: the limiting variance is refused first
            ("1e-200", "the limiting variance sum_k a_k^2 k!", "is below the float range"),
            ("1e-100", "kappa0_hat", UNDERFLOW),
            ("1e-80", "kappa0_hat", UNDERFLOW),
            ("3e-78", "kappa2_hat", UNDERFLOW),
        )
    ])
    @pytest.mark.parametrize("n, workers", [(64, "1"), (1024, "2")])
    def test_kappas_beyond_float_range_refused(self, tmp_path, capsys,
                                               coefficient, message, n, workers):
        # the sums of squared gradients overflow, on one worker and on two;
        # at 3e77 so does the fourth power of a degree-2 polynomial's constant
        # Hessian norm 2 a_2.  At 1e-100 the fourth powers of the gradient are
        # 0 and at 1e-80 subnormal, so kappa0_hat would read 0 or lose digits;
        # at 3e-78 only those of the Hessian norm are subnormal
        assert main(["--out", str(tmp_path), "tv-bound", "--n", str(n),
                     "--poly", f"0,0,{coefficient}", "--family", "gaussian",
                     "--m", "50", "--workers", workers]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, experiment, stein", [
    ("simulate", {"n", "m", "raw_trace_mean", "variance_w", "standardized_moments",
                  "ks_distance", "target_variance", "wall_time_s",
                  "target_variance_exact"}, None),
    ("tv-bound", None, {"kappa0_hat", "kappa1_hat", "kappa2_hat", "sigma2_hat", "c1",
                        "c2", "tv_bound", "sigma2_target_scaled"}),
])
def test_summary_json_key_sets(tmp_path, command, experiment, stein):
    # the blocks are derived from the result records, so a new record field
    # shows up here
    assert main(["--out", str(tmp_path), command, "--n", "64", "--poly", "0,0,1",
                 "--family", "uniform_symmetric", "--m", "40"]) == 0
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert set(doc) == {"config", "version", "experiment", "stein"}
    assert set(doc["config"]) == {"n", "m", "poly", "family", "seed"}
    assert (doc["experiment"] and set(doc["experiment"])) == experiment
    assert (doc["stein"] and set(doc["stein"])) == stein


@pytest.mark.parametrize("argv, report", [
    (["simulate", "--n", "64", "--poly", "0,0,1", "--m", "40"], "summary.json"),
    (["tv-bound", "--n", "64", "--poly", "0,0,1", "--family", "uniform_symmetric",
      "--m", "40"], "summary.json"),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_stdout_is_the_report_written(tmp_path, capsys, argv, report):
    # one report per command: what is printed is the file, byte for byte
    assert main(["--out", str(tmp_path), *argv]) == 0
    assert capsys.readouterr().out == (tmp_path / report).read_text(encoding="utf-8")


class TestOtherCommands:
    def test_io_failure_exit_code(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        # tv-bound writes nothing before its report, so a report echoed
        # before its write would show here
        for argv in (["simulate", "--n", "16", "--poly", "0,0,1", "--m", "10"],
                     ["tv-bound", "--n", "16", "--poly", "0,0,1", "--m", "10"]):
            assert main(["--out", str(blocker / "sub"), *argv]) == 3
            assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "2", "--poly", "0,0,1", "--m", str(2**50)],
        ["tv-bound", "--n", "2", "--poly", "0,0,1", "--m", str(2**50)],
    ], ids=["simulate", "tv-bound"])
    def test_impossible_allocation_refused(self, tmp_path, capsys, argv):
        # each request is larger than a 2**47-byte address space, so its
        # first array cannot be allocated and no memory is touched
        assert main(["--out", str(tmp_path), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_huge_prime_size_refused_before_a_divisor_search(self, tmp_path, capsys):
        # 10**30 + 57 is prime, so the search for the split's divisor would
        # step down from isqrt(n) some 10**15 times; the twiddle table at
        # its largest, a size that does not depend on the split, is
        # refused first
        argv = ["--out", str(tmp_path), "simulate", "--n", str(10**30 + 57),
                "--poly", "0,0,1", "--m", "2"]
        codes = []
        runner = threading.Thread(daemon=True, target=lambda: codes.append(main(argv)))
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive(), "the size was not refused within 60 s"
        assert codes == [2]
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []


class TestDefaults:
    """An invalid value is refused before any replica runs, not replaced by
    a default."""

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--n", "16", "--poly", "0,0,1", "--m", "1"],
         "need at least 2 replicas"),
        (["simulate", "--n", "16", "--poly", "0,0,1", "--family", ""],
         "unknown ensemble family"),
    ])
    def test_invalid_value_refused(self, tmp_path, capsys, argv, message):
        assert main(["--out", str(tmp_path), *argv]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "16", "--poly", "0,0,1", "--m", "10", "--seed", "-1"],
        ["tv-bound", "--n", "16", "--poly", "0,0,1", "--m", "10",
         "--seed", "18446744073709551616"],
    ], ids=["simulate", "tv-bound"])
    def test_seed_range_checked_before_any_replica(self, tmp_path, capsys,
                                                   monkeypatch, argv):
        def no_replicas(*args):
            raise AssertionError("a replica ran before the seed was checked")

        monkeypatch.setattr(harness, "_replica_blocks", no_replicas)
        assert main(["--out", str(tmp_path), *argv]) == 2
        captured = capsys.readouterr()
        assert "master_seed must be a 64-bit unsigned integer" in captured.err
        assert captured.out == ""


def test_option_strings_of_each_subcommand():
    # the whole command-line surface: a flag or subcommand added or removed
    # shows up here
    parser = cli._build_parser()
    (subparsers,) = [action for action in parser._actions
                     if isinstance(action, argparse._SubParsersAction)]

    def options(p):
        return sorted(s for action in p._actions for s in action.option_strings)

    experiment = ["--config", "--family", "--help", "--m", "--n", "--poly",
                  "--seed", "--workers", "-h"]
    assert options(parser) == ["--help", "--out", "-h"]
    assert {name: options(sub) for name, sub in subparsers.choices.items()} == {
        "variance": ["--help", "--poly", "-h"],
        "simulate": experiment,
        "tv-bound": experiment,
    }
