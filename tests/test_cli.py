"""CLI tests: config validation, subcommand dispatch, artifact formats,
exit-code discipline, and reproducibility of emitted files."""

import argparse
import csv
import dataclasses
import io
import json

import numpy as np
import pytest

from circulant_clt import ConfigError, cli, harness, run_clt_experiment
from circulant_clt.cli import (
    _text_report,
    emit_samples_csv,
    emit_summary_json,
    main,
    parse_config,
)
from circulant_clt.harness import ExperimentConfig

MINIMAL = {"n": 512, "poly": [0, 0, 1], "family": "gaussian", "seed": 7}


def small_run():
    config = parse_config({**MINIMAL, "n": 32, "m": 40})
    return config, run_clt_experiment(config)


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
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["replica", "raw_trace", "W"])
        writer.writerows([r, repr(float(t)), repr(float(w))]
                         for r, (t, w) in enumerate(zip(traces, ws)))
        assert emit_samples_csv(traces, ws) == buf.getvalue()
        assert emit_samples_csv(list(traces), list(ws)) == buf.getvalue()

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

    def test_text_shows_target_next_to_variance(self):
        _, summary = small_run()
        text = _text_report(summary)
        (variance_line,) = [l for l in text.splitlines() if "variance_w" in l]
        assert "target" in variance_line and "2.0" in variance_line

    def test_text_padding_independent_of_wall_time(self):
        _, summary = small_run()
        # short statistics, so that only the wall time could widen the column
        summary = dataclasses.replace(
            summary, variance_w=1.5, raw_trace_mean=2.25, ks_distance=0.125,
            standardized_moments=(0.0, 1.0, 0.5, 3.0, 0.0, 15.0, 0.0, 105.0),
        )
        short, long = (
            _text_report(dataclasses.replace(summary, wall_time_s=t)).splitlines()
            for t in (1.5, 0.12345678901234567)
        )
        assert len(short) == len(long)
        changed = [a.split()[0] for a, b in zip(short, long) if a != b]
        assert changed == ["wall_time_s"]


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


class TestDensityTableCommand:
    def test_table_contents(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "density-table", "--p", "3",
                     "--n", "200"]) == 0
        stdout = capsys.readouterr().out
        assert (tmp_path / "table.csv").read_text() == stdout
        rows = list(csv.DictReader(io.StringIO(stdout)))
        assert [r["s"] for r in rows] == ["0", "1", "2"]
        densities = [float(r["density"]) for r in rows]
        assert abs(densities[0]) < 0.01
        assert abs(densities[1] - 0.5) < 0.01
        assert abs(densities[2] - 0.5) < 0.01
        assert [float(r["f_density"]) for r in rows] == [0.0, 0.5, 0.5]
        for r in rows:
            gap = abs(float(r["density"]) - float(r["f_density"]))
            assert float(r["gap"]) == pytest.approx(gap, abs=1e-15)

    @pytest.mark.parametrize("p", ["1", "0", "-3"])
    def test_p_below_two_refused(self, tmp_path, capsys, p):
        assert main(["--out", str(tmp_path), "density-table", "--p", p,
                     "--n", "5"]) == 2
        captured = capsys.readouterr()
        assert "p must be at least 2" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "table.csv").exists()


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
        assert "target" in capsys.readouterr().out

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
            "centering": "sample_mean",
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
        assert len(moments) == 8
        assert moments[1] == pytest.approx(1.0)

    def test_worker_count_invariance_excluding_wall_time(self, tmp_path):
        outs = []
        for workers in ("1", "8"):
            out = tmp_path / f"w{workers}"
            assert main(["--out", str(out), "simulate", "--n", "64",
                         "--poly", "0,0,1,1", "--seed", "3", "--m", "80",
                         "--workers", workers]) == 0
            doc = json.loads((out / "summary.json").read_text())
            del doc["experiment"]["wall_time_s"]
            outs.append(json.dumps(doc, sort_keys=True))
        assert outs[0] == outs[1]

    def test_missing_required_flag(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "simulate", "--poly", "0,0,1"]) == 2
        assert "n" in capsys.readouterr().err

    def test_workers_flag_is_worker_count(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "simulate", "--n", "16",
                     "--poly", "0,0,1", "--m", "10", "--workers", "0"]) == 2
        assert "worker_count must be positive" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("n", 64.9, "config key n must be an integer"),
        ("seed", 1.7, "config key seed must be an integer"),
        ("worker_count", 2.5, "config key worker_count must be an integer"),
        ("m", True, "config key m must be an integer"),
        ("poly", "0012", "config key poly must be a list of numbers"),
    ])
    def test_config_refuses_non_integers_and_non_lists(self, tmp_path, capsys,
                                                       key, value, message):
        # each value used to be cast (64.9 -> 64) or read digit by digit
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**MINIMAL, "n": 32, "m": 20, key: value}))
        assert main(["--out", str(tmp_path), "simulate", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err
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


class TestOtherCommands:
    def test_norm_scaling_table(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path), "norm-scaling", "--family",
                     "rademacher", "--sizes", "16,32", "--trials", "4",
                     "--seed", "2"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO((tmp_path / "table.csv").read_text())))
        assert [r["n"] for r in rows] == ["16", "32"]
        assert all(float(r["max_ratio"]) >= float(r["mean_ratio"]) for r in rows)

    def test_io_failure_exit_code(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code = main(["--out", str(blocker / "sub"), "simulate", "--n", "16",
                     "--poly", "0,0,1", "--m", "10"])
        assert code == 3

    def test_output_dir_env_var(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CIRCULANT_CLT_OUT", str(tmp_path / "from-env"))
        assert main(["density-table", "--p", "2", "--n", "10"]) == 0
        assert (tmp_path / "from-env" / "table.csv").exists()


def table_for(tmp_path, name, argv):
    out = tmp_path / name
    assert main(["--out", str(out), *argv]) == 0
    return (out / "table.csv").read_text()


class TestDefaults:
    """The argparse defaults are the only defaults: an omitted flag runs as
    its stated default, and an invalid value is refused, not replaced."""

    def test_norm_scaling_defaults(self, tmp_path, capsys):
        implicit = table_for(tmp_path, "implicit", ["norm-scaling", "--sizes", "16,32"])
        explicit = table_for(tmp_path, "explicit", [
            "norm-scaling", "--sizes", "16,32", "--family", "gaussian",
            "--trials", "50", "--seed", "0"])
        assert implicit == explicit

    @pytest.mark.parametrize("argv, message", [
        (["norm-scaling", "--sizes", "16", "--trials", "0"],
         "need at least one trial per size"),
        (["norm-scaling", "--sizes", "16", "--family", ""],
         "unknown ensemble family"),
    ])
    def test_invalid_value_refused(self, tmp_path, capsys, argv, message):
        assert main(["--out", str(tmp_path), *argv]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert not (tmp_path / "table.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "16", "--poly", "0,0,1", "--m", "10", "--seed", "-1"],
        ["norm-scaling", "--sizes", "16", "--seed", "18446744073709551616"],
    ], ids=["simulate", "norm-scaling"])
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
        "density-table": ["--help", "--n", "--p", "-h"],
        "simulate": experiment,
        "tv-bound": experiment,
        "norm-scaling": ["--family", "--help", "--seed", "--sizes", "--trials", "-h"],
    }
