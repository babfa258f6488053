import dataclasses
import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from swstream import cli, verify
from swstream.cli import _parse_grid, main
from swstream.exponents import CURVE_HEADER
from swstream.sim import fit_exponent, fit_to_json, run_trials, stats_to_csv
from swstream.verify import EXAMPLE_1

EXAMPLE_1_JSON = json.loads(EXAMPLE_1.to_json())


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "source.json"
    path.write_text(json.dumps(EXAMPLE_1_JSON))
    return str(path)


@pytest.fixture
def trial_config_file(tmp_path):
    path = tmp_path / "trials.json"
    path.write_text(json.dumps({
        "source": EXAMPLE_1_JSON,
        "schedule_x": [1],
        "schedule_y": None,
        "n": 8,
        "delays": [0, 2, 4],
        "trials": 50,
        "base_seed": 11,
        "decoder": "si_ml",
    }))
    return str(path)


class TestGridParsing:
    def test_single_value(self):
        assert _parse_grid("0.6") == [0.6]

    def test_sweep_inclusive(self):
        grid = _parse_grid("0.3:0.5:0.1")
        assert grid == pytest.approx([0.3, 0.4, 0.5])

    def test_bad_specs(self):
        from swstream.cli import ConfigError
        for bad in ("a:b:c", "0.5:0.3:0.1", "1:2", "0.3:0.5:0"):
            with pytest.raises(ConfigError):
                _parse_grid(bad)


class TestExponentsCommand:
    def test_writes_csv_and_manifest(self, tmp_path, source_file, capsys):
        out = tmp_path / "out"
        rc = main(["exponents", source_file, "--rx", "0.5:0.7:0.1",
                   "--ry", "0.6", "--out", str(out), "--threads", "1"])
        assert rc == 0
        lines = (out / "exponents.csv").read_text().strip().split("\n")
        assert lines[0] == CURVE_HEADER
        assert len(lines) == 4  # header + three rx values
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "exponents"
        assert manifest["outputs"] == [str(out / "exponents.csv")]
        assert "version" in manifest and "duration_s" in manifest

    def test_bits_units_rescales(self, tmp_path, source_file):
        out_n = tmp_path / "nats"
        out_b = tmp_path / "bits"
        args = ["exponents", source_file, "--rx", "0.6", "--ry", "0.6",
                "--threads", "1"]
        assert main(args + ["--out", str(out_n)]) == 0
        assert main(args + ["--out", str(out_b), "--units", "bits"]) == 0
        row_n = (out_n / "exponents.csv").read_text().strip().split("\n")[1].split(",")
        row_b = (out_b / "exponents.csv").read_text().strip().split("\n")[1].split(",")
        ln2 = math.log(2.0)
        # columns carry 9 significant digits, so compare a notch looser
        assert float(row_b[0]) == pytest.approx(float(row_n[0]) / ln2, rel=1e-7)
        assert float(row_b[4]) == pytest.approx(float(row_n[4]) / ln2, rel=1e-7)
        # gamma* and rho* are dimensionless
        assert row_b[2] == row_n[2] and row_b[3] == row_n[3]

    def test_point_to_point_source(self, tmp_path):
        src = tmp_path / "pp.json"
        src.write_text(json.dumps({
            "alphabet_x": 2, "alphabet_y": 1, "probs": [[0.9], [0.1]],
        }))
        out = tmp_path / "out"
        rc = main(["exponents", str(src), "--rx", "0.5:0.7:0.1",
                   "--out", str(out), "--threads", "1"])
        assert rc == 0
        rows = (out / "exponents.csv").read_text().strip().split("\n")[1:]
        for row in rows:
            fields = row.split(",")
            assert fields[4] == ""  # no two-encoder columns
            assert fields[9] != ""  # point-to-point column populated

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_exponent_is_exactly_zero_below_entropy(self, tmp_path, threads):
        # the curve is computed on the loaded source; a second JSON round
        # trip used to renormalize p by an ulp and give 1.1e-16 below H
        src = tmp_path / "pp3.json"
        src.write_text(json.dumps({
            "alphabet_x": 3, "alphabet_y": 1, "probs": [[0.6], [0.3], [0.1]],
        }))
        out = tmp_path / "out"
        rc = main(["exponents", str(src), "--rx", "0.5:1.3:0.1",
                   "--out", str(out), "--threads", threads])
        assert rc == 0
        lines = (out / "exponents.csv").read_text().strip().split("\n")
        column = lines[0].split(",").index("e_pp_x")
        h = -sum(p * math.log(p) for p in (0.6, 0.3, 0.1))
        below = [r.split(",") for r in lines[1:] if float(r.split(",")[0]) < h]
        assert len(below) == 4
        assert all(float(r[column]) == 0.0 for r in below)

    def test_pool_has_one_worker_per_cpu(self, fake_pool, monkeypatch, example2):
        # 15 points over a lowered cutoff: 10,000 threads on 2 CPUs run a
        # pool of 2 workers, with the rows of a serial run
        monkeypatch.setattr(cli, "_POOL_POINTS", 8)
        rx, ry = _parse_grid("0.30:0.90:0.15"), _parse_grid("0.35:0.49:0.07")
        rows = cli._compute_curve(example2, rx, ry, threads=10_000)
        assert fake_pool == [[2, 15]]
        assert rows == cli._compute_curve(example2, rx, ry, threads=1)

    def test_byte_identical_reruns(self, tmp_path, source_file):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["exponents", source_file, "--rx", "0.5:0.8:0.1",
                  "--ry", "0.55", "--out", str(out), "--threads", "1"])
            outs.append((out / "exponents.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_missing_source_is_config_error(self, tmp_path, capsys):
        rc = main(["exponents", str(tmp_path / "nope.json"),
                   "--rx", "0.6", "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_bad_grid_is_config_error(self, tmp_path, source_file):
        rc = main(["exponents", source_file, "--rx", "0.8:0.3:0.1",
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("grid", ["-0.2:0.5:0.1", "-0.1", "nan", "0.3:inf:0.1"])
    def test_negative_or_nonfinite_rate_is_config_error(self, tmp_path, source_file,
                                                        grid):
        rc = main(["exponents", source_file, f"--rx={grid}", "--ry", "0.6",
                   "--out", str(tmp_path / "o"), "--threads", "1"])
        assert rc == 2

    def test_nan_probability_is_config_error(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"alphabet_x": 2, "alphabet_y": 2,
                                    "probs": [[math.nan, 0.5], [0.25, 0.25]]}))
        out = tmp_path / "o"
        rc = main(["exponents", str(path), "--rx", "0.6", "--ry", "0.6",
                   "--out", str(out), "--threads", "1"])
        assert rc == 2
        assert not (out / "exponents.csv").exists()

    @pytest.mark.parametrize("source, message", [
        ([1, 2], "error: bad source config "),
        ({"alphabet_x": None, "alphabet_y": 2, "probs": [[0.5, 0.0], [0.0, 0.5]]},
         "error: bad source config "),
        ({"alphabet_x": 2.7, "alphabet_y": "2", "probs": [[0.45, 0.05], [0.05, 0.45]]},
         "error: bad source config "),
        (b"\xff\xfe{", "error: cannot read source file: "),
        (b"[" * 100_000 + b"]" * 100_000, "error: bad source config "),
    ], ids=["list", "null-alphabet", "fraction-and-string-alphabets", "not-utf8",
            "deeply-nested"])
    def test_malformed_source_is_config_error(self, tmp_path, source, message, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(source if isinstance(source, bytes) else json.dumps(source).encode())
        out = tmp_path / "o"
        rc = main(["exponents", str(path), "--rx", "0.6", "--ry", "0.6",
                   "--out", str(out), "--threads", "1"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(message)
        assert not (out / "exponents.csv").exists()

    def test_program_error_is_not_config_error(self, tmp_path, source_file,
                                               monkeypatch):
        def broken(d, rates):
            raise ValueError("f(a) and f(b) must have different signs")

        monkeypatch.setattr("swstream.cli.curve_row", broken)
        with pytest.raises(ValueError, match="different signs"):
            main(["exponents", source_file, "--rx", "0.6", "--ry", "0.6",
                  "--out", str(tmp_path / "o"), "--threads", "1"])


class TestSimulateCommand:
    def test_outputs_and_manifest(self, tmp_path, trial_config_file, capsys):
        out = tmp_path / "sim"
        rc = main(["simulate", trial_config_file, "--out", str(out),
                   "--threads", "1"])
        assert rc == 0
        lines = (out / "stats.csv").read_text().strip().split("\n")
        assert lines[0] == "delta,trials,errors_x,errors_y,errors_joint,rate_x_err,lo95,hi95"
        assert len(lines) == 4
        fit = json.loads((out / "fit.json").read_text())
        assert set(fit) == {"slope", "stderr", "r2", "points_used"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 11

    def test_manifest_reports_aborts(self, tmp_path, monkeypatch, capsys):
        # the sparse small-cap config; the cap is no config field, so the
        # loaded config is given one that aborts most trials
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps({
            "source": EXAMPLE_1_JSON, "schedule_x": [1, 0, 0, 0], "n": 12,
            "delays": [0, 4, 8], "trials": 200, "base_seed": 3, "decoder": "ml",
        }))
        load = cli._load_trial_config
        cfg = dataclasses.replace(load(str(path), None), candidate_cap=500)
        monkeypatch.setattr(cli, "_load_trial_config", lambda *args: cfg)
        out = tmp_path / "o"
        assert main(["simulate", str(path), "--out", str(out), "--threads", "1"]) == 0
        stats = run_trials(cfg)
        assert (out / "stats.csv").read_text() == stats_to_csv(stats)
        assert (out / "fit.json").read_text() == fit_to_json(fit_exponent(stats))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["aborted"] == stats.aborted == 168
        assert set(manifest["aborted_by_step"]) == {"x"}
        assert manifest["aborted_by_step"]["x"] == {
            str(step): count for step, count in stats.aborted_by_step["x"].items()}
        assert sum(manifest["aborted_by_step"]["x"].values()) == 168
        assert manifest["rate_x_upper"] == {
            str(d): (stats.errors_x[d] + 168) / 200 for d in (0, 4, 8)}
        # the warning goes to stderr and names the first delay at which the
        # abort-inclusive rate leaves the completed trials' Wilson interval
        captured = capsys.readouterr()
        assert captured.out == f"wrote {out / 'stats.csv'} and {out / 'fit.json'}\n"
        assert captured.err.startswith("warning: 168 trials aborted at the candidate cap")
        delay = next(d for d in stats.delays
                     if stats.rate_x_upper(d) > stats.interval_x(d)[1])
        assert f"at delay {delay} " in captured.err
        assert f"{stats.rate_x(delay):.4g}" in captured.err
        assert f"{stats.rate_x_upper(delay):.4g}" in captured.err

    def test_manifest_without_aborts(self, tmp_path, trial_config_file):
        out = tmp_path / "sim"
        assert main(["simulate", trial_config_file, "--out", str(out),
                     "--threads", "1"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["aborted"] == 0 and manifest["aborted_by_step"] == {}
        assert set(manifest["rate_x_upper"]) == {"0", "2", "4"}

    @pytest.mark.usefixtures("two_cpus")
    def test_manifest_reports_final_bin_sizes(self, tmp_path):
        # each stream's mean final bin size is a sum over trials: the same
        # at any --threads, and within 4 standard errors of its closed form
        path = tmp_path / "sw.json"
        path.write_text(json.dumps({
            "source": EXAMPLE_1_JSON, "schedule_x": [1], "schedule_y": [1], "n": 8,
            "delays": [0, 2], "trials": 150, "base_seed": 4, "decoder": "sw_universal",
        }))
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            assert main(["simulate", str(path), "--out", str(out),
                         "--threads", threads]) == 0
            reports.append(json.loads((out / "manifest.json").read_text())["final_bin_size"])
        assert reports[0] == reports[1]
        assert set(reports[0]) == {"x", "y"}
        for report in reports[0].values():
            # 1 bit per step on a binary alphabet: E|C_8| = 1 + 8/2
            assert report["bins"] == 150 and report["expected"] == 5.0
            assert abs(report["mean"] - report["expected"]) <= 4 * report["stderr"]

    def test_seed_override(self, tmp_path, trial_config_file):
        out1 = tmp_path / "s1"
        out2 = tmp_path / "s2"
        main(["simulate", trial_config_file, "--out", str(out1),
              "--threads", "1", "--seed", "99"])
        main(["simulate", trial_config_file, "--out", str(out2),
              "--threads", "1", "--seed", "99"])
        assert (out1 / "stats.csv").read_bytes() == (out2 / "stats.csv").read_bytes()
        assert json.loads((out1 / "manifest.json").read_text())["seed"] == 99

    def test_seed_override_without_base_seed(self, tmp_path, trial_config_file):
        config = json.loads(Path(trial_config_file).read_text())
        del config["base_seed"]
        path = tmp_path / "unseeded.json"
        path.write_text(json.dumps(config))
        outs = []
        for name, config_path in (("file", trial_config_file), ("unseeded", str(path))):
            out = tmp_path / name
            assert main(["simulate", config_path, "--out", str(out), "--threads", "1",
                         "--seed", "11"]) == 0
            outs.append((out / "stats.csv").read_bytes())
        assert outs[0] == outs[1]
        assert main(["simulate", str(path), "--out", str(tmp_path / "o"),
                     "--threads", "1"]) == 2

    @pytest.mark.parametrize("decoder, schedule_y", [("si_ml", None), ("sw_ml", [1, 2])])
    @pytest.mark.usefixtures("two_cpus")
    def test_manifest_config_reruns_the_run(self, tmp_path, decoder, schedule_y):
        # the manifest's whole config, --seed applied, is a trial config
        # file of the run's config, whose run writes the same bytes
        path = tmp_path / "trials.json"
        path.write_text(json.dumps({
            "source": {"alphabet_x": 3, "alphabet_y": 2,
                       "probs": [[0.3, 0.05], [0.05, 0.3], [0.1, 0.2]]},
            "schedule_x": [2, 1], "schedule_y": schedule_y, "n": 8,
            "delays": [4, 0, 2, 6], "trials": 80, "base_seed": 11, "decoder": decoder,
        }))
        first = tmp_path / "first"
        assert main(["simulate", str(path), "--out", str(first), "--threads", "1",
                     "--seed", "99"]) == 0
        config = json.loads((first / "manifest.json").read_text())["config"]
        assert config["base_seed"] == 99 and config["delays"] == [0, 2, 4, 6]
        assert (config["config_path"], config["threads"]) == (str(path), 1)
        rerun_path = tmp_path / "rerun.json"
        rerun_path.write_text(json.dumps(config))
        assert cli._load_trial_config(str(rerun_path), None) \
            == cli._load_trial_config(str(path), 99)
        rerun = tmp_path / "rerun"
        assert main(["simulate", str(rerun_path), "--out", str(rerun),
                     "--threads", "2"]) == 0
        for name in ("stats.csv", "fit.json"):
            assert (rerun / name).read_bytes() == (first / name).read_bytes()

    def test_zero_trials_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "source": EXAMPLE_1_JSON, "schedule_x": [1], "n": 8,
            "delays": [0], "trials": 0, "base_seed": 1, "decoder": "ml",
        }))
        assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_schedule_wider_than_hash_word_is_config_error(self, tmp_path):
        # 200 bits per step: a step's bits are the top bits of one 64-bit
        # chain state, so a step holds at most 64
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({
            "source": EXAMPLE_1_JSON, "schedule_x": [200], "n": 8,
            "delays": [0], "trials": 10, "base_seed": 1, "decoder": "si_ml",
        }))
        assert main(["simulate", str(path), "--out", str(tmp_path / "o"),
                     "--threads", "1"]) == 2

    def test_empty_horizon_is_config_error(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({
            "source": EXAMPLE_1_JSON, "schedule_x": [1], "n": 0,
            "delays": [0], "trials": 10, "base_seed": 1, "decoder": "si_ml",
        }))
        out = tmp_path / "o"
        assert main(["simulate", str(path), "--out", str(out), "--threads", "1"]) == 2
        assert not (out / "stats.csv").exists()

    @pytest.mark.parametrize("field, value", [
        # y is always symbol 290, which one byte per symbol cannot hold
        ("source", {"alphabet_x": 2, "alphabet_y": 300,
                    "probs": [[0.5 * (b == 290) for b in range(300)]] * 2}),
        ("delays", [0, 2, 2, 4]),
        ("delays", [2, 2, 2]),
        ("delays", [0, 1.5]),
        ("n", 16.5),
        ("n", math.inf),
        ("trials", 100.9),
        ("base_seed", 1.5),
        ("schedule_x", [1.7, 0.2]),
        # numbers given as strings or booleans
        ("n", "8"),
        ("trials", True),
        ("delays", "02"),
        ("schedule_x", "1"),
        ("base_seed", "11"),
    ])
    def test_invalid_trial_config_is_config_error(self, tmp_path, field, value):
        config = {"source": EXAMPLE_1_JSON, "schedule_x": [1], "n": 8,
                  "delays": [0, 2], "trials": 10, "base_seed": 1, "decoder": "si_ml"}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**config, field: value}))
        out = tmp_path / "o"
        assert main(["simulate", str(path), "--out", str(out), "--threads", "1"]) == 2
        assert not (out / "stats.csv").exists()

    def test_integral_floats_are_accepted(self, tmp_path, trial_config_file):
        config = json.loads(Path(trial_config_file).read_text())
        path = tmp_path / "floats.json"
        path.write_text(json.dumps({**config, "n": 8.0, "trials": 5e1,
                                    "delays": [0.0, 2, 4], "schedule_x": [1.0]}))
        outs = []
        for name, config_path in (("int", trial_config_file), ("float", str(path))):
            out = tmp_path / name
            assert main(["simulate", config_path, "--out", str(out),
                         "--threads", "1"]) == 0
            outs.append((out / "stats.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_missing_field_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"source": EXAMPLE_1_JSON}))
        assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("data, message", [
        (None, "error: cannot read trial config: "),
        (b"\xff\xfe{", "error: cannot read trial config: "),
        (b"{not json", "error: cannot read trial config: "),
        (b'{"source": {}}', "error: trial config missing field 'alphabet_x'"),
        (b"[1, 2]", "error: bad trial config: "),
        (b"[" * 100_000 + b"]" * 100_000, "error: cannot read trial config: "),
    ], ids=["missing-file", "not-utf8", "not-json", "missing-field", "not-an-object",
            "deeply-nested"])
    def test_malformed_file_messages(self, tmp_path, data, message, capsys):
        path = tmp_path / "trials.json"
        if data is not None:
            path.write_bytes(data)
        assert main(["simulate", str(path), "--out", str(tmp_path / "o"),
                     "--threads", "1"]) == 2
        assert capsys.readouterr().err.startswith(message)

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_is_usage_error(self, tmp_path, trial_config_file,
                                              threads, capsys):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", trial_config_file, "--out", str(out),
                  "--threads", threads])
        assert exc.value.code == 2
        assert not (out / "stats.csv").exists()


class TestVerifyCommand:
    @pytest.mark.parametrize("suite", ["examples", "equivalence", "lemmas", "oracle"])
    def test_suites_pass(self, suite, capsys):
        rc = main(["verify", suite])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out
        assert "PASS" in out

    def test_help_names_every_suite(self):
        # the help text names the suites without importing verify (numpy)
        assert cli._SUITE_NAMES == tuple(sorted(verify.SUITES))

    def test_unknown_suite(self, capsys):
        rc = main(["verify", "nonesuch"])
        assert rc == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_unread_option_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "lemmas", "--threads", "2"])
        assert exc.value.code == 2


class TestReproduceCommands:
    def test_example1_files(self, tmp_path, capsys):
        out = tmp_path / "repro"
        rc = main(["reproduce-example1", "--out", str(out), "--threads", "1"])
        assert rc == 0
        for ry in ("0.49", "0.67"):
            path = out / f"example1_ry{ry}.csv"
            assert path.exists()
            lines = path.read_text().strip().split("\n")
            assert lines[0] == CURVE_HEADER
            assert len(lines) == 1 + 76  # rx = 0.30 .. 1.05 step 0.01
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "example1"
        assert len(manifest["outputs"]) == 2


class TestOutPath:
    @pytest.fixture(params=["exponents", "simulate", "reproduce-example1"])
    def command(self, request, source_file, trial_config_file):
        return {
            "exponents": ["exponents", source_file, "--rx", "0.5"],
            "simulate": ["simulate", trial_config_file],
            "reproduce-example1": ["reproduce-example1"],
        }[request.param]

    @pytest.mark.parametrize("under", [False, True])
    def test_out_at_a_file_is_config_error(self, tmp_path, command, under, capsys):
        # --out naming an existing file, or a path under one, is one error
        # line and exit 2, and leaves the file as it was
        blocker = tmp_path / "taken"
        blocker.write_text("keep\n")
        out = blocker / "out" if under else blocker
        assert main([*command, "--out", str(out), "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot create output directory")
        assert err.count("\n") == 1
        assert blocker.read_text() == "keep\n"

    @pytest.mark.parametrize("name", ["exponents.csv", "fit.json", "example1_ry0.67.csv",
                                      "manifest.json"],
                             ids=["exponents", "simulate", "reproduce-example1",
                                  "reproduce-example2"])
    def test_output_file_at_a_directory_is_config_error(self, tmp_path, source_file,
                                                        trial_config_file, name, capsys):
        # an output file that is an existing directory is one error line and
        # exit 2, found before any work: no output is written
        command = {
            "exponents.csv": ["exponents", source_file, "--rx", "0.5"],
            "fit.json": ["simulate", trial_config_file],
            "example1_ry0.67.csv": ["reproduce-example1"],
            "manifest.json": ["reproduce-example2"],
        }[name]
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        assert main([*command, "--out", str(out), "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: output file {out / name} is a directory\n"
        assert [p.name for p in out.iterdir()] == [name]
        assert not any((out / name).iterdir())


class TestExitHook:
    """`main` has `gc.freeze` run at exit, so that finalization skips the
    collector's pass over the objects left over from the imports."""

    # the console script's entry, `sys.exit(main())`, with code run first
    ENTRY = "import sys; from swstream.cli import main; {}sys.exit(main(sys.argv[1:]))"

    def _subprocess(self, args, setup=""):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        return subprocess.run([sys.executable, "-c", self.ENTRY.format(setup), *args],
                              env=env, capture_output=True, text=True, timeout=120)

    def test_subprocess_run_matches_in_process_run(self, tmp_path, source_file,
                                                   trial_config_file, capsys):
        # stdout piped, as when it goes to a file: the exit path still
        # flushes the "wrote" line, and the codes and outputs are unchanged
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"source": EXAMPLE_1_JSON}))
        out = tmp_path / "o"
        runs = [
            (["simulate", trial_config_file, "--threads", "1", "--out", str(out)],
             0, ["stats.csv", "fit.json"]),
            (["exponents", source_file, "--rx", "0.4:0.8:0.2", "--ry", "0.6",
              "--threads", "1", "--out", str(out)], 0, ["exponents.csv"]),
            (["simulate", str(bad), "--out", str(out)], 2, []),
        ]
        subs = []
        for args, code, names in runs:
            sub = self._subprocess(args)
            files = {name: (out / name).read_bytes() for name in names}
            assert sub.returncode == main(args) == code
            captured = capsys.readouterr()
            assert (sub.stdout, sub.stderr) == (captured.out, captured.err)
            assert files == {name: (out / name).read_bytes() for name in names}
            subs.append(sub)
        simulate, exponents, bad_config = subs
        assert simulate.stdout == f"wrote {out / 'stats.csv'} and {out / 'fit.json'}\n"
        assert exponents.stdout == f"wrote {out / 'exponents.csv'} (3 rate points)\n"
        assert bad_config.stderr == "error: trial config missing field 'schedule_x'\n"

    def test_hook_runs_once_at_exit(self, tmp_path, source_file):
        # a probe registered before main runs after the hook (atexit runs
        # last in, first out) and counts its calls over two main calls
        probe = ("import atexit, gc; calls = []; freeze = gc.freeze; "
                 "gc.freeze = lambda: calls.append(1) or freeze(); "
                 "atexit.register(lambda: print(len(calls), gc.get_freeze_count() > 0)); "
                 "main(sys.argv[1:]); ")
        args = ["exponents", source_file, "--rx", "0.6", "--threads", "1",
                "--out", str(tmp_path / "o")]
        sub = self._subprocess(args, probe)
        assert sub.returncode == 0
        assert sub.stdout.splitlines()[-1] == "1 True"

    def test_in_process_calls_freeze_nothing(self, tmp_path, source_file, capsys):
        # the hook only runs at exit: a caller such as pytest keeps its
        # objects collectable
        for _ in range(2):
            assert main(["exponents", source_file, "--rx", "0.6", "--threads", "1",
                         "--out", str(tmp_path / "o")]) == 0
        assert gc.get_freeze_count() == 0
