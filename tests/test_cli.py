import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from echosense.calibration import pup_model, ring_down_model
from echosense import cli
from echosense.cli import COMMANDS, _merged, build_parser, main
from echosense.core import TWO_PI, ConfigError
from echosense.sensitivity import gauss_hermite_rule
from echosense.schemas import load_schema

jsonschema = pytest.importorskip("jsonschema")


def validate(obj, kind):
    schema = load_schema()
    jsonschema.validate(obj, {**schema["$defs"][kind], "$defs": schema["$defs"]})


def run_to_file(tmp_path, name, args):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


class TestTableCommands:
    def test_snr_csv(self, tmp_path):
        code, out = run_to_file(tmp_path, "snr.csv", ["snr", "--steps", "5"])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "beta,snr"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 0.0  # no offset at zero displacement

    def test_renyi_endpoints(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "renyi.csv", ["renyi", "--steps", "9", "--tau-us", "150"]
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert float(rows[0][1]) == 0.0
        assert abs(float(rows[-1][1])) < 1e-10

    def test_wigner_grid(self, tmp_path):
        code, out = run_to_file(
            tmp_path,
            "wigner.csv",
            ["wigner", "--kind", "reduced_boson", "--points", "5", "--g-tau", "1.0"],
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,p,w"
        assert len(lines) == 26

    def test_displacement_sweep_json_schema(self, tmp_path):
        code, out = run_to_file(
            tmp_path,
            "sweep.json",
            [
                "displacement-sweep",
                "--tau-steps", "5",
                "--tau-min-us", "100",
                "--tau-max-us", "300",
                "--format", "json",
            ],
        )
        assert code == 0
        payload = json.loads(out.read_text())
        validate(payload, "cli_table")
        assert payload["columns"][0] == "tau_s"

    def test_efield_sweep_runs(self, tmp_path):
        code, out = run_to_file(
            tmp_path,
            "efield.csv",
            [
                "efield-sweep",
                "--t-steps", "3",
                "--t-min-ms", "0.4",
                "--t-max-ms", "0.6",
                "--nodes", "32",
            ],
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("T_s,tau_opt_quantum")
        assert len(lines) == 4

    def test_efield_sweep_skips_non_finite_tau(self, tmp_path):
        # at T = 1.718 ms the classical objective is inf at the largest
        # coarse-grid tau; the optimum is taken among the finite points
        code, out = run_to_file(
            tmp_path,
            "underflow.csv",
            [
                "efield-sweep",
                "--g-hz", "4427.3", "--nbar", "7.49", "--gamma", "548.8",
                "--sigma-hz", "13.48", "--n-ions", "44",
                "--t-min-ms", "0.896", "--t-max-ms", "1.718", "--t-steps", "2",
            ],
        )
        assert code == 0
        rows = [
            [float(v) for v in line.split(",")]
            for line in out.read_text().strip().splitlines()[1:]
        ]
        assert len(rows) == 2
        assert all(math.isfinite(v) for row in rows for v in row)

    def test_efield_sweep_json_schema(self, tmp_path):
        code, out = run_to_file(
            tmp_path,
            "efield.json",
            [
                "efield-sweep",
                "--t-steps", "2",
                "--t-min-ms", "0.4",
                "--t-max-ms", "0.5",
                "--nodes", "16",
                "--format", "json",
            ],
        )
        assert code == 0
        validate(json.loads(out.read_text()), "cli_table")

    def test_oracle_check_json_schema(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "oracle.json", ["oracle-check", "--format", "json"]
        )
        assert code == 0
        validate(json.loads(out.read_text()), "cli_table")

    def test_determinism(self, tmp_path):
        args = ["displacement-sweep", "--tau-steps", "7", "--format", "json"]
        _, out1 = run_to_file(tmp_path, "a.json", args)
        _, out2 = run_to_file(tmp_path, "b.json", args)
        assert out1.read_bytes() == out2.read_bytes()

    def test_excess_noise_column(self, tmp_path):
        code, out = run_to_file(
            tmp_path,
            "x.csv",
            ["displacement-sweep", "--tau-steps", "3", "--excess-noise", "1.18"],
        )
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header.endswith("delta_sq_exact_excess")

    def test_displacement_sweep_default_optimum(self, tmp_path):
        # defaults reproduce the reference conditions; the best exact point
        # sits 8-11 dB below the 1/4 coherent-state limit
        code, out = run_to_file(tmp_path, "d.csv", ["displacement-sweep"])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        best = min(float(r[1]) for r in rows)
        db = 10 * math.log10(0.25 / best)
        assert 8.0 <= db <= 11.0

    def test_efield_sweep_physics_columns(self, tmp_path):
        code, out = run_to_file(
            tmp_path,
            "e.csv",
            ["efield-sweep", "--t-steps", "7", "--t-min-ms", "0.3", "--t-max-ms", "0.9"],
        )
        assert code == 0
        rows = [
            [float(v) for v in line.split(",")]
            for line in out.read_text().strip().splitlines()[1:]
        ]
        # quantum dips below the SQL at intermediate T; classical never does
        assert any(r[3] < r[5] for r in rows)
        assert all(r[4] > r[5] for r in rows)
        gaps = [10 * math.log10(r[4] / r[3]) for r in rows]
        assert 8.0 <= float(np.median(gaps)) <= 16.0

    def test_efield_sweep_field_conversion(self, tmp_path):
        # at the calibrated 30 Hz spread the 1.14 ms point lands on the
        # quoted few-microvolt sensitivity
        code, out = run_to_file(
            tmp_path,
            "e1.csv",
            [
                "efield-sweep",
                "--t-steps", "1",
                "--t-min-ms", "1.14",
                "--t-max-ms", "1.14",
                "--sigma-hz", "30",
            ],
        )
        assert code == 0
        row = [float(v) for v in out.read_text().strip().splitlines()[1].split(",")]
        assert 2.0e-6 <= row[6] <= 2.6e-6


class TestEfieldSweepFailures:
    @pytest.mark.parametrize(
        "argv,family",
        [
            # depolarization wipes out the signal of both families at every T
            (["--gamma", "1e9", "--t-steps", "3"], "quantum"),
            # a huge coupling at N = 2: classical has no finite grid point at
            # any T, quantum only from the fourth T on; the first failure in
            # sweep order (T ascending, quantum first) is classical's
            (["--g-hz", "1e6", "--nbar", "100", "--n-ions", "2", "--gamma", "500",
              "--nodes", "16", "--t-steps", "5"], "classical"),
        ],
    )
    def test_first_failure_in_sweep_order(self, argv, family, capsys):
        assert main(["efield-sweep", *argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"numerical failure: delta_sq({family}) is not finite anywhere on the coarse grid\n"
        )


    def test_nan_quadrature_weights_exit_2(self, capsys):
        # 512 Gauss-Hermite nodes underflow to NaN weights, which used to pass
        # as a rule and fail later as "not finite anywhere on the coarse grid"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["efield-sweep", "--nodes", "512"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: quadrature nodes and weights must be finite\n"


class TestNumericalEdges:
    @pytest.mark.parametrize(
        "argv",
        [
            # the classical search walked into delta_sq = inf, then log10(0)
            "efield-sweep --g-hz 1000000",
            "efield-sweep --t-max-ms 2000000",
            # float overflow in the closed forms
            "efield-sweep --t-max-ms 1e300 --gamma 5.2e-10",
            "renyi --g-hz 3.91e303",
            "renyi --tau-us 2e302",
            "snr --g-hz 3.91e303",
            "displacement-sweep --g-hz 3.91e303",
            # every SNR row NaN, the last renyi row inf
            "snr --gamma 1e12 --nbar 5e300",
            "renyi --tau-us 2e14 --g-hz 3.91e303",
        ],
    )
    def test_finite_output_or_failure_exit(self, argv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv.split())
        out = capsys.readouterr().out
        if code == 0:
            cells = [cell for line in out.splitlines()[1:] for cell in line.split(",")]
            assert cells and all(math.isfinite(float(cell)) for cell in cells)
        else:
            assert code in (2, 3) and out == ""


class TestQuadratureConvergence:
    """The default 64 Gauss-Hermite nodes are converged where the sweeps are
    read: against 128 nodes, the default efield-sweep rows agree to 1e-12
    (measured 1.2e-13) and displacement-sweep's delta_sq up to tau 450 us
    (measured 3.6e-13).  displacement-sweep's tail is not converged (delta_sq
    off by 1.2e-4 at 600 us) and is not asserted."""

    @staticmethod
    def rows(tmp_path, argv):
        code, out = run_to_file(tmp_path, "sweep.json", argv + ["--format", "json"])
        assert code == 0
        return np.array(json.loads(out.read_text())["rows"])

    def test_efield_sweep(self, tmp_path):
        rows = self.rows(tmp_path, ["efield-sweep"])
        fine = self.rows(tmp_path, ["efield-sweep", "--nodes", "128"])
        assert np.all(np.abs(rows - fine) <= 1e-12 * np.abs(fine))

    def test_displacement_sweep_up_to_450_us(self, tmp_path):
        rows = self.rows(tmp_path, ["displacement-sweep"])
        fine = self.rows(tmp_path, ["displacement-sweep", "--nodes", "128"])
        head = rows[:, 0] <= 450e-6 * (1.0 + 1e-12)
        assert head.sum() == 87
        exact, fine_exact = rows[head, 1], fine[head, 1]
        assert np.all(np.abs(exact - fine_exact) <= 1e-12 * fine_exact)


class TestParserReuse:
    SEQUENCE = [
        ["snr", "--steps", "3", "--format", "json"],
        ["renyi", "--steps", "4"],
        ["snr"],  # the default steps and format again
        ["efield-sweep", "--t-steps", "0"],  # invalid configuration: exit 2
        ["wigner", "--points", "3", "--kind", "reduced_boson"],
        ["snr", "--steps", "3"],
        ["wigner", "--points", "3"],  # the default kind again
        ["renyi", "--no-such-flag"],  # rejected by the parser: exit 2
        ["renyi", "--steps", "4", "--format", "json"],
    ]

    @staticmethod
    def run(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    def test_consecutive_calls_share_no_state(self, capsys, monkeypatch):
        assert cli._parser() is cli._parser()
        shared = [self.run(argv, capsys) for argv in self.SEQUENCE]
        monkeypatch.setattr(cli, "_parser", build_parser)
        fresh = [self.run(argv, capsys) for argv in self.SEQUENCE]
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 0, 2, 0, 0, 0, 2, 0]
        assert len(shared[2][1].splitlines()) == 62  # csv header + 61 default steps


class TestConfigHandling:
    def test_config_file_and_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 4, "tau_us": 100.0}))
        out1 = tmp_path / "a.csv"
        assert main(["renyi", "--config", str(cfg), "--out", str(out1)]) == 0
        assert len(out1.read_text().strip().splitlines()) == 5
        out2 = tmp_path / "b.csv"
        assert main(
            ["renyi", "--config", str(cfg), "--steps", "6", "--out", str(out2)]
        ) == 0
        assert len(out2.read_text().strip().splitlines()) == 7

    def test_invalid_parameters_exit_2(self):
        assert main(["displacement-sweep", "--tau-min-us", "-50", "--tau-steps", "3"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [["displacement-sweep", "--tau-steps", "0"], ["efield-sweep", "--t-steps", "0"]],
    )
    def test_empty_grid_exit_2(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().out == ""

    def test_missing_config_exit_2(self):
        assert main(["renyi", "--config", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize(
        "entry",
        [{"tau_steps": 2.5}, {"nodes": "64"}, {"n_ions": True}, {"g_hz": float("nan")},
         {"sigma_hz": "40"}],
        ids=["fractional_int", "string_int", "bool_int", "nan_float", "string_float"],
    )
    def test_config_value_types_exit_2(self, tmp_path, entry, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry))
        assert main(["displacement-sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "text", ["[1, 2]", '{"g_hzz": 5000}'], ids=["not_object", "unknown_key"]
    )
    def test_config_file_shape_exit_2(self, tmp_path, text, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["renyi", "--steps", "3", "--config", str(cfg)]) == 2
        assert capsys.readouterr().out == ""

    def test_config_shared_between_commands(self, tmp_path):
        # a key another command reads is not a typo
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau_steps": 3, "steps": 3}))
        out = tmp_path / "r.csv"
        assert main(["renyi", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 4

    def test_config_integral_float_accepted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau_steps": 3.0, "g_hz": 3910}))
        out = tmp_path / "d.json"
        args = ["displacement-sweep", "--config", str(cfg), "--format", "json", "--out", str(out)]
        assert main(args) == 0
        params = json.loads(out.read_text())["params"]
        assert params["tau_steps"] == 3 and isinstance(params["tau_steps"], int)


    @pytest.mark.parametrize(
        "argv",
        [
            ["renyi", "--steps", "-1"],
            ["renyi", "--steps", "0"],
            ["snr", "--steps", "-1"],
            ["wigner", "--points", "0"],
            ["renyi", "--g-hz", "inf"],
            ["wigner", "--g-tau", "nan"],
            ["oracle-check", "--tol", "nan"],
            ["oracle-check", "--tol", "-1"],
            ["oracle-check", "--tol", "0"],
            ["snr", "--tau-us", "-5"],
        ],
        ids=["steps_negative", "steps_zero", "snr_steps_negative", "points_zero",
             "g_hz_inf", "g_tau_nan", "tol_nan", "tol_negative", "tol_zero",
             "snr_tau_negative"],
    )
    def test_invalid_flag_values_exit_2(self, argv, capsys):
        # flags pass the same value check as config-file entries
        assert main(argv) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "command, entry",
        [("wigner", {"kind": "bogus"}), ("renyi", {"steps": 0})],
        ids=["bogus_kind", "zero_steps"],
    )
    def test_config_value_range_exit_2(self, tmp_path, command, entry, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry))
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "source", ["config_dir", "data_dir", "non_utf8_config"]
    )
    def test_unreadable_input_exit_2(self, tmp_path, source, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"g_hz": 3910, "note": "\xe9"}')
        argv = {
            "config_dir": ["renyi", "--config", str(tmp_path)],
            "data_dir": ["calibrate", "contrast", "--data", str(tmp_path)],
            "non_utf8_config": ["renyi", "--config", str(bad)],
        }[source]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


class TestCommandTable:
    @staticmethod
    def prefix(command):
        if command == "calibrate":
            return ["calibrate", "contrast", "--data", "d.csv"]
        return [command]

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_every_default_round_trips_as_a_flag(self, command):
        parser = build_parser()
        _, defaults, _ = COMMANDS[command]
        for key, default in defaults.items():
            flag = "--" + key.replace("_", "-")
            args = parser.parse_args(self.prefix(command) + [flag, str(default)])
            assert getattr(args, key) == default
            cfg = _merged(args, defaults)
            assert cfg[key] == default and type(cfg[key]) is type(default)

    def test_readme_commands_parse(self):
        # every example in the README's CLI block is accepted by the parser
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"## CLI\n.*?```sh\n(.*?)```", readme, re.S).group(1)
        lines = block.replace("\\\n", " ").splitlines()
        commands = [shlex.split(line) for line in lines if line.startswith("echosense ")]
        assert len(commands) >= 8
        parser = build_parser()
        for argv in commands:
            parser.parse_args(argv[1:])

    def test_import_loads_no_scipy(self, tmp_path):
        # only oracle solves and calibrate fits need scipy, so importing the
        # package loads none of it; oracle-check then resolves scipy.linalg
        out = tmp_path / "oracle.csv"
        code = (
            "import json, sys, echosense, echosense.cli, echosense.oracle; "
            "before = sorted(m for m in sys.modules if m.startswith('scipy')); "
            f"code = echosense.cli.main(['oracle-check', '--out', {str(out)!r}]); "
            "print(json.dumps([before, code, 'scipy.linalg' in sys.modules]))"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert json.loads(proc.stdout) == [[], 0, True]
        lines = out.read_text().strip().splitlines()
        assert len(lines) > 1 and all(line.endswith(",ok") for line in lines[1:])


class TestOracleCheck:
    def test_passes_at_default_tolerance(self, tmp_path):
        code, out = run_to_file(tmp_path, "oracle.csv", ["oracle-check"])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert all(line.endswith(",ok") for line in lines[1:])

    def test_exit_3_when_tolerance_unattainable(self, tmp_path):
        code, _ = run_to_file(
            tmp_path, "oracle2.csv", ["oracle-check", "--tol", "1e-16"]
        )
        assert code == 3


class TestCalibrate:
    def make_sigma_csv(self, tmp_path):
        g = 2 * math.pi * 3910.0
        taus = np.linspace(1e-4, 2.5e-3, 25)
        y = pup_model(taus, g, 2 * math.pi * 40.0, 5.0, 150, 250.0)
        path = tmp_path / "sigma.csv"
        lines = ["x,y"] + [f"{t},{v}" for t, v in zip(taus, y)]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_sigma_fit_json_schema(self, tmp_path):
        path = self.make_sigma_csv(tmp_path)
        out = tmp_path / "fit.json"
        code = main(
            [
                "calibrate", "sigma",
                "--data", str(path),
                "--g-hz", "3910", "--nbar", "5", "--n-ions", "150",
                "--gamma-tot", "250",
                "--format", "json",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        validate(payload, "fit_result")
        assert payload["params"]["sigma"] == pytest.approx(2 * math.pi * 40.0, rel=0.02)

    @pytest.mark.parametrize(
        "text",
        ["x,y\n1e-4,0.1\n2e-4,abc\n", "x,y\n1e-4,0.1\n2e-4\n", "1,2\n3,4\n5,6\n7,8\n"],
        ids=["non_numeric", "short_row", "missing_header"],
    )
    def test_malformed_csv_exit_2(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert main(["calibrate", "contrast", "--data", str(path)]) == 2

    def test_singular_covariance_exit_3(self, tmp_path, capsys):
        # every point at the same wait time: the heating fit cannot separate
        # nbar0 from the rate
        path = tmp_path / "same.csv"
        path.write_text("x,y\n1,0.3\n1,0.4\n1,0.5\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the start-value line fit is quiet
            assert main(["calibrate", "heating", "--data", str(path)]) == 3
        assert "singular" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "kind,text,message",
        [
            # wait times up to 1e300 overflow J^T J: the JSON format printed
            # NaN covariances and errors and exited 0
            ("heating", "x,y\n0.5054559227921547,0.0005671520929277632\n1e12,1000.0\n"
             "1e300,0.0005694463403712831\n1e300,0.0003634458469482544\n",
             "no finite standard errors"),
            # every wait time 0: the start-value line fit has no solution
            ("heating", "x,y\n0,0\n0,0\n0,0\n", "no start values"),
            ("contrast", "x,y\n0,0.5\n0,0.4\n0,0.3\n", "no start values"),
            # finite residuals over yerr = 1e-300 overflow
            ("contrast", "x,y,yerr\n0,0,1e-300\n0,0,1e-300\n0,0,1e-300\n0,179769315,1e-300\n",
             "residuals became non-finite"),
        ],
        ids=["far_wait_times", "heating_zero_x", "contrast_zero_x", "tiny_yerr"],
    )
    def test_undetermined_fit_exit_3(self, tmp_path, kind, text, message, fmt, capsys):
        # each used to exit 0 with NaN in its JSON or end in a traceback
        path = tmp_path / "undetermined.csv"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["calibrate", kind, "--data", str(path), "--format", fmt]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        # numpy's overflow and RankWarning from the start-value line fit used
        # to reach stderr ahead of the failure line
        assert [str(w.message) for w in caught] == []
        assert len(captured.err.splitlines()) == 1
        assert message in captured.err

    def test_flat_ringdown_exit_3(self, tmp_path, capsys):
        # flat data drive the decay rate negative until the model overflows;
        # that used to exit 0 with a made-up kappa and numpy RuntimeWarnings
        path = tmp_path / "flat.csv"
        path.write_text("x,y\n" + "".join(f"{x},0.5\n" for x in range(5)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["calibrate", "ringdown", "--data", str(path)]) == 3
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("tau_us", ["-5", "0"])
    def test_ringdown_nonpositive_readout_time_exit_2(self, tmp_path, tau_us, capsys):
        waits = np.linspace(0.0, 0.4, 12)
        y = ring_down_model(0.8 * np.exp(-waits / 0.3), 250.0, 1.5e-3)
        path = tmp_path / "ringdown.csv"
        path.write_text("x,y\n" + "".join(f"{x},{v}\n" for x, v in zip(waits, y)))
        argv = ["calibrate", "ringdown", "--data", str(path), "--tau-us", tau_us]
        assert main(argv) == 2
        assert capsys.readouterr().out == ""

    def test_contrast_fit_csv(self, tmp_path):
        times = np.linspace(2e-4, 8e-3, 20)
        path = tmp_path / "contrast.csv"
        lines = ["x,y"] + [f"{t},{math.exp(-250.0 * t)}" for t in times]
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "fit.csv"
        code = main(["calibrate", "contrast", "--data", str(path), "--out", str(out)])
        assert code == 0
        row = out.read_text().strip().splitlines()[1].split(",")
        assert row[0] == "gamma_tot"
        assert float(row[1]) == pytest.approx(250.0, rel=0.01)


# flag values of the contract property: the edges of float range, the
# physical scale and the degenerate ones, as given or times the default
EDGE_VALUES = (0.0, -1.0, 1e-300, 1e-12, 1e-6, 0.5, 2.0, 1e3, 1e6, 1e12, 1e300)
# grid sizes each run starts from, so that an example costs milliseconds;
# a drawn grid size stays at most GRID_CAP
SMALL_GRIDS = {"t_steps": 2, "tau_steps": 3, "steps": 3, "points": 3, "nodes": 8}
GRID_CAP = 64
NUMERIC_COMMANDS = sorted(name for name in COMMANDS if name != "calibrate")


def _flag_values(key, default):
    base = SMALL_GRIDS.get(key, default)
    values = EDGE_VALUES + tuple(v * base for v in EDGE_VALUES)
    if key in SMALL_GRIDS:
        values = tuple(v for v in values if abs(v) <= GRID_CAP)
    # an integer flag gets integral values as integers, others as floats,
    # which the parser rejects
    return sorted({
        str(int(v)) if isinstance(default, int) and float(v).is_integer() else repr(float(v))
        for v in values
    })


@st.composite
def _flags(draw, command, min_size):
    """``--key value`` pairs for ``min_size`` to 3 of ``command``'s numeric keys."""
    defaults = COMMANDS[command][1]
    keys = [k for k, v in defaults.items() if not isinstance(v, str)]
    chosen = draw(st.lists(st.sampled_from(keys), min_size=min_size, max_size=3, unique=True))
    argv = []
    for key in chosen:
        value = draw(st.sampled_from(_flag_values(key, defaults[key])))
        argv += ["--" + key.replace("_", "-"), value]
    return argv


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _run_contract(argv, fmt):
    """Run ``main`` and return its exit code, asserting the contract: exit 0
    with every printed number finite, exit 2, or exit 3."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("ignore")
        try:
            code = main(argv + ["--format", fmt])
        except SystemExit as exc:  # the parser's own rejection
            code = exc.code
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    text = out.getvalue()
    if code == 0 and fmt == "json":
        payload = json.loads(text, parse_constant=_reject_constant)
        validate(payload, "fit_result" if argv[0] == "calibrate" else "cli_table")
    elif code == 0:
        cells = [cell for line in text.splitlines()[1:] for cell in line.split(",")]
        numbers = [float(cell) for cell in cells if re.fullmatch(r"[-+0-9.eE]+|nan|-?inf", cell)]
        assert numbers and all(map(math.isfinite, numbers)), (argv, text)
    return code


class TestContractProperty:
    """Every command ends in exit 0 with finite numbers, exit 2 or exit 3,
    whatever its numeric flags; derandomized, so the suite is deterministic."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.sampled_from(NUMERIC_COMMANDS).flatmap(
        lambda command: st.tuples(st.just(command), _flags(command, 1),
                                  st.sampled_from(["csv", "json"]))
    ))
    def test_numeric_commands(self, case):
        command, flags, fmt = case
        base = [
            f"--{key.replace('_', '-')}={value}"
            for key, value in SMALL_GRIDS.items()
            if key in COMMANDS[command][1]
        ]
        _run_contract([command, *base, *flags], fmt)

    # the quadrature rule alone, so that --nodes can reach past where numpy's
    # Hermite weights turn NaN (372) without running a sweep per example
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        st.sampled_from([2, 370, 372, 1000]) | st.integers(1, 500).map(lambda k: 2 * k),
        st.sampled_from(_flag_values("sigma_hz", COMMANDS["efield-sweep"][1]["sigma_hz"])),
    )
    def test_nodes_rule(self, nodes, sigma_hz):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                rule = gauss_hermite_rule(TWO_PI * float(sigma_hz), nodes)
            except ConfigError:
                return
        assert np.isfinite(rule.nodes).all() and np.isfinite(rule.weights).all()
        assert len(rule.nodes) == (1 if float(sigma_hz) == 0.0 else nodes)

    # every example rewrites the same file, so the function-scoped tmp_path
    # is safe to share
    @settings(
        max_examples=100,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.sampled_from(sorted(cli.CALIBRATIONS)),
        st.lists(
            st.tuples(*[st.sampled_from(EDGE_VALUES) | st.floats()] * 3), min_size=0, max_size=6
        ),
        st.booleans(),
        _flags("calibrate", 0),
    )
    def test_calibrate(self, tmp_path, kind, rows, with_err, flags):
        path = tmp_path / "data.csv"
        header = "x,y,yerr" if with_err else "x,y"
        path.write_text(
            "\n".join([header] + [",".join(map(repr, row[: 2 + with_err])) for row in rows]) + "\n"
        )
        codes = {
            fmt: _run_contract(["calibrate", kind, "--data", str(path), *flags], fmt)
            for fmt in ("csv", "json")
        }
        # one fit, two renderings: they fail or succeed together
        assert codes["csv"] == codes["json"], codes
