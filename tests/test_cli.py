import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import cpstensor.applications as ap
import cpstensor.cli as cli
import cpstensor.decompose as dc
import cpstensor.errors as errors
import cpstensor.tensor as tz
from cpstensor.cli import main
from conftest import random_cps_tensor, random_ps_tensor, random_unit


@pytest.fixture
def gap_file(tmp_path, gap_tensor):
    path = tmp_path / "gap.json"
    tz.save_tensor(gap_tensor, path)
    return str(path)


@pytest.fixture
def rank_one_file(tmp_path):
    rng = np.random.default_rng(0)
    t = tz.rank_one_cps(1.5, random_unit(2, rng), 2)
    path = tmp_path / "r1.json"
    tz.save_tensor(t, path)
    return str(path)


class TestValidate:
    def test_gap_tensor_cps(self, gap_file, capsys):
        assert main(["validate", gap_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["cps"] is True and report["ps"] is True

    def test_random_complex_not_ps(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        raw = rng.standard_normal((2,) * 4) + 1j * rng.standard_normal((2,) * 4)
        path = tmp_path / "raw.json"
        tz.save_tensor(tz.DenseTensor(2, 4, raw), path)
        assert main(["validate", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ps"] is False and report["cps"] is False

    def test_zero_tensor_all_true(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        tz.save_tensor(tz.zero(2, 4), path)
        main(["validate", str(path)])
        report = json.loads(capsys.readouterr().out)
        assert report["symmetric"] and report["ps"] and report["cps"]

    def test_parse_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert main(["validate", str(path)]) == 3

    @pytest.mark.parametrize("value", ["1e400", "2.5", "true", '"1"'])
    def test_integer_field_not_whole_exits_3(self, tmp_path, capsys, value):
        # 1e400 parses as infinity, which int() overflows on (exit 1), and
        # int() reads true and "1" as n = 1 (exit 0)
        path = tmp_path / "bad.json"
        path.write_text('{"n": %s, "d": 4, "entries": []}' % value)
        assert main(["validate", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: n must be an integer") and err.count("\n") == 1


class TestDecompose:
    def test_rank_one_single_term(self, rank_one_file, capsys):
        assert main(["decompose", rank_one_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["term_count"] == 1
        assert payload["residual"] <= 1e-8

    def test_gap_tensor_residual(self, gap_file, capsys):
        assert main(["decompose", gap_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["residual"] <= 1e-8
        assert payload["term_count"] >= 3

    def test_order_six(self, tmp_path, capsys):
        t = random_cps_tensor(2, 3, d=3)
        path = tmp_path / "order6.json"
        tz.save_tensor(t, path)
        assert main(["decompose", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["residual"] <= 1e-8 * t.norm()
        assert payload["term_count"] <= 16

    def test_rejects_ps_only(self, tmp_path):
        t = random_ps_tensor(2, 2)
        path = tmp_path / "ps.json"
        tz.save_tensor(t, path)
        assert main(["decompose", str(path)]) == 3

    def test_round_trip_miss_exits_4(self, monkeypatch, rank_one_file, capsys):
        # one wrong term: the reconstruction misses TOL_DECOMP, and the JSON
        # is still written
        wrong = tz.CpsTerm(1.0, np.array([1.0, 0.0], dtype=complex))
        monkeypatch.setattr(dc, "cps_decompose", lambda t: [wrong])
        assert main(["decompose", rank_one_file]) == 4
        payload = json.loads(capsys.readouterr().out)
        assert payload["term_count"] == 1
        assert payload["terms"] == [{"lambda": 1.0, "a": [[1.0, 0.0], [0.0, 0.0]]}]
        t = tz.load_tensor(rank_one_file)
        expected = np.linalg.norm(tz.assemble([wrong], 2, 2).entries - t.entries)
        assert payload["residual"] == expected > dc.TOL_DECOMP * t.norm()


class TestMatricize:
    def test_canonical_hermitian(self, gap_file, capsys):
        assert main(["matricize", gap_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pi"] == [1, 3, 4, 2]
        m = np.array([[complex(re, im) for re, im in row] for row in payload["matrix"]])
        assert np.allclose(m, m.conj().T)

    def test_explicit_pi(self, gap_file, capsys):
        assert main(["matricize", gap_file, "--pi", "1,2,3,4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pi"] == [1, 2, 3, 4]

    @pytest.mark.parametrize("pi", ["1,2,3", "1,2,3,4,5"])
    def test_wrong_length_pi_exits_3(self, gap_file, capsys, pi):
        assert main(["matricize", gap_file, "--pi", pi]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ")


class TestRank1:
    def test_gap_objective_sdp(self, gap_file, capsys):
        # its maximizers form a family; the check at the tol stop reads one
        # off X's top eigenspace
        code = main(["rank1", gap_file, "--model", "sdp"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["objective"] == pytest.approx(0.5, abs=1e-3)
        assert code == 0

    def test_rank_one_certified(self, rank_one_file, capsys):
        assert main(["rank1", rank_one_file, "--model", "sdp"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["certified"] is True
        assert payload["eigenpair"]["value"][0] == pytest.approx(1.5, abs=1e-4)

    def test_nuclear_model(self, rank_one_file, capsys):
        assert main(["rank1", rank_one_file, "--model", "nuclear"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == "nuclear"
        assert payload["certified"] is True

    def test_stop_reason_and_final_penalty(self, rank_one_file, tmp_path, capsys):
        # at n = 1 the solve reaches tol before the first bracket check, and
        # the check at the stop certifies it
        path = tmp_path / "n1.json"
        tz.save_tensor(tz.rank_one_cps(1.5, np.ones(1, dtype=complex), 2), path)
        main(["rank1", str(path)])
        payload = json.loads(capsys.readouterr().out)
        assert (payload["stop_reason"], payload["certificate"]) == ("tol", "bracket")
        assert payload["beta_final"] > 0
        main(["rank1", rank_one_file, "--max-iter", "1"])
        payload = json.loads(capsys.readouterr().out)
        assert (payload["stop_reason"], payload["certificate"]) == ("max_iter", "")

    def test_bracket_certificate(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        tz.save_tensor(ap.random_cps(4, 8003), path)
        assert main(["rank1", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["stop_reason"], payload["certificate"]) == ("gap", "bracket")
        assert payload["converged"] is True and payload["rank_one_ratio"] == 0.0
        assert 0.0 <= payload["optimality_gap"] <= 1e-12

    def test_diverged_exits_4(self, tmp_path, capsys):
        # rho far below ||C||_2 leaves the nuclear model unbounded
        path = tmp_path / "t.json"
        tz.save_tensor(ap.random_cps(4, 8000), path)
        assert main(["rank1", str(path), "--model", "nuclear", "--rho", "0.25"]) == 4
        payload = json.loads(capsys.readouterr().out)
        assert payload["stop_reason"] == "diverged"
        assert payload["certified"] is False

    def test_small_rho_warning_silent_by_default(self, tmp_path):
        # the package logger has a NullHandler: an application that configures
        # no logging sees no warning, only the CLI's own error line, and the
        # exit code stays 4
        path = tmp_path / "t.json"
        tz.save_tensor(ap.random_cps(4, 8000), path)
        code = (
            "from cpstensor.cli import main; raise SystemExit("
            f"main(['rank1', {str(path)!r}, '--model', 'nuclear', '--rho', '0.25']))"
        )
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 4
        assert [line[:6] for line in done.stderr.splitlines()] == ["error:"]

    def test_usage_error_process_exits_3(self):
        # argparse would exit 2, which here means "uncertified"
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "cpstensor.cli", "rank1"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 3
        assert done.stdout == ""
        assert [line[:7] for line in done.stderr.splitlines()] == ["error: "]

    def test_zero_tensor_nuclear_exits_3(self, tmp_path, capsys):
        # the default rho = ||C||_2 is 0, which the error names, instead of
        # blaming a rho of -0.0 the caller never passed
        path = tmp_path / "zero.json"
        tz.save_tensor(tz.zero(2, 4), path)
        assert main(["rank1", str(path), "--model", "nuclear"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: ") and "||C||_2 = 0" in err and "rho" in err

    def test_zero_tensor_order_six_certifies(self, tmp_path, capsys):
        # every unit x is a C-eigenvector of T = 0, with value 0; the
        # order-6 SDP solve used to stop uncertified on tol (exit 2)
        path = tmp_path / "zero6.json"
        tz.save_tensor(tz.zero(2, 6), path)
        assert main(["rank1", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["certificate"], report["iterations"]) == ("bracket", 0)
        assert report["eigenpair"]["value"] == [0.0, 0.0]

    def test_optimality_gap(self, rank_one_file, capsys):
        assert main(["rank1", rank_one_file]) == 0
        assert abs(json.loads(capsys.readouterr().out)["optimality_gap"]) <= 1e-9

    def test_bad_permutation_exit(self, gap_file):
        assert main(["rank1", gap_file, "--pi", "1,2,3,4"]) == 3

    def test_uncertified_json_is_strict(self, gap_file, capsys):
        # JSON has no NaN or Infinity, so a non-finite number is written as null
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        # stopped after one evaluation, far from the optimum
        assert main(["rank1", gap_file, "--max-iter", "1"]) == 2
        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert payload["certified"] is False
        assert payload["eigen_residual"] is None and payload["optimality_gap"] is None

    def test_not_utf8_file_exits_3(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe")
        assert main(["rank1", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert str(path) in err and "not UTF-8" in err and "0xff" in err


class TestNumericFlags:
    @pytest.fixture
    def cps_file(self, tmp_path):
        path = tmp_path / "t.json"
        tz.save_tensor(random_cps_tensor(3, 4), path)
        return str(path)

    @pytest.fixture
    def sym_file(self, tmp_path):
        path = tmp_path / "z.json"
        tz.save_tensor(ap.useig_benchmark("b"), path)
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--tol", "-0.001", "rank1", "FILE"],
            ["--tol", "nan", "rank1", "FILE"],
            ["rank1", "FILE", "--max-iter", "-5"],
            ["rank1", "FILE", "--max-iter", "0"],
            ["rank1", "FILE", "--model", "nuclear", "--rho", "0"],
            ["rank1", "FILE", "--rho", "-2"],
            ["useig", "ZFILE", "--max-iter", "-1"],
            ["useig", "ZFILE", "--retries", "2", "--eps", "-0.5"],
            ["experiment", "random", "--sizes", "4", "--rho", "0"],
            ["--tol", "-1e-3", "rank1", "FILE"],
            ["--tol=-1e-3", "rank1", "FILE"],
            ["rank1", "FILE", "--rho", "-2e0"],
            ["rank1", "FILE", "--rho=-2e0"],
            ["experiment", "random", "--sizes", "4", "--instances", "0"],
            ["--jobs", "0", "experiment", "random", "--sizes", "4"],
            ["experiment", "random", "--sizes", "4", "--jobs", "-1"],
            ["experiment", "random", "--sizes", "1"],
            ["experiment", "radar", "--sizes", "0"],
            ["experiment", "random", "--sizes", "x"],
            ["--seed", "-1", "useig", "ZFILE", "--retries", "2"],
            ["experiment", "random", "--sizes", "3", "--instances", "1",
             "--model", "sdp", "--seed", "-1"],
            ["useig", "ZFILE", "--retries", "-1"],
            ["rank1"],
            ["rank1", "FILE", "--model", "foo"],
            ["--tol", "abc", "rank1", "FILE"],
            ["rank1", "FILE", "--bogus"],
            ["experiment", "nope"],
        ],
    )
    def test_out_of_range_exits_3(self, cps_file, sym_file, capsys, argv):
        files = {"FILE": cps_file, "ZFILE": sym_file}
        assert main([files.get(a, a) for a in argv]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ")


INPUT_ERRORS = {
    "ParseError", "NotCps", "NotPartialSymmetric", "NotSymmetric",
    "OddOrder", "SizeMismatch", "BadPermutation", "RangeError",
}


class TestExitCodes:
    @pytest.mark.parametrize(
        "cls",
        [c for c in vars(errors).values()
         if isinstance(c, type) and issubclass(c, errors.CpsTensorError)
         and c not in (errors.CpsTensorError, errors.InputError)],
        ids=lambda c: c.__name__,
    )
    def test_exit_3_exactly_for_input_errors(self, gap_file, capsys, monkeypatch, cls):
        def fail(args):
            raise cls("injected")

        monkeypatch.setattr(cli, "cmd_validate", fail)
        if cls.__name__ in INPUT_ERRORS:
            expected = 3
        else:
            expected = 2 if cls is errors.Uncertified else 4
        assert main(["validate", gap_file]) == expected
        assert capsys.readouterr().err == "error: injected\n"
        assert issubclass(cls, errors.InputError) == (expected == 3)


class TestUseig:
    def test_benchmark_file(self, tmp_path, capsys):
        path = tmp_path / "z.json"
        tz.save_tensor(ap.useig_benchmark("a"), path)
        assert main(["useig", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lambda"] == pytest.approx(2.3547, abs=1e-3)

    def test_uncertified_exit(self, tmp_path, capsys):
        path = tmp_path / "z.json"
        tz.save_tensor(ap.useig_benchmark("b"), path)
        assert main(["useig", str(path), "--retries", "0", "--max-iter", "1"]) == 2


class TestExperiment:
    def _run(self, tmp_path, name, extra=()):
        out = tmp_path / "rows.csv"
        code = main(
            ["--output", str(out), "experiment", name, *extra]
        )
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        return code, rows

    def test_random_smoke(self, tmp_path):
        code, rows = self._run(
            tmp_path, "random",
            ("--sizes", "4", "--instances", "2", "--model", "sdp", "--seed", "1"),
        )
        assert code == 0
        assert len(rows) == 2
        assert all(r["certified"] == "1" for r in rows)

    def test_useig_table(self, tmp_path):
        code, rows = self._run(tmp_path, "useig")
        assert code == 0
        lams = sorted(float(r["lambda"]) for r in rows)
        assert lams[0] == pytest.approx(2.3547, abs=1e-3)
        assert lams[1] == pytest.approx(3.1623, abs=1e-3)

    def test_failed_instance_is_a_row_and_a_line(self, monkeypatch, tmp_path, capsys):
        def uncertified(*args, **kwargs):
            raise errors.Uncertified("injected")

        monkeypatch.setattr(ap, "us_eigen", uncertified)
        code, rows = self._run(tmp_path, "useig", ("--jobs", "1"))
        assert code == 0
        assert len(rows) == 2
        assert all(r["certified"] == "0" and r["iterations"] == "0" for r in rows)
        failed = [line for line in capsys.readouterr().err.splitlines() if "failed" in line]
        assert failed == [
            f"instance {r['instance_seed']} failed: Uncertified: injected" for r in rows
        ]

    def test_deterministic_modulo_wall_clock(self, tmp_path):
        args = ("--sizes", "4", "--instances", "2", "--model", "sdp", "--seed", "3")
        _, rows1 = self._run(tmp_path, "random", args)
        _, rows2 = self._run(tmp_path, "random", args)
        strip = lambda rows: [
            {k: v for k, v in row.items() if k != "wall_ms"} for row in rows
        ]
        assert strip(rows1) == strip(rows2)

    def test_radar_smoke(self, tmp_path):
        code, rows = self._run(
            tmp_path, "radar", ("--instances", "2", "--model", "sdp", "--seed", "0")
        )
        assert code == 0
        assert all(r["certified"] == "1" for r in rows)

    def test_scenario_file(self, tmp_path):
        import cpstensor.applications as apx
        cfg = apx.scenario_to_config(apx.default_scenario(4, rho=10.0, s0_seed=3))
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        code, rows = self._run(
            tmp_path, "radar",
            ("--instances", "2", "--model", "sdp", "--scenario", str(path)),
        )
        assert code == 0
        assert all(r["size"] == "4" for r in rows)

    @pytest.mark.parametrize(
        "text",
        [
            json.dumps({"n": 4, "m": 4, "rho": 10.0,
                        "patches": [{"r": 9, "delta": [1], "sigma2": 1.0}]}),
            json.dumps({"n": 4, "m": 4, "rho": 10.0}),
            '{"n": 4,',
            json.dumps({"n": 4, "m": 4, "rho": 10.0, "patches": [], "s0_seed": -1}),
            '{"n": 4, "m": 4, "rho": NaN, "patches": []}',
            '{"n": 4, "m": 4, "rho": Infinity, "patches": []}',
            '{"n": 4, "m": 4, "rho": 10.0, "patches": [{"r": 0, "delta": [1], "sigma2": NaN}]}',
            '{"n": 4, "m": 4, "rho": 10.0,'
            ' "patches": [{"r": 0, "delta": [1], "sigma2": Infinity}]}',
            '{"n": 0, "m": 2, "rho": 30, "patches": [], "s0_seed": 0}',
            '{"n": 4, "m": 4, "rho": 10.0, "patches": [], "s0_seed": 1e400}',
            '{"n": 4, "m": 4, "rho": 10.0, "patches": [{"r": 1e400, "delta": [1], "sigma2": 1}]}',
            '{"n": 4.5, "m": 4, "rho": 10.0, "patches": []}',
            '{"n": 5, "m": "5", "rho": "30", "patches": [], "s0_seed": false}',
            '{"n": true, "m": 4, "rho": 10.0, "patches": []}',
            '{"n": 4, "m": 4, "rho": "30", "patches": []}',
            '{"n": 4, "m": 4, "rho": 10.0, "patches": [], "s0_seed": false}',
            '{"n": 4, "m": 4, "rho": 10.0, "patches": [{"r": 0, "delta": [1], "sigma2": "1"}]}',
        ],
        ids=["range_bin", "no_patches", "bad_json", "negative_seed",
             "nan_rho", "infinite_rho", "nan_sigma2", "infinite_sigma2",
             "empty_code", "overflow_seed", "overflow_range_bin", "fractional_n",
             "string_fields", "boolean_n", "string_rho", "boolean_seed", "string_sigma2"],
    )
    def test_bad_scenario_file_exits_3(self, tmp_path, capsys, text):
        path = tmp_path / "scenario.json"
        path.write_text(text)
        code = main(["experiment", "radar", "--model", "sdp", "--scenario", str(path)])
        assert code == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1

    def test_global_seed_flag(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = main([
            "--output", str(out), "--seed", "7",
            "experiment", "random", "--sizes", "4", "--instances", "1",
            "--model", "sdp",
        ])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["instance_seed"] == "7"

    def test_certified_rows_have_small_residual(self, tmp_path):
        code, rows = self._run(
            tmp_path, "random",
            ("--sizes", "4", "--instances", "3", "--model", "sdp", "--seed", "2"),
        )
        for r in rows:
            if r["certified"] == "1":
                assert float(r["eigen_residual"]) <= 1e-6

    def test_jobs_flag_matches_serial(self, tmp_path):
        args = ("--sizes", "4", "--instances", "2", "--model", "sdp", "--seed", "5")
        _, serial = self._run(tmp_path, "random", args)
        _, parallel = self._run(tmp_path, "random", args + ("--jobs", "2"))
        strip = lambda rows: [
            {k: v for k, v in row.items() if k != "wall_ms"} for row in rows
        ]
        assert strip(serial) == strip(parallel)
