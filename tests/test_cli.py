import csv
import json

import numpy as np
import pytest

import cpstensor.applications as ap
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


class TestRank1:
    def test_gap_objective_sdp(self, gap_file, capsys):
        code = main(["rank1", gap_file, "--model", "sdp"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["objective"] == pytest.approx(0.5, abs=1e-3)
        assert code in (0, 2)  # degenerate maximizer set may defeat certification

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

    def test_stop_reason_and_final_penalty(self, rank_one_file, capsys):
        main(["rank1", rank_one_file])
        payload = json.loads(capsys.readouterr().out)
        assert payload["stop_reason"] == "tol"
        assert payload["beta_final"] > 0
        main(["rank1", rank_one_file, "--max-iter", "3"])
        assert json.loads(capsys.readouterr().out)["stop_reason"] == "max_iter"

    def test_bad_permutation_exit(self, gap_file):
        assert main(["rank1", gap_file, "--pi", "1,2,3,4"]) == 3


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

    def test_zero_tol_runs_to_max_iter(self, cps_file, capsys):
        # a default-tolerance solve of this tensor converges well before 1000
        main(["--tol", "0", "rank1", cps_file, "--max-iter", "1000"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["iterations"] == 1000
        assert payload["converged"] is False

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
        ],
    )
    def test_out_of_range_exits_3(self, cps_file, sym_file, capsys, argv):
        files = {"FILE": cps_file, "ZFILE": sym_file}
        assert main([files.get(a, a) for a in argv]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ")


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
        assert main(["useig", str(path), "--retries", "0"]) == 2


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
        cfg = apx.scenario_to_config(apx.default_scenario(4, rho=10.0), s0_seed=3)
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
        ],
        ids=["range_bin", "no_patches", "bad_json"],
    )
    def test_bad_scenario_file_exits_3(self, tmp_path, capsys, text):
        path = tmp_path / "scenario.json"
        path.write_text(text)
        code = main(["experiment", "radar", "--model", "sdp", "--scenario", str(path)])
        assert code == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ")

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
