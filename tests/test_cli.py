"""End-to-end tests of the command line interface, driven through ``main``."""

import json
import os
import sys

import numpy as np
import pytest

from pafimocs import fileio
from pafimocs.cli import main
from pafimocs.harness import FilterSpec, SimConfig, sim_config_to_kv
from pafimocs.models import ModelParams

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts"))

from artifact_digest import write_problem  # noqa: E402


def small_config(**overrides):
    base = dict(
        seed=3,
        n_frames=3,
        frame_height=24,
        frame_width=24,
        template_height=8,
        template_width=8,
        d=1,
        n_pf=4,
        params=ModelParams(
            n_lambda=3,
            s_expected=2,
            p_a=0.03,
            p_r=0.015,
            sigma_l_sq=0.01,
            sigma_u=(0.5, 0.5, 0.0),
            sigma_o_sq=1.0,
        ),
        initial_support_size=2,
        filters=(
            FilterSpec("pafimocs", "pafimocs", 1),
            FilterSpec("pf-gordon-1", "pf-gordon", 1),
        ),
        n_monte_carlo=1,
    )
    base.update(overrides)
    return SimConfig(**base)


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "sim.cfg"
    fileio.write_kv(path, sim_config_to_kv(small_config()))
    return str(path)


def read_csv_rows(path):
    lines = [ln for ln in open(path).read().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class TestSimulate:
    def test_writes_sequence_directory(self, tmp_path, config_path, capsys):
        out = str(tmp_path / "sim")
        assert main(["simulate", "--config", config_path, "--out", out]) == 0
        assert "4 frames" in capsys.readouterr().out
        for name in ("config.cfg", "template.cfg", "template.mat", "states.csv"):
            assert os.path.exists(os.path.join(out, name))
        for t in range(4):
            assert os.path.exists(os.path.join(out, f"frame_{t:04d}.mat"))
            assert os.path.exists(os.path.join(out, f"frame_{t:04d}.pgm"))

        rows = read_csv_rows(os.path.join(out, "states.csv"))
        assert len(rows) == 4
        assert rows[0]["u_x"] == "0.0" and rows[0]["s"] == "1.0"
        assert all(rows[0][f"lam_{k}"] == "0.0" for k in range(3))
        # initial support has the configured size
        assert len(rows[0]["support"].split("|")) == 2

    def test_deterministic_across_invocations(self, tmp_path, config_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["simulate", "--config", config_path, "--out", a]) == 0
        assert main(["simulate", "--config", config_path, "--out", b]) == 0
        for name in ("states.csv", "frame_0000.mat", "config.cfg"):
            assert (
                open(os.path.join(a, name), "rb").read()
                == open(os.path.join(b, name), "rb").read()
            )

    def test_seed_override_changes_output(self, tmp_path, config_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["simulate", "--config", config_path, "--out", a])
        main(["simulate", "--config", config_path, "--out", b, "--seed", "99"])
        assert (
            open(os.path.join(a, "states.csv")).read()
            != open(os.path.join(b, "states.csv")).read()
        )


class TestTrack:
    @pytest.fixture
    def sim_dir(self, tmp_path, config_path):
        out = str(tmp_path / "sim")
        main(["simulate", "--config", config_path, "--out", out])
        return out

    def test_round_trip(self, sim_dir, tmp_path, capsys):
        out = str(tmp_path / "trk")
        assert main(["track", "--sim", sim_dir, "--out", out]) == 0
        assert "2 filters over 4 frames" in capsys.readouterr().out

        est = read_csv_rows(os.path.join(out, "estimates.csv"))
        assert {r["filter"] for r in est} == {"pafimocs", "pf-gordon-1"}
        assert len(est) == 2 * 4

        met = read_csv_rows(os.path.join(out, "metrics.csv"))
        first = met[0]
        assert first["frame"] == "0"
        assert float(first["nmse"]) == 0.0 and float(first["loc_err"]) == 0.0

        log = read_csv_rows(os.path.join(out, "tracker_log.csv"))
        assert float(log[0]["ess"]) == 4.0  # truth-initialized, uniform weights

        summary = json.loads(open(os.path.join(out, "track_summary.json")).read())
        assert set(summary) == {"pafimocs", "pf-gordon-1"}
        for entry in summary.values():
            assert entry["lost_at"] is None
            assert entry["final_nmse"] >= 0.0

    def test_filter_subset_and_determinism(self, sim_dir, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        args = ["track", "--sim", sim_dir, "--filters", "pafimocs", "--seed", "7"]
        assert main(args + ["--out", a]) == 0
        assert main(args + ["--out", b]) == 0
        est = read_csv_rows(os.path.join(a, "estimates.csv"))
        assert {r["filter"] for r in est} == {"pafimocs"}
        assert (
            open(os.path.join(a, "estimates.csv"), "rb").read()
            == open(os.path.join(b, "estimates.csv"), "rb").read()
        )

    def test_filters_option_keeps_config_overrides(self, tmp_path):
        path = tmp_path / "gamma.cfg"
        fileio.write_kv(path, {"pafimocs.gamma": 55.0, "n_pf": 4, "filters": "pafimocs,pf-mt-3"})
        sim = str(tmp_path / "sim")
        assert main(["simulate", "--config", str(path), "--out", sim, "--n-frames", "2"]) == 0
        all_dir, one_dir = str(tmp_path / "all"), str(tmp_path / "one")
        assert main(["track", "--sim", sim, "--out", all_dir]) == 0
        assert main(["track", "--sim", sim, "--out", one_dir, "--filters", "pafimocs"]) == 0
        # pafimocs comes first in both runs, so it gets the same seed
        for name in ("estimates.csv", "metrics.csv", "tracker_log.csv"):
            rows = read_csv_rows(os.path.join(all_dir, name))
            assert [r for r in rows if r["filter"] == "pafimocs"] == read_csv_rows(
                os.path.join(one_dir, name)
            )

    def test_missing_sim_dir_fails_cleanly(self, tmp_path, capsys):
        rc = main(["track", "--sim", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert rc == 1
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        payload = json.loads(err_lines[0])
        assert set(payload) == {"error", "type"}

    def test_non_finite_frame_fails_cleanly(self, sim_dir, tmp_path, capsys):
        path = os.path.join(sim_dir, "frame_0002.mat")
        image, header = fileio.load_matrix(path)
        image[3, 4] = np.nan
        fileio.save_matrix(path, image, header)
        capsys.readouterr()
        rc = main(["track", "--sim", sim_dir, "--out", str(tmp_path / "trk")])
        assert rc == 1
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        payload = json.loads(err_lines[0])
        assert payload == {"error": "frame pixels must be finite", "type": "ValueError"}

    def test_non_finite_template_fails_cleanly(self, sim_dir, tmp_path, capsys):
        path = os.path.join(sim_dir, "template.mat")
        image, header = fileio.load_matrix(path)
        image[2, 5] = np.nan
        fileio.save_matrix(path, image, header)
        capsys.readouterr()
        rc = main(["track", "--sim", sim_dir, "--out", str(tmp_path / "trk")])
        assert rc == 1
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        payload = json.loads(err_lines[0])
        assert payload == {"error": "template pixels must be finite", "type": "ValueError"}
        assert not os.path.exists(tmp_path / "trk")

    def test_bad_states_header_fails_cleanly(self, sim_dir, tmp_path, capsys):
        path = os.path.join(sim_dir, "states.csv")
        lines = open(path).read().splitlines(keepends=True)
        with open(path, "w") as fh:
            fh.writelines([lines[0].replace("u_x,u_y", "u_y,u_x"), *lines[1:]])
        capsys.readouterr()
        assert main(["track", "--sim", sim_dir, "--out", str(tmp_path / "trk")]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload == {"error": f"{path}: unexpected states header", "type": "ValueError"}


class TestExperiment:
    def test_smoke(self, tmp_path, config_path, capsys):
        out = str(tmp_path / "exp")
        rc = main(
            [
                "experiment",
                "--config",
                config_path,
                "--out",
                out,
                "--n-runs",
                "1",
                "--n-frames",
                "1",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["n_runs"] == 1
        assert set(payload["final_nmse"]) == {"pafimocs", "pf-gordon-1"}
        for name in ("runs.csv", "aggregate.csv", "summary.json"):
            assert os.path.exists(os.path.join(out, name))

    def test_defaults_without_config(self, tmp_path, capsys):
        # built-in defaults are the paper regime; cut everything down and keep
        # only a cheap bootstrap tracker so the smoke run stays fast
        out = str(tmp_path / "exp")
        rc = main(
            [
                "experiment",
                "--out",
                out,
                "--n-runs",
                "1",
                "--n-frames",
                "1",
                "--n-pf",
                "4",
                "--filters",
                "pf-gordon-3",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(payload["final_nmse"]) == {"pf-gordon-3"}

    # cut the paper-regime defaults down to one cheap run
    CHEAP = ["--n-runs", "1", "--n-frames", "1", "--n-pf", "4"]

    def echo(self, out):
        return json.loads(open(os.path.join(out, "summary.json")).read())["config"]

    def test_d_option_sets_n_lambda(self, tmp_path):
        out = str(tmp_path / "exp")
        argv = ["experiment", "--out", out, "--d", "3", "--filters", "pf-gordon-3"]
        assert main(argv + self.CHEAP) == 0
        echo = self.echo(out)
        assert echo["d"] == 3 and echo["n_lambda"] == 7

    @pytest.mark.parametrize("d", [0, 1])
    def test_low_order_d_caps_support_sizes(self, tmp_path, d):
        out = str(tmp_path / "exp")
        argv = ["experiment", "--out", out, "--d", str(d), "--filters", f"pf-gordon-{d}"]
        assert main(argv + self.CHEAP) == 0
        echo = self.echo(out)
        n_lambda = 2 * d + 1
        assert echo["n_lambda"] == echo["s_expected"] == n_lambda
        assert echo["initial_support_size"] == n_lambda

    def test_config_with_only_d(self, tmp_path):
        path = tmp_path / "d3.cfg"
        fileio.write_kv(path, {"d": 3})
        out = str(tmp_path / "exp")
        argv = ["experiment", "--config", str(path), "--out", out, "--filters", "pf-gordon-3"]
        assert main(argv + self.CHEAP) == 0
        echo = self.echo(out)
        assert echo["d"] == 3 and echo["n_lambda"] == 7

    def test_d_option_overrides_the_config_n_lambda(self, tmp_path):
        sim = str(tmp_path / "sim")
        assert main(["simulate", "--out", sim, "--n-frames", "1"]) == 0
        assert fileio.read_kv(os.path.join(sim, "config.cfg"))["n_lambda"] == "41"
        out = str(tmp_path / "exp")
        argv = ["experiment", "--config", os.path.join(sim, "config.cfg"), "--d", "3",
                "--out", out, "--filters", "pf-gordon-3"]
        assert main(argv + self.CHEAP) == 0
        echo = self.echo(out)
        assert echo["d"] == 3 and echo["n_lambda"] == 7

    def test_filters_option_keeps_config_overrides(self, tmp_path):
        path = tmp_path / "gamma.cfg"
        fileio.write_kv(path, {"pafimocs.gamma": 55.0})
        out = str(tmp_path / "exp")
        argv = ["experiment", "--config", str(path), "--out", out, "--filters", "pafimocs,pf-mt-3"]
        assert main(argv + self.CHEAP) == 0
        echo = self.echo(out)
        assert echo["filters"] == "pafimocs,pf-mt-3" and echo["pafimocs.gamma"] == 55.0
        assert "pf-mt-3.gamma" not in echo

    def test_echo_is_a_config_that_reruns_the_experiment(self, tmp_path):
        path = tmp_path / "gamma.cfg"
        fileio.write_kv(path, {"pafimocs.gamma": 0.55})
        first, second = tmp_path / "first", tmp_path / "second"
        argv = ["experiment", "--config", str(path), "--d", "3", "--filters", "pafimocs,pf-mt-3"]
        assert main(argv + self.CHEAP + ["--out", str(first)]) == 0
        fileio.write_kv(path, self.echo(first))
        assert main(["experiment", "--config", str(path), "--out", str(second)]) == 0
        for name in ("runs.csv", "aggregate.csv", "summary.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()


class TestAnalyzeSupport:
    def test_coefficient_matrix(self, tmp_path, capsys):
        template = 100.0 + np.arange(64, dtype=float).reshape(8, 8)
        tpl_path = str(tmp_path / "template.mat")
        fileio.save_matrix(tpl_path, template, (8, 8, 0))
        coeffs = np.array([[50.0, 0.0, 0.0], [50.0, 0.0, 50.0]])
        in_path = str(tmp_path / "coeffs.mat")
        fileio.save_matrix(in_path, coeffs, (2, 3, 0))

        out = str(tmp_path / "trace.csv")
        member = str(tmp_path / "membership.csv")
        rc = main(
            [
                "analyze-support",
                "--input",
                in_path,
                "--template",
                tpl_path,
                "--d",
                "1",
                "--out",
                out,
                "--membership",
                member,
            ]
        )
        assert rc == 0
        assert "2 frames" in capsys.readouterr().out
        lines = open(out).read().splitlines()
        assert lines[0] == "frame,supp_frac,add_frac,del_frac,alpha"
        assert len(lines) == 3
        member_lines = open(member).read().splitlines()
        assert member_lines[1] == "0,1,0,0"
        assert member_lines[2] == "1,1,0,1"

    def test_wrong_width_fails_cleanly(self, tmp_path, capsys):
        tpl_path = str(tmp_path / "template.mat")
        fileio.save_matrix(tpl_path, np.full((8, 8), 90.0), (8, 8, 0))
        in_path = str(tmp_path / "bad.mat")
        fileio.save_matrix(in_path, np.zeros((2, 9)), (2, 9, 0))
        rc = main(
            [
                "analyze-support",
                "--input",
                in_path,
                "--template",
                tpl_path,
                "--d",
                "1",
                "--out",
                str(tmp_path / "t.csv"),
            ]
        )
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["type"] == "ValueError"

    def test_as_many_columns_as_pixels_fails_cleanly(self, tmp_path, capsys):
        tpl_path, in_path = str(tmp_path / "template.mat"), str(tmp_path / "patches.mat")
        fileio.save_matrix(tpl_path, 90.0 + np.arange(25.0).reshape(5, 5), (5, 5, 0))
        fileio.save_matrix(in_path, np.full((2, 25), 95.0), (2, 25, 0))
        argv = ["analyze-support", "--input", in_path, "--template", tpl_path, "--d", "12"]
        assert main(argv + ["--out", str(tmp_path / "t.csv")]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["type"] == "ValueError"
        assert "rows (patches) and columns (coefficients)" in payload["error"]
        assert not os.path.exists(tmp_path / "t.csv")

    def test_non_finite_template_fails_cleanly(self, tmp_path, capfd):
        template = np.full((8, 8), 90.0)
        template[4, 1] = np.nan
        tpl_path = str(tmp_path / "template.mat")
        fileio.save_matrix(tpl_path, template, (8, 8, 0))
        in_path = str(tmp_path / "patches.mat")
        fileio.save_matrix(in_path, np.full((2, 64), 95.0), (2, 64, 0))
        argv = ["analyze-support", "--input", in_path, "--template", tpl_path, "--d", "1"]
        rc = main(argv + ["--out", str(tmp_path / "t.csv")])
        assert rc == 1
        out, err = capfd.readouterr()
        assert out == "" and len(err.strip().splitlines()) == 1  # no LAPACK messages
        payload = json.loads(err)
        assert payload == {"error": "template pixels must be finite", "type": "ValueError"}


class TestSolve:
    def _problem_dir(self, tmp_path, with_outliers=False):
        rng = np.random.default_rng(5)
        n_pixels, n_lambda = 12, 4
        phi = rng.normal(size=(n_pixels, n_lambda))
        lam_true = np.array([1.5, 0.0, -2.0, 0.0])
        y = phi @ lam_true + 0.05 * rng.normal(size=n_pixels)
        pdir = tmp_path / "problem"
        pdir.mkdir()
        fileio.save_matrix(pdir / "phi.mat", phi, (n_pixels, n_lambda, 0))
        fileio.save_matrix(pdir / "y.mat", y.reshape(1, -1), (1, n_pixels, 0))
        fileio.save_matrix(
            pdir / "lambda_prev.mat", np.zeros((1, n_lambda)), (1, n_lambda, 0)
        )
        kv = {
            "sigma_o_sq": 1.0,
            "sigma_l_sq": 0.5,
            "beta": 1.0,
            "gamma": 0.3,
            "cond_support": "0|2",
        }
        if with_outliers:
            kv["gamma_outlier"] = 5.0
        fileio.write_kv(pdir / "problem.cfg", kv)
        return str(pdir)

    def test_solve_with_trace(self, tmp_path, capsys):
        pdir = self._problem_dir(tmp_path)
        out = str(tmp_path / "sol")
        rc = main(["solve", "--problem", pdir, "--out", out, "--trace"])
        assert rc == 0
        stdout_payload = json.loads(capsys.readouterr().out.strip())
        file_payload = json.loads(open(os.path.join(out, "result.json")).read())
        assert stdout_payload == file_payload
        assert file_payload["converged"] is True
        assert file_payload["kkt_residual"] <= 1e-6

        solution, header = fileio.load_matrix(os.path.join(out, "solution.mat"))
        assert header == (1, 4, 0)
        assert solution.shape == (1, 4)
        trace_lines = open(os.path.join(out, "trace.csv")).read().splitlines()
        assert trace_lines[0] == "iteration,objective,kkt_residual"
        # the header, the warm start, then one row per round
        assert len(trace_lines) == file_payload["iterations"] + 2

    def test_trace_changes_no_other_byte(self, tmp_path):
        """On the digest's fixed problem, which certifies in the stacked
        round, ``--trace`` adds ``trace.csv`` and writes the same solution
        and result as the untraced solve."""
        pdir = str(tmp_path / "problem")
        fileio.write_kv(os.path.join(pdir, "problem.cfg"), write_problem(pdir))
        outs = [str(tmp_path / name) for name in ("plain", "traced")]
        assert main(["solve", "--problem", pdir, "--out", outs[0]]) == 0
        assert main(["solve", "--problem", pdir, "--out", outs[1], "--trace"]) == 0
        assert sorted(os.listdir(outs[1])) == sorted(os.listdir(outs[0]) + ["trace.csv"])
        for name in ("solution.mat", "result.json"):
            plain, traced = (open(os.path.join(out, name), "rb").read() for out in outs)
            assert plain == traced
        assert json.loads(plain)["iterations"] == 1

    def test_solve_with_outliers_writes_outlier_matrix(self, tmp_path):
        pdir = self._problem_dir(tmp_path, with_outliers=True)
        out = str(tmp_path / "sol")
        assert main(["solve", "--problem", pdir, "--out", out]) == 0
        outliers, header = fileio.load_matrix(os.path.join(out, "outliers.mat"))
        assert header == (1, 12, 0)

    def test_unknown_problem_key_fails_cleanly(self, tmp_path, capsys):
        pdir = self._problem_dir(tmp_path)
        kv = fileio.read_kv(os.path.join(pdir, "problem.cfg"))
        fileio.write_kv(os.path.join(pdir, "problem.cfg"), {**kv, "gama": 5000.0})
        rc = main(["solve", "--problem", pdir, "--out", str(tmp_path / "o")])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload == {"error": "unknown problem keys: ['gama']", "type": "ValueError"}

    def test_max_iterations_is_not_a_problem_key(self, tmp_path, capsys):
        # every solve stops by its own round cap; there is no iteration budget
        pdir = self._problem_dir(tmp_path)
        kv = fileio.read_kv(os.path.join(pdir, "problem.cfg"))
        fileio.write_kv(os.path.join(pdir, "problem.cfg"), {**kv, "max_iterations": 5})
        assert main(["solve", "--problem", pdir, "--out", str(tmp_path / "o")]) == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "unknown problem keys: ['max_iterations']"

    @pytest.mark.parametrize(
        "key",
        ["sigma_o_sq", "sigma_l_sq", "beta", "gamma", "gamma_outlier", "kkt_tolerance"],
    )
    def test_nan_parameter_fails_cleanly(self, tmp_path, capsys, key):
        pdir = self._problem_dir(tmp_path)
        kv = fileio.read_kv(os.path.join(pdir, "problem.cfg"))
        fileio.write_kv(os.path.join(pdir, "problem.cfg"), {**kv, key: "nan"})
        assert main(["solve", "--problem", pdir, "--out", str(tmp_path / "o")]) == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["type"] == "ValueError"
        assert key in payload["error"]

    @pytest.mark.parametrize("key", ["beta", "gamma", "gamma_outlier"])
    def test_infinite_multiplier_fails_cleanly(self, tmp_path, capsys, key):
        pdir = self._problem_dir(tmp_path)
        kv = fileio.read_kv(os.path.join(pdir, "problem.cfg"))
        fileio.write_kv(os.path.join(pdir, "problem.cfg"), {**kv, key: "inf"})
        assert main(["solve", "--problem", pdir, "--out", str(tmp_path / "o")]) == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["type"] == "ValueError"
        assert key in payload["error"] and "must be nonnegative and finite" in payload["error"]
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("key", ["sigma_o_sq", "sigma_l_sq", "kkt_tolerance"])
    def test_infinite_variance_or_tolerance_fails_cleanly(self, tmp_path, capsys, key):
        pdir = self._problem_dir(tmp_path)
        kv = fileio.read_kv(os.path.join(pdir, "problem.cfg"))
        fileio.write_kv(os.path.join(pdir, "problem.cfg"), {**kv, key: "inf"})
        assert main(["solve", "--problem", pdir, "--out", str(tmp_path / "o")]) == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["type"] == "ValueError"
        assert key in payload["error"] and "must be positive and finite" in payload["error"]
        assert not os.path.exists(tmp_path / "o")

    def test_missing_problem_fails_cleanly(self, tmp_path, capsys):
        rc = main(["solve", "--problem", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert "error" in payload


class TestArgumentErrors:
    def test_missing_required_argument_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate"])
        assert exc.value.code == 2

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rendezvous"])
        assert exc.value.code == 2

    def test_bad_config_key_reports_json_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        fileio.write_kv(path, {"bananas": 1})
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["type"] == "ValueError"
        assert "bananas" in payload["error"]

    def test_duplicate_config_key_reports_json_error(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text("seed = 1\nn_pf = 4\nseed = 2\n")
        argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "sim")]
        rc = main(argv + ["--n-frames", "1"])
        assert rc == 1
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        payload = json.loads(err_lines[0])
        assert payload == {"error": f"{path}:3: duplicate key 'seed'", "type": "ValueError"}
        assert not os.path.exists(tmp_path / "sim")

    def test_bad_filter_multiplier_reports_json_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("pafimocs.gamma = nan\npf-mt-3.beta = -1\n")
        argv = ["experiment", "--config", str(path), "--out", str(tmp_path / "o")]
        rc = main(argv + ["--n-runs", "1", "--n-frames", "1"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["type"] == "ValueError"
        assert "gamma, beta and alpha must be nonnegative" in payload["error"]
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize(
        "command, key, value, kind",
        [
            ("simulate", "seed", "1.5", "int"),
            ("experiment", "seed", "1.5", "int"),
            ("experiment", "sigma_o_sq", "abc", "float"),
            ("experiment", "pafimocs.gamma", "x", "float"),
            ("solve", "sigma_o_sq", "abc", "float"),
            ("solve", "gamma", "x", "float"),
            ("solve", "kkt_tolerance", "x", "float"),
        ],
    )
    def test_unreadable_value_names_its_key(self, tmp_path, capsys, command, key, value, kind):
        if command == "solve":
            pdir = str(tmp_path / "problem")
            path = os.path.join(pdir, "problem.cfg")
            fileio.write_kv(path, {**write_problem(pdir), key: value})
            argv = ["solve", "--problem", pdir]
        else:
            path = str(tmp_path / "bad.cfg")
            fileio.write_kv(path, {key: value})
            argv = [command, "--config", path]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 1
        payload = json.loads(capsys.readouterr().err.strip())
        message = f"{key}: cannot read '{value}' as {kind}"
        assert payload == {"error": message, "type": "ValueError"}
        assert not os.path.exists(tmp_path / "o")

    def test_duplicate_filter_labels_report_json_error(self, tmp_path, capsys):
        argv = ["experiment", "--out", str(tmp_path / "o"), "--filters", "pf-gordon-3,pf-gordon-3"]
        rc = main(argv + ["--n-runs", "1", "--n-frames", "2"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload == {"error": "duplicate filter labels: pf-gordon-3", "type": "ValueError"}
        assert not os.path.exists(tmp_path / "o")

    def test_empty_filter_list_reports_json_error(self, tmp_path, capsys):
        argv = ["experiment", "--out", str(tmp_path / "o"), "--filters", ","]
        rc = main(argv + ["--n-runs", "1", "--n-frames", "1"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload == {"error": "filters must name at least one tracker", "type": "ValueError"}
        assert not os.path.exists(tmp_path / "o")
