"""Tests for sequence generation, metrics, the experiment driver, and the
flat config format."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pafimocs import fileio
from pafimocs.dictionary import TemplatePatch, build_dictionary
from pafimocs.filters import FilterConfig
from pafimocs.harness import (
    FilterSpec,
    GroundTruth,
    SimConfig,
    analyze_support,
    default_filters,
    default_params,
    generate_sequence,
    location_error,
    make_template,
    nmse,
    nmse_components,
    parse_filter_label,
    parse_filter_labels,
    resolve_filter_config,
    run_experiment,
    select_filters,
    sim_config_from_kv,
    sim_config_to_kv,
    track_truth,
    write_membership_csv,
)
from pafimocs.harness import _run_one, _spawn_run_seeds, _truth_arrays
from pafimocs.models import FullState, ModelParams, MotionState, SupportSet


def small_params(n_lambda=3, **overrides):
    base = dict(
        n_lambda=n_lambda,
        s_expected=2,
        p_a=0.03,
        p_r=0.015,
        sigma_l_sq=0.01,
        sigma_u=(0.5, 0.5, 0.0),
        sigma_o_sq=1.0,
    )
    base.update(overrides)
    return ModelParams(**base)


def small_config(**overrides):
    base = dict(
        seed=3,
        n_frames=4,
        frame_height=24,
        frame_width=24,
        template_height=8,
        template_width=8,
        d=1,
        n_pf=4,
        params=small_params(),
        initial_support_size=2,
        filters=(FilterSpec("pafimocs", "pafimocs", 1),),
        n_monte_carlo=1,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestMakeTemplate:
    def test_deterministic(self):
        a = make_template("bumps", 16, 12, seed=4)
        b = make_template("bumps", 16, 12, seed=4)
        assert np.array_equal(a.pixels, b.pixels)
        assert not np.array_equal(a.pixels, make_template("bumps", 16, 12, seed=5).pixels)

    def test_pixel_range(self):
        tpl = make_template("bumps", 32, 32, seed=0)
        assert math.isclose(float(np.min(tpl.pixels)), 40.0)
        assert math.isclose(float(np.max(tpl.pixels)), 220.0)

    def test_small_templates_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            make_template("bumps", 3, 10, seed=0)

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError, match="pattern"):
            make_template("plaid", 8, 8, seed=0)

    def test_default_template_dictionary_is_well_conditioned(self):
        dic = build_dictionary(make_template("bumps", 32, 32, 0), 20)
        cond = float(np.linalg.cond(dic.gram))
        assert np.isfinite(cond)
        assert cond < 1e8


class TestSimConfigValidation:
    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(n_frames=0), "n_frames"),
            (dict(support_change_period=0), "support_change_period"),
            (dict(initial_support_size=9), "initial_support_size"),
            (dict(d=2), "n_lambda"),
            (dict(n_jobs=0), "n_jobs"),
            (dict(n_monte_carlo=0), "n_monte_carlo"),
            (dict(template_height=40), "fit inside"),
        ],
    )
    def test_bad_config_rejected(self, kw, message):
        with pytest.raises(ValueError, match=message):
            small_config(**kw)

    def test_duplicate_filter_labels_rejected(self):
        # runs and results are keyed by label, so a repeated one would
        # overwrite the first tracker's results
        twice = (FilterSpec("pf-gordon-1", "pf-gordon", 1),) * 2
        with pytest.raises(ValueError, match="duplicate filter labels: pf-gordon-1"):
            small_config(filters=twice)
        kv = {"filters": "pf-gordon-3,pf-gordon-3", "pf-gordon-3.gamma": "0.3"}
        with pytest.raises(ValueError, match="duplicate filter labels: pf-gordon-3"):
            sim_config_from_kv(kv)

    def test_empty_filter_list_rejected(self):
        # it would write header-only CSVs and an empty ``filters`` line,
        # which reads back as the default trackers
        with pytest.raises(ValueError, match="at least one tracker"):
            SimConfig(filters=())


class TestGenerateSequence:
    def test_same_seed_bit_identical(self):
        cfg = small_config()
        a = generate_sequence(cfg, np.random.default_rng(12))
        b = generate_sequence(cfg, np.random.default_rng(12))
        for sa, sb in zip(a.states, b.states):
            assert np.array_equal(sa.motion.as_array(), sb.motion.as_array())
            assert sa.support == sb.support
            assert np.array_equal(sa.coeffs, sb.coeffs)
        for fa, fb in zip(a.frames, b.frames):
            assert np.array_equal(fa.pixels, fb.pixels)

    def test_initial_state_and_sparsity(self):
        cfg = small_config(n_frames=12)
        truth = generate_sequence(cfg, np.random.default_rng(5))
        first = truth.states[0]
        assert np.array_equal(first.motion.as_array(), [0.0, 0.0, 1.0])
        assert np.all(first.coeffs == 0.0)
        assert len(first.support) == cfg.initial_support_size
        assert len(truth.states) == len(truth.frames) == cfg.n_frames + 1
        for state in truth.states:
            assert np.all(state.coeffs[~state.support.mask()] == 0.0)

    def test_support_moves_only_on_period_frames(self):
        cfg = small_config(n_frames=12, support_change_period=5)
        # positive removal pressure so on-period changes are visible
        cfg.params = small_params(p_a=0.4, p_r=0.4)
        truth = generate_sequence(cfg, np.random.default_rng(9))
        for t in range(1, 13):
            if t % 5 != 0:
                assert truth.states[t].support == truth.states[t - 1].support

    def test_scale_component_is_frozen(self):
        truth = generate_sequence(small_config(n_frames=8), np.random.default_rng(2))
        motion, _ = _truth_arrays(truth)
        assert np.all(motion[:, 2] == 1.0)
        assert np.any(motion[1:, 0] != 0.0)

    def test_support_size_stationarity_at_frame_fifty(self):
        # the add/remove kernel holds E|T| at s_expected = 5 when p_r is the
        # stationary companion of p_a; check the Monte Carlo mean at t = 50
        cfg = SimConfig(n_frames=50, n_monte_carlo=1)
        sizes = []
        for i in range(200):
            truth = generate_sequence(cfg, np.random.default_rng(1000 + i))
            sizes.append(len(truth.states[50].support))
        assert 4.8 <= float(np.mean(sizes)) <= 5.2


def hand_truth(motion_rows, coeff_rows, n_lambda=3):
    states = []
    for m, c in zip(motion_rows, coeff_rows):
        coeffs = np.asarray(c, dtype=float)
        support = SupportSet.from_indices(np.flatnonzero(coeffs), n_lambda)
        states.append(FullState(MotionState(*m), support, coeffs))
    return GroundTruth(states=states, frames=[], template=None)


class TestNmse:
    def test_perfect_estimates_give_zero(self):
        truth = generate_sequence(small_config(), np.random.default_rng(3))
        motion, coeffs = _truth_arrays(truth)
        assert np.all(nmse(truth, motion, coeffs) == 0.0)

    def test_zero_estimator_gives_one(self):
        truth = generate_sequence(small_config(), np.random.default_rng(4))
        motion, coeffs = _truth_arrays(truth)
        values = nmse(truth, np.zeros_like(motion), np.zeros_like(coeffs))
        assert np.allclose(values, 1.0, atol=1e-15)

    def test_hand_single_frame_value(self):
        truth = hand_truth([(1.0, 0.0, 1.0)], [(2.0, 0.0, 0.0)])
        value = nmse(truth, np.array([[0.0, 0.0, 1.0]]), np.array([[2.0, 0.0, 0.0]]))
        assert np.allclose(value, [1.0 / 6.0], atol=1e-15)

    def test_zero_reference_flagged_nan(self):
        truth = hand_truth([(0.0, 0.0, 0.0)], [(0.0, 0.0, 0.0)])
        assert np.isnan(nmse(truth, np.zeros((1, 3)), np.zeros((1, 3)))[0])

    def test_narrow_estimates_are_padded(self):
        truth = hand_truth([(0.0, 0.0, 1.0)], [(1.0, 0.0, 3.0)])
        err, ref = nmse_components(truth, np.array([[0.0, 0.0, 1.0]]), np.array([[1.0]]))
        assert err[0] == 9.0  # missing tail counts as a full miss
        assert ref[0] == 11.0

    def test_wider_tracker_estimates_are_cut_to_the_truth(self):
        cfg = small_config(filters=(FilterSpec("pf-gordon-3", "pf-gordon", 3),))
        truth = generate_sequence(cfg, np.random.default_rng(5))
        run = track_truth(cfg, truth, [0])["pf-gordon-3"]
        assert run.result.coeffs.shape == (5, 7) and run.coeffs.shape == (5, 3)
        assert run.coeffs.tobytes() == run.result.coeffs[:, :3].copy().tobytes()
        err, ref = nmse_components(truth, run.result.motion, run.result.coeffs)
        assert err.tobytes() == run.err_sq.tobytes() and ref.tobytes() == run.ref_sq.tobytes()

    def test_length_mismatch_rejected(self):
        truth = hand_truth([(0.0, 0.0, 1.0)], [(1.0, 0.0, 0.0)])
        with pytest.raises(ValueError, match="length"):
            nmse(truth, np.zeros((2, 3)), np.zeros((2, 3)))


class TestLocationError:
    def test_identical_is_zero(self):
        assert location_error([1.0, 2.0, 0.7], [1.0, 2.0, 0.7]) == 0.0

    def test_three_four_five(self):
        assert location_error([3.0, 4.0, 7.0], [0.0, 0.0, 7.0]) == 5.0

    def test_ignores_scale_component(self):
        assert location_error([3.0, 4.0, 2.0], [3.0, 4.0, 9.0]) == 0.0

    def test_vectorized_rows(self):
        truth = np.array([[0.0, 0.0, 1.0], [3.0, 4.0, 1.0]])
        est = np.zeros((2, 3))
        assert np.array_equal(location_error(truth, est), [0.0, 5.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            location_error(np.zeros((2, 3)), np.zeros((3, 3)))


class TestResolveFilterConfig:
    def test_simulation_regime_defaults(self):
        cfg = small_config()
        resolved = resolve_filter_config(FilterSpec("pafimocs", "pafimocs", 1), cfg)
        assert (resolved.gamma, resolved.beta) == (0.7, 0.4)
        resolved = resolve_filter_config(FilterSpec("ssc", "pafimocs-ssc", 1), cfg)
        assert (resolved.gamma, resolved.beta) == (0.5, 0.4)
        resolved = resolve_filter_config(FilterSpec("pf-mt-1", "pf-mt", 1), cfg)
        assert (resolved.gamma, resolved.beta) == (0.7, 1.0)

    def test_explicit_multipliers_win(self):
        cfg = small_config()
        spec = FilterSpec("pafimocs", "pafimocs", 1, gamma=0.9, beta=0.2)
        resolved = resolve_filter_config(spec, cfg)
        assert (resolved.gamma, resolved.beta) == (0.9, 0.2)
        assert isinstance(resolved, FilterConfig)
        assert resolved.n_pf == cfg.n_pf and resolved.d == 1


class TestAnalyzeSupport:
    def _dictionary(self):
        tpl = make_template("bumps", 8, 8, seed=1)
        return tpl, build_dictionary(tpl, 2)

    def test_coefficient_rows(self):
        _, dic = self._dictionary()
        coeffs = np.array(
            [
                [50.0, 0.0, 0.0, 50.0, 0.0],
                [50.0, 0.0, 0.0, 50.0, 0.0],
                [0.0, 50.0, 0.0, 50.0, 0.0],
            ]
        )
        trace = analyze_support(coeffs, dic)
        assert np.array_equal(trace.masks, coeffs != 0.0)
        assert np.allclose(trace.supp_frac, 2.0 / 5.0)
        assert math.isnan(trace.add_frac[0])
        assert trace.add_frac[1] == 0.0 and trace.del_frac[1] == 0.0
        assert trace.add_frac[2] == 0.5 and trace.del_frac[2] == 0.5

    def test_patch_rows_recover_known_membership(self):
        tpl, dic = self._dictionary()
        coeffs = np.zeros((4, 5))
        coeffs[0, [0, 2]] = (60.0, -60.0)
        coeffs[1, [0, 2]] = (60.0, -60.0)
        coeffs[2, [0, 4]] = (60.0, 60.0)
        coeffs[3, [1, 4]] = (-60.0, 60.0)
        patches = tpl.pixels + coeffs @ dic.matrix.T
        trace = analyze_support(patches, dic, template=tpl)
        expected = (coeffs != 0.0).astype(int)
        assert np.array_equal(trace.membership_matrix(), expected)

    def test_patch_rows_require_template(self):
        tpl, dic = self._dictionary()
        with pytest.raises(ValueError, match="template"):
            analyze_support(np.zeros((2, dic.n_pixels)), dic)

    def test_wrong_width_rejected(self):
        _, dic = self._dictionary()
        with pytest.raises(ValueError, match="rows must match"):
            analyze_support(np.zeros((2, 9)), dic)

    def test_as_many_columns_as_pixels_rejected(self):
        # d = 12 gives 25 columns on a 5 x 5 template, whose Legendre rank is at most 9
        tpl = TemplatePatch.from_image(np.arange(25.0).reshape(5, 5) + 90.0)
        dic = build_dictionary(tpl, 12)
        with pytest.raises(ValueError, match=r"rows \(patches\) and columns \(coefficients\)"):
            analyze_support(np.tile(tpl.pixels, (3, 1)), dic, template=tpl)

    def test_single_frame_has_no_change_columns(self):
        _, dic = self._dictionary()
        trace = analyze_support(np.array([[10.0, 0.0, 0.0, 0.0, 0.0]]), dic)
        assert trace.supp_frac.shape == (1,)
        assert math.isnan(trace.add_frac[0]) and math.isnan(trace.del_frac[0])

    def test_membership_csv(self, tmp_path):
        _, dic = self._dictionary()
        trace = analyze_support(
            np.array([[10.0, 0.0, 0.0, 0.0, 0.0], [10.0, 0.0, 0.0, 0.0, 10.0]]), dic
        )
        path = tmp_path / "membership.csv"
        write_membership_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "frame,idx_0,idx_1,idx_2,idx_3,idx_4"
        assert lines[1] == "0,1,0,0,0,0"
        assert lines[2] == "1,1,0,0,0,1"


class TestRunExperiment:
    def _config(self, **overrides):
        base = dict(
            filters=(
                FilterSpec("pafimocs", "pafimocs", 1),
                FilterSpec("pf-gordon-1", "pf-gordon", 1),
            ),
            n_frames=1,
            n_monte_carlo=1,
        )
        base.update(overrides)
        return small_config(**base)

    def test_smoke_artifacts_are_well_formed(self, tmp_path):
        cfg = self._config()
        result = run_experiment(cfg, tmp_path)
        assert result.n_runs == 1
        assert set(result.metrics) == {"pafimocs", "pf-gordon-1"}

        runs_lines = (tmp_path / "runs.csv").read_text().splitlines()
        assert runs_lines[0] == "# pafimocs-csv-v1 runs"
        assert runs_lines[1] == "run,filter,frame,err_sq,ref_sq,loc_err,lost"
        assert len(runs_lines) == 2 + 1 * 2 * 2  # runs x filters x frames

        agg_lines = (tmp_path / "aggregate.csv").read_text().splitlines()
        assert agg_lines[1] == "filter,frame,nmse,le_mean,le_stderr,n_runs"
        frame0 = agg_lines[2].split(",")
        assert frame0[0] == "pafimocs" and frame0[1] == "0"
        assert float(frame0[2]) == 0.0  # truth-initialized

        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["schema"] == "pafimocs-csv-v1 summary"
        assert summary["config"] == {k: v for k, v in sim_config_to_kv(cfg).items() if k != "n_jobs"}
        assert set(summary["filters"]) == {"pafimocs", "pf-gordon-1"}
        for entry in summary["filters"].values():
            assert isinstance(entry["final_nmse"], float)
            assert entry["lost_runs"] == 0

    def test_byte_identical_reruns(self, tmp_path):
        cfg = self._config(n_frames=2, n_monte_carlo=2)
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        for name in ("runs.csv", "aggregate.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_n_jobs_does_not_change_the_artifacts(self, tmp_path):
        cfg = self._config(n_frames=2, n_monte_carlo=3)
        run_experiment(cfg, tmp_path / "serial")
        run_experiment(replace(cfg, n_jobs=2), tmp_path / "pool")
        for name in ("runs.csv", "aggregate.csv", "summary.json"):
            assert (tmp_path / "serial" / name).read_bytes() == (
                tmp_path / "pool" / name
            ).read_bytes()

    def test_matches_direct_tracker_run(self, tmp_path):
        # the harness must add nothing beyond the documented seed spawning:
        # replaying the same stream assignments by hand gives the same rows
        from pafimocs.filters import run_tracker
        from pafimocs.harness import nmse_components

        cfg = self._config(filters=(FilterSpec("pafimocs", "pafimocs", 1),), n_frames=3)
        result = run_experiment(cfg, tmp_path)

        children = np.random.SeedSequence(cfg.seed).spawn(cfg.n_monte_carlo)[0].spawn(2)
        truth = generate_sequence(cfg, np.random.default_rng(children[0]))
        fcfg = resolve_filter_config(cfg.filters[0], cfg)
        track = run_tracker(
            truth.frames, truth.template, cfg.params, fcfg, truth.states[0], children[1]
        )
        err, ref = nmse_components(truth, track.motion, track.coeffs)
        series = result.metrics["pafimocs"]
        assert np.array_equal(series.err_sq[0], err)
        assert np.array_equal(series.ref_sq[0], ref)

    def test_single_run_stderr_is_zero(self, tmp_path):
        result = run_experiment(self._config(), tmp_path)
        assert np.all(result.metrics["pafimocs"].le_stderr == 0.0)

    def test_monte_carlo_runs_differ(self, tmp_path):
        # replications must see different scenes, not one scene repeated
        cfg = self._config(n_frames=2, n_monte_carlo=3)
        result = run_experiment(cfg, tmp_path)
        ref = result.metrics["pafimocs"].ref_sq
        assert not np.array_equal(ref[0], ref[1])
        assert not np.array_equal(ref[1], ref[2])


class TestConfigFormat:
    def test_kv_round_trip_through_file(self, tmp_path):
        cfg = small_config(
            filters=(
                FilterSpec("pafimocs", "pafimocs", 1, gamma=0.9),
                FilterSpec("pf-mt-1", "pf-mt", 1, beta=0.25),
            ),
            n_monte_carlo=3,
        )
        path = tmp_path / "config.cfg"
        fileio.write_kv(path, sim_config_to_kv(cfg))
        rebuilt = sim_config_from_kv(fileio.read_kv(path))
        assert rebuilt == cfg

    def test_empty_mapping_gives_defaults(self):
        assert sim_config_from_kv({}) == SimConfig()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            sim_config_from_kv({"bananas": "1"})

    @pytest.mark.parametrize("key, value", [("regime", "real-video"), ("template_pattern", "bumps")])
    def test_retired_settings_are_unknown_keys(self, key, value):
        # a config.cfg of an older simulate that still sets either is refused by name
        with pytest.raises(ValueError, match=rf"unknown config keys: \['{key}'\]"):
            sim_config_from_kv({key: value})

    @pytest.mark.parametrize(
        "key", ["p_a", "p_r", "sigma_l_sq", "sigma_u_xx", "sigma_u_yy", "sigma_u_ss", "sigma_o_sq"]
    )
    def test_nan_model_value_rejected(self, key):
        with pytest.raises(ValueError):
            sim_config_from_kv({key: "nan"})

    @pytest.mark.parametrize(
        "kv",
        [
            {"sigma_l_sq": "inf"},
            {"sigma_u_xx": "inf"},
            {"sigma_u_yy": "inf"},
            {"sigma_u_ss": "inf"},
            {"sigma_o_sq": "inf"},
            # rendered 1024 non-finite template pixels per frame before the check
            {"sigma_o_sq": "inf", "n_frames": "3", "n_pf": "5", "filters": "pafimocs"},
        ],
    )
    def test_infinite_model_value_rejected(self, kv):
        with pytest.raises(ValueError, match="nonnegative and finite|nonnegative finite"):
            sim_config_from_kv(kv)

    @pytest.mark.parametrize(
        "kv",
        [
            {"pafimocs.gamma": "nan"},
            {"pf-mt-3.beta": "-1"},
            {"pafimocs.gamma": "nan", "pf-mt-3.beta": "-1"},
            {"pf-gordon-3.beta": "-1"},  # a prior-move tracker never solves
            {"aux-pf-20.gamma": "-0.5"},
            {"filters": "pafimocs", "pafimocs.gamma": "inf", "n_frames": "3", "n_pf": "10"},
            {"pf-mt-3.beta": "inf"},
            {"pf-gordon-20.gamma": "-inf"},
        ],
    )
    def test_bad_filter_multiplier_rejected(self, kv):
        with pytest.raises(ValueError, match="gamma, beta and alpha must be nonnegative"):
            sim_config_from_kv(kv)

    def test_filter_overrides_from_kv(self):
        kv = sim_config_to_kv(SimConfig())
        kv["pafimocs.gamma"] = "0.55"
        cfg = sim_config_from_kv(kv)
        by_label = {spec.label: spec for spec in cfg.filters}
        assert by_label["pafimocs"].gamma == 0.55
        assert by_label["pafimocs-ssc"].gamma is None

    def test_n_lambda_follows_d(self):
        cfg = sim_config_from_kv({"d": "3"})
        assert cfg.params.n_lambda == 7
        assert cfg.params == replace(default_params(), n_lambda=7)
        assert cfg.filters == default_filters(3)
        assert sim_config_from_kv({"d": "3", "n_lambda": "7"}) == cfg
        with pytest.raises(ValueError, match="n_lambda"):
            sim_config_from_kv({"d": "3", "n_lambda": "41"})

    def test_support_sizes_follow_small_d(self):
        cfg = sim_config_from_kv({"d": "1"})
        assert (cfg.params.s_expected, cfg.initial_support_size) == (3, 3)
        wide = sim_config_from_kv({"d": "3"})
        assert (wide.params.s_expected, wide.initial_support_size) == (5, 5)
        with pytest.raises(ValueError, match="s_expected"):
            sim_config_from_kv({"d": "1", "s_expected": "5"})
        with pytest.raises(ValueError, match="initial_support_size"):
            sim_config_from_kv({"d": "1", "initial_support_size": "5"})

    def test_select_filters_keeps_overrides(self):
        cfg = sim_config_from_kv({"pafimocs.gamma": "55.0", "pf-mt-3.beta": "0.25"})
        chosen = select_filters(cfg, "pf-mt-20, pafimocs")
        assert chosen.filters == (
            FilterSpec("pf-mt-20", "pf-mt", 20),
            FilterSpec("pafimocs", "pafimocs", 20, gamma=55.0),
        )
        assert select_filters(cfg, None) is cfg
        with pytest.raises(ValueError, match="at least one tracker"):
            select_filters(cfg, ",")

    def test_parse_filter_label(self):
        assert parse_filter_label("pf-mt-3", 20) == FilterSpec("pf-mt-3", "pf-mt", 3)
        assert parse_filter_label("aux-pf-20", 5) == FilterSpec("aux-pf-20", "aux-pf", 20)
        assert parse_filter_label("pafimocs", 20) == FilterSpec("pafimocs", "pafimocs", 20)
        assert parse_filter_label("pafimocs-ssc", 7) == FilterSpec(
            "pafimocs-ssc", "pafimocs-ssc", 7
        )
        assert parse_filter_label("pf-mt", 4) == FilterSpec("pf-mt", "pf-mt", 4)
        with pytest.raises(ValueError, match="label"):
            parse_filter_label("pf-fancy-3", 20)
        assert parse_filter_labels(" pf-mt-3, ,pafimocs,", 7) == (
            FilterSpec("pf-mt-3", "pf-mt", 3),
            FilterSpec("pafimocs", "pafimocs", 7),
        )
        assert parse_filter_labels("", 7) == ()

    def test_default_filters_cover_paper_set(self):
        labels = [spec.label for spec in default_filters(20)]
        assert labels == [
            "pafimocs",
            "pafimocs-ssc",
            "pf-mt-3",
            "pf-mt-20",
            "pf-gordon-3",
            "pf-gordon-20",
            "aux-pf-3",
            "aux-pf-20",
        ]
        params = default_params()
        assert params.n_lambda == 41 and params.s_expected == 5
        assert params.p_a == 0.03 and params.p_r == 0.216
        labels = [spec.label for spec in default_filters(3)]
        assert labels == ["pafimocs", "pafimocs-ssc", "pf-mt-3", "pf-gordon-3", "aux-pf-3"]


UNIT = st.floats(0.0, 0.5, exclude_max=True)
VARIANCE = st.floats(0.0, 1e6)
MULTIPLIER = st.none() | st.floats(min_value=0.0, allow_infinity=False)  # the rest are rejected


@st.composite
def sim_configs(draw):
    """Valid configs that vary every scalar setting, the model constants, and a
    subset of the default trackers with multiplier overrides."""
    d = draw(st.integers(0, 6))
    n_lambda = 2 * d + 1
    frame_height, frame_width = draw(st.integers(4, 128)), draw(st.integers(4, 128))
    params = ModelParams(
        n_lambda=n_lambda,
        s_expected=draw(st.integers(1, n_lambda)),
        p_a=draw(UNIT),
        p_r=draw(UNIT),
        sigma_l_sq=draw(VARIANCE),
        sigma_u=tuple(draw(st.lists(VARIANCE, min_size=3, max_size=3))),
        sigma_o_sq=draw(VARIANCE),
    )
    chosen = draw(
        st.lists(st.sampled_from(default_filters(d)), min_size=1, unique_by=lambda s: s.label)
    )
    specs = tuple(
        FilterSpec(spec.label, spec.variant, spec.d, draw(MULTIPLIER), draw(MULTIPLIER))
        for spec in chosen
    )
    return SimConfig(
        seed=draw(st.integers(0, 2**64 - 1)),
        n_frames=draw(st.integers(1, 500)),
        frame_height=frame_height,
        frame_width=frame_width,
        template_height=draw(st.integers(4, frame_height)),
        template_width=draw(st.integers(4, frame_width)),
        template_seed=draw(st.integers(0, 2**32 - 1)),
        d=d,
        n_pf=draw(st.integers(1, 10_000)),
        params=params,
        support_change_period=draw(st.integers(1, 100)),
        initial_support_size=draw(st.integers(0, n_lambda)),
        filters=specs,
        n_monte_carlo=draw(st.integers(1, 1000)),
        n_jobs=draw(st.integers(1, 64)),
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_config_round_trips_through_the_kv_file(tmp_path_factory, data):
    cfg = data.draw(sim_configs())
    path = tmp_path_factory.mktemp("kv") / "config.cfg"
    kv = sim_config_to_kv(cfg)
    fileio.write_kv(path, kv)
    assert sim_config_from_kv(fileio.read_kv(path)) == cfg
    # summary.json's echo is this form less n_jobs, so it loads as cfg at the default n_jobs
    del kv["n_jobs"]
    assert sim_config_from_kv(kv) == replace(cfg, n_jobs=1)
