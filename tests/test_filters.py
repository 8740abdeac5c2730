"""Tests for the particle filter layer: resampling, weighting, support
thresholding, and the five tracker variants on miniature scenes."""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import weighted_mean_reference
from pafimocs import filters, harness, observation, solver
from pafimocs.dictionary import TemplatePatch, build_dictionary
from pafimocs.filters import (
    VARIANTS,
    FilterConfig,
    ParticleSet,
    TrackerLostError,
    _finish_step,
    filter_step,
    run_tracker,
    systematic_resample,
    threshold_rows,
    threshold_support,
)
from pafimocs.models import (
    NEG_INF,
    FullState,
    ModelParams,
    MotionState,
    SupportSet,
)
from pafimocs.observation import Frame, NoiseModel, grid_rows, mapped_rows, render_frame
from pafimocs.solver import SolverConfig

FRAME_DIMS = (20, 20)


def small_template(seed=3, h=6, w=6, origin=(7, 7)):
    rng = np.random.default_rng(seed)
    image = 100.0 + 60.0 * rng.random((h, w))
    return TemplatePatch.from_image(image, origin)


def make_params(n_lambda=3, **overrides):
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


def make_scene(params, support, coeff_values, motion=(0.0, 0.0, 1.0), seed=5):
    """One rendered frame plus the truth state that produced it."""
    template = small_template()
    d = (params.n_lambda - 1) // 2
    dictionary = build_dictionary(template, d)
    supp = SupportSet.from_indices(support, params.n_lambda)
    coeffs = np.zeros(params.n_lambda)
    coeffs[list(support)] = coeff_values
    state = FullState(MotionState(*motion), supp, coeffs)
    noise = NoiseModel.for_params(params)
    frame = render_frame(
        state.motion, coeffs, template, dictionary, FRAME_DIMS, noise,
        np.random.default_rng(seed),
    )
    return template, dictionary, frame, state


class TestThresholdSupport:
    def test_fixed_alpha_example(self):
        supp = threshold_support(np.array([1.0, 0.4, -0.6]), "fixed-alpha", 0.5)
        assert supp.indices == (0, 2)

    def test_zero_vector_is_empty(self):
        for rule in ("energy-99", "fixed-alpha"):
            assert threshold_support(np.zeros(4), rule).indices == ()

    def test_energy_rule_example(self):
        supp = threshold_support(np.array([10.0, 0.1, 0.0]), "energy-99")
        assert supp.indices == (0,)

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            threshold_support(np.ones(3), "topk")
        with pytest.raises(ValueError, match="threshold"):
            threshold_rows(np.ones((2, 3)), "topk")


def energy_reference(coeffs, fraction=0.99):
    """One row's energy support by sorted search over the running squared mass."""
    mags = np.abs(coeffs)
    total = float(np.sum(mags * mags))
    if total == 0.0:
        return ()
    order = np.argsort(-mags, kind="stable")
    cum = np.cumsum(mags[order] ** 2)
    k = min(int(np.searchsorted(cum, fraction * total, side="left")) + 1, coeffs.size)
    return tuple(sorted(int(i) for i in order[:k]))


# small integer magnitudes with random signs, so rows hold ties and zero rows
COEFF_ROWS = st.integers(1, 12).flatmap(
    lambda k: st.lists(
        st.lists(st.integers(-3, 3).map(float), min_size=k, max_size=k), min_size=0, max_size=20
    ).map(lambda rows: np.array(rows, dtype=float).reshape(len(rows), k))
)


@settings(max_examples=150, deadline=None)
@given(COEFF_ROWS, st.sampled_from([1.0, 1e-3, 1e5]))
def test_threshold_rows_match_each_row(coeffs, scale):
    coeffs = coeffs * scale
    energy = threshold_rows(coeffs, "energy-99")
    fixed = threshold_rows(coeffs, "fixed-alpha", 1.5 * scale)
    assert energy.shape == fixed.shape == coeffs.shape
    for row, e, f in zip(coeffs, energy, fixed):
        assert tuple(np.flatnonzero(e)) == energy_reference(row)
        assert tuple(np.flatnonzero(e)) == threshold_support(row, "energy-99").indices
        fixed_lone = threshold_support(row, "fixed-alpha", 1.5 * scale)
        assert tuple(np.flatnonzero(f)) == fixed_lone.indices


class TestSystematicResample:
    def test_equal_weights_identity_multiset(self):
        n = 8
        anc = systematic_resample(np.full(n, 1.0 / n), np.random.default_rng(0))
        assert sorted(anc) == list(range(n))

    def test_point_mass_selects_single_ancestor(self):
        w = np.zeros(6)
        w[3] = 1.0
        anc = systematic_resample(w, np.random.default_rng(1))
        assert np.all(anc == 3)

    def test_rejects_unnormalized_weights(self):
        with pytest.raises(ValueError, match="sum to 1"):
            systematic_resample(np.array([0.5, 0.4]), np.random.default_rng(0))
        with pytest.raises(ValueError, match="nonnegative"):
            systematic_resample(np.array([1.5, -0.5]), np.random.default_rng(0))

    def test_offspring_counts_unbiased(self):
        # expected offspring of particle i is n * w_i; check the Monte Carlo
        # mean against it at 3 standard errors
        w = np.array([0.37, 0.21, 0.17, 0.15, 0.10])
        n = w.size
        rng = np.random.default_rng(42)
        trials = 100_000
        counts = np.empty((trials, n))
        for t in range(trials):
            counts[t] = np.bincount(systematic_resample(w, rng), minlength=n)
        mean = counts.mean(axis=0)
        se = counts.std(axis=0, ddof=1) / math.sqrt(trials)
        assert np.all(np.abs(mean - n * w) <= 3.0 * se + 1e-12)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 100),
    st.floats(-1e8, -1e3),
    st.lists(st.floats(0.0, 800.0), max_size=50),
)
@example(2, -3.8e7, [])
@example(3, -3.8e7, [])
def test_tied_top_weights_normalize_far_below_zero(n_tied, top, gaps):
    """Tied top log weights far below zero, as slots a pixel off over large
    dictionary columns score, normalize to weights that sum to 1 within
    1e-12, and the resampler accepts them."""
    log_ws = np.concatenate([np.full(n_tied, top), top - np.array(gaps)])
    w = np.exp(filters._normalize_log_weights(log_ws))
    assert abs(float(np.sum(w)) - 1.0) <= 1e-12
    assert systematic_resample(w, np.random.default_rng(0)).shape == w.shape


class TestPosteriorEstimate:
    """The weighted posterior means a step records in its stats."""

    def _means(self, states, log_weights):
        pset = ParticleSet.initialize(states[0], len(states), seed=0)
        proposed = replace(
            pset,
            motion=np.array([s.motion.as_array() for s in states]),
            coeffs=np.array([s.coeffs for s in states]),
            supports=np.array([s.support.mask() for s in states]),
            log_weights=np.array(log_weights, dtype=float),
        )
        stats = _finish_step(proposed).last_stats
        return stats.motion_mean, stats.coeff_mean

    def test_single_particle_returns_own_state(self):
        state = FullState(
            MotionState(1.5, -2.0, 0.9),
            SupportSet.from_indices([1], 3),
            np.array([0.0, 4.0, 0.0]),
        )
        motion, coeffs = self._means([state], [0.0])
        assert np.allclose(motion, [1.5, -2.0, 0.9])
        assert np.array_equal(coeffs, state.coeffs)

    def test_two_equal_weight_particles(self):
        supp = SupportSet.from_indices([0], 3)
        states = [
            FullState(MotionState(0.0, 0.0, 1.0), supp, np.array([2.0, 0.0, 0.0])),
            FullState(MotionState(2.0, 0.0, 1.0), supp, np.array([4.0, 0.0, 0.0])),
        ]
        motion, coeffs = self._means(states, [-5.0, -5.0])
        assert np.allclose(motion, [1.0, 0.0, 1.0])
        assert np.allclose(coeffs, [3.0, 0.0, 0.0])

    def test_matches_reference_dot_product(self):
        rng = np.random.default_rng(9)
        n, n_lambda = 30, 5
        states = []
        for _ in range(n):
            idx = sorted(rng.choice(n_lambda, size=2, replace=False))
            coeffs = np.zeros(n_lambda)
            coeffs[idx] = rng.normal(size=2)
            states.append(
                FullState(
                    MotionState(*rng.normal(size=3)),
                    SupportSet.from_indices(idx, n_lambda),
                    coeffs,
                )
            )
        log_ws = rng.normal(size=n)
        norm = np.exp(log_ws - np.max(log_ws))
        norm /= norm.sum()
        motion, coeffs = self._means(states, log_ws)
        ref_motion, ref_coeffs = weighted_mean_reference(states, norm)
        assert np.allclose(motion, ref_motion, atol=1e-12)
        assert np.allclose(coeffs, ref_coeffs, atol=1e-12)

    def test_sum_starts_from_positive_zero(self):
        # a mean accumulated from np.zeros reads +0.0 when every term is -0.0;
        # written estimates must not turn into "-0"
        supp = SupportSet.from_indices([0], 3)
        state = FullState(MotionState(-0.0, 0.0, 1.0), supp, np.array([-0.0, 0.0, 0.0]))
        motion, coeffs = self._means([state, state], [-1.0, -1.0])
        assert not np.signbit(motion[0]) and not np.signbit(coeffs[0])


def keep_proposals(monkeypatch):
    """Make every resampling keep each slot's own particle.

    The step then returns the proposed particles themselves, in slot order.
    The returned list collects the normalized weights of each resampling.
    """
    seen = []

    def identity(weights, rng):
        seen.append(np.array(weights))
        return np.arange(len(weights))

    monkeypatch.setattr(filters, "systematic_resample", identity)
    return seen


def run_one_step(variant, n_pf=8, seed=17):
    params = make_params()
    template, dictionary, frame, truth = make_scene(
        params, support=(0,), coeff_values=(25.0,)
    )
    cfg = FilterConfig(variant=variant, n_pf=n_pf, d=1)
    pset = ParticleSet.initialize(truth, n_pf, seed)
    return filter_step(pset, frame, template, dictionary, params, cfg)


class TestWeightBookkeeping:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_normalized_weights_sum_to_one(self, monkeypatch, variant):
        # the normalized weights the step resamples by
        seen = keep_proposals(monkeypatch)
        pset = run_one_step(variant)
        assert seen[-1].shape == (pset.n_pf,)
        total = sum(float(w) for w in seen[-1])
        assert abs(total - 1.0) <= 1e-12

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_post_resample_weights_uniform(self, variant):
        pset = run_one_step(variant)
        expected = -math.log(pset.n_pf)
        assert np.all(pset.log_weights == expected)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_step_stats_ranges(self, variant):
        pset = run_one_step(variant)
        stats = pset.last_stats
        assert 1.0 <= stats.ess <= pset.n_pf + 1e-9
        assert stats.max_log_weight <= 0.0
        assert stats.support_sizes.shape == (pset.n_pf,)
        assert np.all(stats.support_sizes <= 3)

    def test_pafimocs_states_stay_exactly_sparse(self, monkeypatch):
        keep_proposals(monkeypatch)
        pset = run_one_step("pafimocs")
        for coeffs, mask in zip(pset.coeffs, pset.supports):
            assert np.all(coeffs[~mask] == 0.0)
            assert np.all(coeffs[mask] != 0.0)


def track_six_frames(cfg, seed, **param_overrides):
    """``run_tracker`` over six frames of a static two-coefficient scene."""
    params = make_params(**param_overrides)
    template, dictionary, _, truth = make_scene(
        params, support=(0, 2), coeff_values=(20.0, -12.0)
    )
    noise = NoiseModel(kind="pure-gaussian", sigma_sq=1.0, pixel_max=255.0)
    frames = [
        render_frame(
            truth.motion, truth.coeffs, template, dictionary, FRAME_DIMS,
            noise, np.random.default_rng(100 + t),
        )
        for t in range(6)
    ]
    return run_tracker(frames, template, params, cfg, truth, seed)


@pytest.mark.parametrize("resample", ["every-step", "identity"])
def test_aux_first_stage_matches_every_row(monkeypatch, resample):
    """``aux-pf``'s first stage scores every slot, duplicates included, in
    one likelihood call, and tracks as a step that scores each row alone
    does, within rounding (the two run different stacks). Every-step
    resampling leaves mostly duplicate parents; resampling kept to the
    identity leaves every slot its own parent, so after the first step all
    rows differ. A still motion and a faint coefficient walk keep several
    parents alive."""
    n_pf = 12
    walk = dict(sigma_u=(0.0, 0.0, 0.0), sigma_l_sq=1e-5)
    cfg = FilterConfig(variant="aux-pf", n_pf=n_pf, d=1)
    if resample == "identity":
        keep_proposals(monkeypatch)
    rows_evaluated, distinct = [], []
    lone = filters.log_likelihood

    def counting(frame, motion, coeffs, *args):
        rows_evaluated.append(len(motion))
        distinct.append(len(np.unique(np.hstack([motion, coeffs]), axis=0)))
        return lone(frame, motion, coeffs, *args)

    def row_by_row(frame, motion, coeffs, *args):
        return np.concatenate([lone(frame, motion[[i]], coeffs[[i]], *args) for i in range(n_pf)])

    monkeypatch.setattr(filters, "log_likelihood", counting)
    stacked = track_six_frames(cfg, seed=4, **walk)
    monkeypatch.setattr(filters, "log_likelihood", row_by_row)
    reference = track_six_frames(cfg, seed=4, **walk)
    assert stacked.support_sizes.tobytes() == reference.support_sizes.tobytes()
    for name in ("motion", "coeffs", "ess", "max_log_weight"):
        np.testing.assert_allclose(getattr(stacked, name), getattr(reference, name), 1e-9, 1e-9)
    assert rows_evaluated == [n_pf] * 10  # both stages score every slot at every step
    first_stage = distinct[0::2]
    assert first_stage[0] == 1  # every particle starts at the truth state
    if resample == "every-step":
        assert all(1 < count < n_pf for count in first_stage[1:])
    else:
        assert first_stage[1:] == [n_pf] * 4


def prior_move_reference(pset, frame, template, dictionary, params, variant):
    """The prior move slot by slot: ``aux-pf``'s first stage, then each
    slot's stream draws ``normal(0, sqrt(sigma_u), 3)`` and then
    ``normal(0, sqrt(sigma_l_sq), n_lambda)``. Returns the proposed motions,
    coefficients and log weights."""
    noise = NoiseModel.for_params(params)
    motion, coeffs, log_w = pset.motion, pset.coeffs, pset.log_weights
    if variant == "aux-pf":
        mean_ll = observation.log_likelihood(frame, motion, coeffs, template, dictionary, noise)
        stage_one = np.exp(filters._normalize_log_weights(log_w + mean_ll))
        ancestors = systematic_resample(stage_one, pset.resample_rng)
        motion, coeffs, log_w = motion[ancestors], coeffs[ancestors], -mean_ll[ancestors]
    new_motion, new_coeffs = np.empty_like(motion), np.empty_like(coeffs)
    for i, rng in enumerate(pset.streams):
        new_motion[i] = motion[i] + rng.normal(0.0, np.sqrt(params.sigma_u), 3)
        new_coeffs[i] = coeffs[i] + rng.normal(0.0, math.sqrt(params.sigma_l_sq), params.n_lambda)
    ll = observation.log_likelihood(frame, new_motion, new_coeffs, template, dictionary, noise)
    return new_motion, new_coeffs, log_w + ll


SIGNED_ZERO_VARIANCES = st.sampled_from([0.0, -0.0, 0.04, 0.5])


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["pf-gordon", "aux-pf"]),
    st.integers(1, 6),
    st.integers(0, 2),
    st.tuples(SIGNED_ZERO_VARIANCES, SIGNED_ZERO_VARIANCES, st.sampled_from([0.0, -0.0, 1e-4])),
    st.sampled_from([0.0, -0.0, 1e-3, 0.25]),
    st.integers(0, 2**32 - 1),
)
def test_prior_move_draws_motion_then_coefficients_per_slot(
    variant, n_pf, d, sigma_u, sigma_l_sq, seed
):
    """One stacked walk over ``[motion | coeffs]`` proposes the bytes the
    slot-by-slot draws give, and leaves every stream in the same state."""
    params = make_params(
        n_lambda=2 * d + 1, s_expected=1, sigma_u=sigma_u, sigma_l_sq=sigma_l_sq
    )
    template, dictionary, frame, truth = make_scene(params, support=(0,), coeff_values=(25.0,))
    rng = np.random.default_rng(seed)
    motion = truth.motion.as_array() + rng.normal(0.0, 1.0, (n_pf, 3)) * [1.0, 1.0, 0.02]
    coeffs = rng.normal(0.0, 5.0, (n_pf, params.n_lambda))
    log_weights = rng.normal(0.0, 1.0, n_pf)

    def parents():  # two copies with the same streams
        pset = ParticleSet.initialize(truth, n_pf, seed)
        return replace(pset, motion=motion.copy(), coeffs=coeffs.copy(), log_weights=log_weights)

    pset, ref_set = parents(), parents()
    proposals = []
    cfg = FilterConfig(variant=variant, n_pf=n_pf, d=d)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(filters, "_finish_step", lambda proposed: proposals.append(proposed))
        filter_step(pset, frame, template, dictionary, params, cfg)
    (proposed,) = proposals
    reference = prior_move_reference(ref_set, frame, template, dictionary, params, variant)
    for got, want in zip((proposed.motion, proposed.coeffs, proposed.log_weights), reference):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert np.all(proposed.supports)
    for rng_got, rng_want in zip(
        [*pset.streams, pset.resample_rng], [*ref_set.streams, ref_set.resample_rng]
    ):
        assert rng_got.bit_generator.state == rng_want.bit_generator.state


@st.composite
def shared_parent_sets(draw):
    """Particle sets whose slots share a few parents, with one slot off the frame.

    Parents sit at whole and half pixel offsets with sparse or full
    supports, near the coefficients ``(20, 0, -12)`` of the scene they are
    tracked in; a still or a half-pixel walk then leaves several slots on
    one ROI.
    """
    n_pf = draw(st.integers(2, 12))
    bases = draw(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.5, -0.5, 1.0]),
                st.sampled_from([0.0, 0.25, -1.0]),
                st.sampled_from([(0,), (0, 2), (0, 1, 2), ()]),
                st.sampled_from([0.0, 0.5, -0.25]),
            ),
            min_size=1,
            max_size=3,
        )
    )
    parents = draw(st.lists(st.integers(0, len(bases) - 1), min_size=n_pf, max_size=n_pf))
    off = draw(st.integers(0, n_pf - 1))
    motion = np.array([[bases[b][0], bases[b][1], 1.0] for b in parents])
    motion[off] = (30.0, 0.0, 1.0)
    masks = np.array([SupportSet.from_indices(bases[b][2], 3).mask() for b in parents])
    shifts = np.array([bases[b][3] for b in parents])
    coeffs = (np.array([20.0, 0.0, -12.0]) + shifts[:, None]) * masks
    return motion, coeffs, masks, off, draw(st.integers(0, 2**32 - 1))


def step_recording(pset, frame, template, dictionary, params, cfg, every_row_distinct):
    """One ``filter_step``: its proposed set, its result, the sampled
    conditioning masks, the stack it solved and the (motion, pixels) rows
    its likelihood scored. ``every_row_distinct`` switches off both sharing
    levels of the mode-tracking move: every live slot is then its own row
    and every slot its own ROI, gathered and projected alone.
    """
    proposals, sampled, stacks, scored = [], [], [], []
    finish, draw_supports = filters._finish_step, filters.sample_support_rows
    solve, likelihood = filters.solve_rows, filters.log_likelihood

    def recording_finish(proposed, unconverged=0):
        proposals.append(proposed)
        return finish(proposed, unconverged)

    def recording_draw(masks, params, rngs):
        sampled.append(draw_supports(masks, params, rngs))
        return sampled[-1]

    def recording_solve(rows, config=None):
        stacks.append(rows)
        return solve(rows, config)

    def recording_likelihood(frame, motion, *args):
        pixels, _, index, _ = args[-1]  # the move passes its ROI stack
        scored.append((motion, pixels[index]))
        return likelihood(frame, motion, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(filters, "_finish_step", recording_finish)
        mp.setattr(filters, "sample_support_rows", recording_draw)
        mp.setattr(filters, "solve_rows", recording_solve)
        mp.setattr(filters, "log_likelihood", recording_likelihood)
        if every_row_distinct:
            for module in (filters, observation):
                mp.setattr(module, "distinct_rows", lambda *a: (np.arange(len(a[0])),) * 2)
        out = filter_step(pset, frame, template, dictionary, params, cfg)
    return proposals[0], out, sampled, stacks, scored


@settings(max_examples=60, deadline=None)
@given(
    shared_parent_sets(),
    st.sampled_from(["pafimocs", "pafimocs-ssc", "pf-mt"]),
    st.sampled_from([(0.0, 0.0, 0.0), (0.5, 0.5, 0.0)]),
)
def test_mode_track_per_distinct_row_matches_every_row(particles, variant, sigma_u):
    """Sharing solves and ROIs changes no draw, support or ROI, and the
    coefficients, weights and estimates only within rounding: the shared
    and every-row-distinct steps run different stacks, whose products with
    the dictionary round differently. Log weights agree to a relative 1e-9.
    Normalized weights and estimates inherit the likelihood's absolute
    accuracy, about ``eps (||y||^2 + ||Phi c||^2) / sigma_o_sq``; over this
    scene's large dictionary columns they differ by up to about 2e-8."""
    motion, coeffs, supports, off, seed = particles
    params = make_params(sigma_u=sigma_u)
    template, dictionary, frame, truth = make_scene(
        params, support=(0, 2), coeff_values=(20.0, -12.0)
    )
    cfg = FilterConfig(variant=variant, n_pf=len(motion), d=1)
    results = []
    for every_row_distinct in (False, True):
        pset = ParticleSet.initialize(truth, len(motion), seed)
        pset = replace(pset, motion=motion.copy(), coeffs=coeffs.copy(), supports=supports)
        results.append(
            step_recording(pset, frame, template, dictionary, params, cfg, every_row_distinct)
        )
    proposed, out, sampled, (rows,), scored = results[0]
    proposed_ref, out_ref, sampled_ref, (ref,), scored_ref = results[1]
    valid = grid_rows(proposed.motion, template, (frame.height, frame.width))[2]
    live = np.flatnonzero(valid)
    assert len(ref.lambda_prev) == live.size  # no row shares a solve
    assert len(ref.y_residual_base) == len(motion)  # or a gather and projection,
    assert ref.rois.tolist() == live.tolist()  # and off-frame slots' ROIs go unread
    unused = int(live.size < len(motion))  # the one pixel-0 row of the off-frame slots
    assert len(rows.y_residual_base) <= len(rows.lambda_prev) + unused <= live.size + unused
    assert len(set(rows.rois.tolist())) == len(rows.y_residual_base) - unused
    for motions, pixels in scored + scored_ref:  # each row is scored on its own ROI
        stack, index, _ = mapped_rows(frame, motions, template)
        assert pixels.tobytes() == stack[index].tobytes()
    assert proposed.motion.tobytes() == proposed_ref.motion.tobytes()
    for name in ("coeffs", "log_weights"):
        assert_close(getattr(proposed, name), getattr(proposed_ref, name))
    assert proposed.supports.tobytes() == proposed_ref.supports.tobytes()
    assert [m.tobytes() for m in sampled] == [m.tobytes() for m in sampled_ref]
    # the off-frame slot is weighed out and keeps the support it was conditioned on
    full = np.ones(supports.shape, dtype=bool)
    conds = {"pafimocs": sampled, "pafimocs-ssc": [supports], "pf-mt": [full]}[variant]
    assert len(conds) == 1  # pafimocs draws every slot's support in one call
    assert proposed.log_weights[off] == NEG_INF
    assert np.array_equal(proposed.supports[off], conds[0][off])
    for name in ("motion", "supports", "log_weights"):
        assert getattr(out, name).tobytes() == getattr(out_ref, name).tobytes()
    assert_close(out.coeffs, out_ref.coeffs)
    stats, stats_ref = out.last_stats, out_ref.last_stats
    y_sq = template.n_pixels * np.max(np.abs(frame.pixels)) ** 2
    fit_sq = np.linalg.norm(dictionary.matrix, 2) ** 2 * np.max(np.sum(proposed.coeffs**2, axis=1))
    tol = 16 * np.finfo(float).eps * (y_sq + fit_sq) / params.sigma_o_sq  # bounds of y, Phi c
    for name in ("ess", "max_log_weight", "motion_mean", "coeff_mean"):
        np.testing.assert_allclose(getattr(stats, name), getattr(stats_ref, name), tol, tol)
    assert stats.support_sizes.tobytes() == stats_ref.support_sizes.tobytes()
    assert stats.unconverged_solves == stats_ref.unconverged_solves


@pytest.mark.parametrize("variant", ["pafimocs", "pafimocs-ssc", "pf-mt"])
def test_mode_track_projects_its_roi_stack_once(monkeypatch, variant):
    """One mode-tracking step forms ``Phi' y`` of its ROI stack once: the
    stack's ``phity`` is evaluated once, and the likelihood is handed that
    same array."""
    evaluated, handed = [], []
    phity = solver.ModeTrackingRows.__dict__["phity"]

    def counted(rows):
        evaluated.append(rows)
        return phity.func(rows)

    counting = functools.cached_property(counted)
    counting.__set_name__(solver.ModeTrackingRows, "phity")
    monkeypatch.setattr(solver.ModeTrackingRows, "phity", counting)
    likelihood = filters.log_likelihood

    def recording(*args):
        handed.append(args[-1][1])  # the move passes (pixels, phity, index, valid)
        return likelihood(*args)

    monkeypatch.setattr(filters, "log_likelihood", recording)
    run_one_step(variant)
    assert len(evaluated) == 1 and len(handed) == 1
    assert handed[0] is evaluated[0].phity


def assert_close(a, b):
    np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-9)


def stream_states(pset):
    """The bit generator state of every slot's stream, then the resampling one."""
    return [rng.bit_generator.state for rng in (*pset.streams, pset.resample_rng)]


def spawned_states(ss, n):
    """The reference streams: ``default_rng`` of each of ``ss.spawn(n)``."""
    return [np.random.default_rng(child).bit_generator.state for child in ss.spawn(n)]


def twin(ss):
    """A fresh copy of ``ss``, spawned from in its place."""
    return np.random.SeedSequence(
        ss.entropy,
        spawn_key=ss.spawn_key,
        pool_size=ss.pool_size,
        n_children_spawned=ss.n_children_spawned,
    )


ORIGIN_STATE = FullState(MotionState(0.0, 0.0, 1.0), SupportSet.from_indices([0], 3), np.zeros(3))


@st.composite
def seed_sequences(draw):
    """Sequences as callers hold them: an int or list entropy, a pool of 4 or
    8 words, a spawn key (words past 2**32 too), nested harness-style spawns
    and children already spawned."""
    entropy = draw(
        st.one_of(
            st.integers(0, 2**200),
            st.lists(st.integers(0, 2**70), max_size=6),
        )
    )
    ss = np.random.SeedSequence(
        entropy,
        spawn_key=draw(st.lists(st.integers(0, 2**41), max_size=3)),
        pool_size=draw(st.sampled_from([4, 8])),
    )
    for _ in range(draw(st.integers(0, 2))):
        ss = ss.spawn(draw(st.integers(1, 5)))[-1]
    advanced = draw(st.integers(0, 40))
    if advanced:
        ss.spawn(advanced)
    return ss


class TestDeterminism:
    def _track(self, seed, variant="pafimocs"):
        return track_six_frames(FilterConfig(variant=variant, n_pf=6, d=1), seed)

    def test_identical_seeds_bit_identical(self):
        a = self._track(seed=4)
        b = self._track(seed=4)
        assert np.array_equal(a.motion, b.motion)
        assert np.array_equal(a.coeffs, b.coeffs)
        assert np.array_equal(a.ess, b.ess)
        assert np.array_equal(a.max_log_weight, b.max_log_weight)
        assert np.array_equal(a.support_sizes, b.support_sizes)

    def test_different_seeds_differ(self):
        a = self._track(seed=4)
        b = self._track(seed=5)
        assert not np.array_equal(a.motion, b.motion)

    def test_int_seed_matches_seed_sequence(self):
        a = ParticleSet.initialize(ORIGIN_STATE, 3, 11)
        b = ParticleSet.initialize(ORIGIN_STATE, 3, np.random.SeedSequence(11))
        expected = spawned_states(np.random.SeedSequence(11), 4)
        assert stream_states(a) == expected
        assert stream_states(b) == expected

    def test_initial_weights_uniform(self):
        state = FullState(
            MotionState(0.0, 0.0, 1.0), SupportSet.from_indices([0], 3), np.zeros(3)
        )
        pset = ParticleSet.initialize(state, 5, 0)
        assert np.all(pset.log_weights == -math.log(5))

    def test_rejects_empty_particle_set(self):
        state = FullState(
            MotionState(0.0, 0.0, 1.0), SupportSet.from_indices([0], 3), np.zeros(3)
        )
        with pytest.raises(ValueError, match="n_pf"):
            ParticleSet.initialize(state, 0, 0)


class TestStreamSeeding:
    """``initialize`` seeds the streams ``SeedSequence.spawn`` would, bit for
    bit, without spawning."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.one_of(st.integers(0, 2**130), seed_sequences()),
        st.integers(1, 300),
    )
    @example(0, 1)
    @example(2**130 + 3, 9)
    @example(np.random.SeedSequence([3, 0, 2**40]), 100)
    @example(np.random.SeedSequence(5, pool_size=8), 100)
    @example(np.random.SeedSequence(9, spawn_key=(2**40, 3), n_children_spawned=17), 100)
    def test_streams_equal_the_spawned_children(self, seed, n_pf):
        reference = np.random.SeedSequence(seed) if isinstance(seed, int) else twin(seed)
        pset = ParticleSet.initialize(ORIGIN_STATE, n_pf, seed)
        assert stream_states(pset) == spawned_states(reference, n_pf + 1)

    def test_never_spawns(self):
        class NoSpawn(np.random.SeedSequence):
            def spawn(self, n_children):
                raise AssertionError("spawn called")

        pset = ParticleSet.initialize(ORIGIN_STATE, 4, NoSpawn(21))
        assert stream_states(pset) == spawned_states(np.random.SeedSequence(21), 5)

    def test_seed_is_not_advanced(self):
        ss = np.random.SeedSequence(21, n_children_spawned=3)
        first = stream_states(ParticleSet.initialize(ORIGIN_STATE, 4, ss))
        assert ss.n_children_spawned == 3
        assert stream_states(ParticleSet.initialize(ORIGIN_STATE, 4, ss)) == first

    def test_last_one_word_key_is_seeded(self):
        ss = np.random.SeedSequence(7, n_children_spawned=2**32 - 3)
        pset = ParticleSet.initialize(ORIGIN_STATE, 2, ss)
        children = [
            np.random.SeedSequence(7, spawn_key=(key,)) for key in range(2**32 - 3, 2**32)
        ]
        assert stream_states(pset) == [
            np.random.default_rng(child).bit_generator.state for child in children
        ]

    def test_keys_past_one_word_are_refused(self):
        ss = np.random.SeedSequence(0, n_children_spawned=2**32 - 1)
        with pytest.raises(ValueError, match=r"child spawn key 4294967296 passes 2\*\*32 - 1"):
            ParticleSet.initialize(ORIGIN_STATE, 1, ss)

    def test_entropy_it_cannot_assemble_is_refused(self):
        with pytest.raises(TypeError, match="cannot read seed entropy '12'"):
            ParticleSet.initialize(ORIGIN_STATE, 1, np.random.SeedSequence(["12"]))


class TestDegenerateExactness:
    """Zero process and observation noise, frozen support, truth start: the
    single-particle filter must reproduce the trajectory exactly."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_reproduces_truth_for_ten_steps(self, variant):
        params = make_params(
            p_a=0.0, p_r=0.0, sigma_l_sq=0.0, sigma_u=(0.0, 0.0, 0.0), sigma_o_sq=0.0
        )
        template, dictionary, _, truth = make_scene(
            params, support=(0, 2), coeff_values=(25.0, -18.0)
        )
        noise = NoiseModel(kind="pure-gaussian", sigma_sq=0.0, pixel_max=255.0)
        frames = [
            render_frame(
                truth.motion, truth.coeffs, template, dictionary, FRAME_DIMS,
                noise, np.random.default_rng(200 + t),
            )
            for t in range(11)
        ]
        cfg = FilterConfig(
            variant=variant, n_pf=1, d=1, support_threshold="fixed-alpha", alpha=0.0
        )
        result = run_tracker(frames, template, params, cfg, truth, seed=0)
        assert result.lost_at is None
        assert np.array_equal(result.motion, np.tile(truth.motion.as_array(), (11, 1)))
        assert np.array_equal(result.coeffs, np.tile(truth.coeffs, (11, 1)))
        assert np.array_equal(result.ess, np.ones(11))


class TestUnconvergedSolves:
    @pytest.mark.parametrize("variant", ["pafimocs", "pafimocs-ssc", "pf-mt"])
    def test_capped_solves_are_counted(self, monkeypatch, variant):
        strict = functools.partial(SolverConfig, kkt_tolerance=1e-300)  # no solve certifies
        monkeypatch.setattr(filters, "SolverConfig", strict)
        cfg = FilterConfig(variant=variant, n_pf=6, d=1)
        result = track_six_frames(cfg, seed=4)
        assert 0 < result.unconverged_solves <= 5 * 6

    @pytest.mark.parametrize("variant", ["pafimocs", "pafimocs-ssc", "pf-mt"])
    def test_slots_sharing_one_solve_each_count(self, monkeypatch, variant):
        # a still walk and a support kernel that moves nothing give every
        # live slot one key, so one uncertified solve serves five slots
        strict = functools.partial(SolverConfig, kkt_tolerance=1e-300)  # no solve certifies
        monkeypatch.setattr(filters, "SolverConfig", strict)
        stacks = []

        def recording_solve_rows(rows, config=None):
            stacks.append(len(rows.lambda_prev))
            return solver.solve_rows(rows, config)

        monkeypatch.setattr(filters, "solve_rows", recording_solve_rows)
        params = make_params(sigma_u=(0.0, 0.0, 0.0), p_a=0.0, p_r=0.0)
        template, dictionary, frame, truth = make_scene(
            params, support=(0, 2), coeff_values=(20.0, -12.0)
        )
        pset = ParticleSet.initialize(truth, 6, 4)
        pset.motion[3] = (500.0, 500.0, 1.0)  # off the frame: no solve, no count
        cfg = FilterConfig(variant=variant, n_pf=6, d=1)
        out = filter_step(pset, frame, template, dictionary, params, cfg)
        assert stacks == [1]
        assert out.last_stats.unconverged_solves == 5

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_default_solver_leaves_none(self, variant):
        result = track_six_frames(FilterConfig(variant=variant, n_pf=6, d=1), seed=4)
        assert result.unconverged_solves == 0


class TestSscCoincidence:
    def test_matches_pafimocs_when_sampled_support_is_previous(self, monkeypatch):
        # p_a = p_r = 0 forces the sampled support to equal the previous one,
        # so both variants solve the same conditioned problem; the tiny
        # motion noise keeps each solve close enough to the truth that the
        # thresholded support stays put, making the support transition factor
        # log 1 = 0, so the weights agree too
        params = make_params(p_a=0.0, p_r=0.0, sigma_u=(0.02, 0.02, 0.0))
        template, dictionary, frame, truth = make_scene(
            params, support=(0, 2), coeff_values=(22.0, -15.0)
        )
        weights = keep_proposals(monkeypatch)
        cfg_a = FilterConfig(variant="pafimocs", n_pf=6, d=1)
        cfg_b = FilterConfig(variant="pafimocs-ssc", n_pf=6, d=1)
        set_a = ParticleSet.initialize(truth, 6, 21)
        set_b = ParticleSet.initialize(truth, 6, 21)
        out_a = filter_step(set_a, frame, template, dictionary, params, cfg_a)
        out_b = filter_step(set_b, frame, template, dictionary, params, cfg_b)
        assert np.all(out_a.supports == truth.support.mask())  # scene precondition
        assert np.array_equal(out_a.motion, out_b.motion)
        assert np.array_equal(out_a.supports, out_b.supports)
        assert np.array_equal(out_a.coeffs, out_b.coeffs)
        assert np.array_equal(weights[0], weights[1])
        assert out_a.last_stats.max_log_weight == out_b.last_stats.max_log_weight


class TestPfMtDenseSolutions:
    def test_order_three_has_seven_coefficients(self):
        assert build_dictionary(small_template(), 3).n_lambda == 7

    def test_solutions_are_dense(self, monkeypatch):
        params = make_params(n_lambda=7, s_expected=3, p_r=0.04)
        template, dictionary, frame, truth = make_scene(
            params, support=(1, 3, 5), coeff_values=(20.0, -15.0, 10.0)
        )
        keep_proposals(monkeypatch)
        cfg = FilterConfig(variant="pf-mt", n_pf=8, d=3)
        pset = ParticleSet.initialize(truth, 8, 33)
        out = filter_step(pset, frame, template, dictionary, params, cfg)
        assert out.supports.shape == (8, 7) and out.supports.all()
        assert np.all(out.coeffs != 0.0)


class TestInvalidRoiHandling:
    def _setup(self):
        params = make_params(sigma_u=(0.0, 0.0, 0.0))
        template, dictionary, frame, truth = make_scene(
            params, support=(0,), coeff_values=(25.0,)
        )
        return params, template, dictionary, frame, truth

    def test_off_frame_particles_are_eliminated(self):
        params, template, dictionary, frame, truth = self._setup()
        far = FullState(MotionState(500.0, 500.0, 1.0), truth.support, truth.coeffs)
        pset = ParticleSet.initialize(truth, 4, 7)
        pset.motion[[1, 3]] = far.motion.as_array()
        cfg = FilterConfig(variant="pafimocs", n_pf=4, d=1)
        out = filter_step(pset, frame, template, dictionary, params, cfg)
        assert np.all(np.abs(out.motion[:, 0]) < 100.0)

    def test_all_invalid_raises_tracker_lost(self):
        params, template, dictionary, frame, truth = self._setup()
        far = FullState(MotionState(500.0, 500.0, 1.0), truth.support, truth.coeffs)
        pset = ParticleSet.initialize(far, 3, 7)
        cfg = FilterConfig(variant="pafimocs", n_pf=3, d=1)
        with pytest.raises(TrackerLostError):
            filter_step(pset, frame, template, dictionary, params, cfg)

    def test_run_tracker_freezes_after_loss(self):
        params, template, dictionary, frame, truth = self._setup()
        far = FullState(MotionState(500.0, 500.0, 1.0), truth.support, truth.coeffs)
        frames = [frame] * 6
        cfg = FilterConfig(variant="pf-gordon", n_pf=3, d=1)
        result = run_tracker(frames, template, params, cfg, far, seed=0)
        assert result.lost_at == 1
        assert np.array_equal(result.motion, np.tile(far.motion.as_array(), (6, 1)))
        assert np.all(result.ess[1:] == 0.0)
        assert np.all(result.max_log_weight[1:] == NEG_INF)


@pytest.mark.parametrize(
    "label", ["pafimocs", "pafimocs-ssc", "pf-mt-20", "pf-gordon-3", "aux-pf-3"]
)
def test_non_finite_frame_is_rejected(label):
    # frames read from text files may hold NaN; a Frame refuses them when it
    # is built, so every tracker stops with the same error
    cfg = harness.SimConfig(n_frames=2)
    truth = harness.generate_sequence(cfg, np.random.default_rng(0))
    frames = list(truth.frames)
    spec = harness.parse_filter_label(label, cfg.d)
    fcfg = replace(harness.resolve_filter_config(spec, cfg), n_pf=10)
    with pytest.raises(ValueError, match="frame pixels must be finite"):
        frames[2] = Frame(np.full(frames[2].n_pixels, np.nan), frames[2].height, frames[2].width)
        run_tracker(frames, truth.template, cfg.params, fcfg, truth.states[0], 1)


class TestAmbientCoercion:
    def test_tracker_projects_wider_truth_state(self):
        params = make_params(n_lambda=7, s_expected=3, p_r=0.04)
        template, dictionary, frame, truth = make_scene(
            params, support=(1, 5), coeff_values=(20.0, 10.0)
        )
        cfg = FilterConfig(variant="pf-gordon", n_pf=4, d=1)
        result = run_tracker([frame, frame, frame], template, params, cfg, truth, 0)
        assert result.coeffs.shape == (3, 3)
        assert np.array_equal(result.coeffs[0], truth.coeffs[:3])
        assert np.array_equal(result.motion[0], truth.motion.as_array())

    def test_tracker_pads_narrower_truth_state(self):
        params = make_params(n_lambda=3, s_expected=2)
        template, dictionary, frame, truth = make_scene(
            params, support=(0, 2), coeff_values=(20.0, -10.0)
        )
        cfg = FilterConfig(variant="pafimocs-ssc", n_pf=4, d=3)
        result = run_tracker([frame, frame], template, params, cfg, truth, 0)
        assert result.coeffs.shape == (2, 7)
        assert result.coeffs[0].tobytes() == np.array([20.0, 0.0, -10.0, 0, 0, 0, 0]).tobytes()
        assert np.array_equal(result.support_sizes[0], [2, 2, 2, 2])  # both indices kept


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(variant="pf-fancy"), "variant"),
            (dict(n_pf=0), "n_pf"),
            (dict(d=-1), "d must"),
            (dict(support_threshold="topk"), "threshold"),
            (dict(gamma=float("nan")), "gamma, beta and alpha"),
            (dict(gamma=-0.1), "gamma, beta and alpha"),
            (dict(beta=float("nan")), "gamma, beta and alpha"),
            (dict(beta=-1.0), "gamma, beta and alpha"),
            (dict(alpha=float("nan")), "gamma, beta and alpha"),
            (dict(alpha=-1e-9), "gamma, beta and alpha"),
            (dict(gamma=float("inf")), "gamma, beta and alpha must be nonnegative and finite"),
            (dict(beta=float("inf")), "gamma, beta and alpha must be nonnegative and finite"),
            (dict(alpha=float("inf")), "gamma, beta and alpha must be nonnegative and finite"),
        ],
    )
    def test_bad_config_rejected(self, kw, message):
        base = dict(variant="pafimocs", n_pf=10, d=1)
        base.update(kw)
        with pytest.raises(ValueError, match=message):
            FilterConfig(**base)
