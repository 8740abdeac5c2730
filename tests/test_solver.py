"""Mode-tracking solver: cost values, optimality certificates, oracle
agreement, the joint outlier variant, and the brute-force support search."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import cost_direct, ridge_closed_form, sign_pattern_minimum
from pafimocs import filters, harness, solver
from pafimocs.dictionary import Dictionary, build_dictionary
from pafimocs.models import SupportSet
from pafimocs.solver import (
    ModeTrackingProblem,
    ModeTrackingRows,
    SolverConfig,
    brute_force_ssc_oracle,
    evaluate_cost,
    kkt_residual,
    power_iteration_lmax,
    smooth_gradient,
    solve,
    solve_rows,
    solve_with_outliers,
)


def custom_dictionary(matrix):
    matrix = np.asarray(matrix, dtype=float)
    return Dictionary(matrix=matrix, order=0, kind="custom")


def random_problem(rng, n_lambda=4, n_pixels=30, support_size=None, **kw):
    phi = rng.standard_normal((n_pixels, n_lambda))
    if support_size is None:
        support_size = int(rng.integers(0, n_lambda + 1))
    support = SupportSet.from_indices(
        rng.choice(n_lambda, size=support_size, replace=False), n_lambda
    )
    lam_true = rng.standard_normal(n_lambda)
    y = phi @ lam_true + 0.1 * rng.standard_normal(n_pixels)
    defaults = dict(
        y_residual_base=y,
        dictionary=custom_dictionary(phi),
        lambda_prev=rng.standard_normal(n_lambda),
        cond_support=support,
        sigma_o_sq=1.0,
        sigma_l_sq=1.0,
        beta=1.0,
        gamma=0.5,
    )
    defaults.update(kw)
    return ModeTrackingProblem(**defaults)


def full_support(n):
    return SupportSet.from_indices(range(n), n)


# -------------------------------------------------------------------- cost


def test_cost_hand_instance():
    problem = ModeTrackingProblem(
        y_residual_base=np.array([1.0, 0.0]),
        dictionary=custom_dictionary(np.eye(2)),
        lambda_prev=np.zeros(2),
        cond_support=SupportSet.from_indices([0], 2),
        sigma_o_sq=1.0,
        sigma_l_sq=1.0,
        beta=1.0,
        gamma=1.0,
    )
    lam = np.array([0.5, 0.2])
    # 0.5*(0.25 + 0.04) + 0.5*0.25 + 0.2
    assert evaluate_cost(problem, lam) == pytest.approx(0.47, abs=1e-15)


def test_cost_degenerates_to_ridge_form_on_full_support():
    rng = np.random.default_rng(0)
    problem = random_problem(rng, support_size=4, beta=1.0)
    problem.cond_support = full_support(4)
    lam = rng.standard_normal(4)
    r = problem.y_residual_base - problem.dictionary.matrix @ lam
    d = lam - problem.lambda_prev
    expected = 0.5 * float(r @ r) + 0.5 * float(d @ d)
    assert evaluate_cost(problem, lam) == pytest.approx(expected, rel=1e-12)


def test_cost_at_prev_with_consistent_data():
    rng = np.random.default_rng(1)
    phi = rng.standard_normal((20, 4))
    lam_prev = rng.standard_normal(4)
    problem = ModeTrackingProblem(
        y_residual_base=phi @ lam_prev,
        dictionary=custom_dictionary(phi),
        lambda_prev=lam_prev,
        cond_support=SupportSet.from_indices([0, 2], 4),
        sigma_o_sq=2.0,
        sigma_l_sq=0.5,
        gamma=0.3,
    )
    off = [1, 3]
    expected = 0.3 * float(np.sum(np.abs(lam_prev[off])))
    assert evaluate_cost(problem, lam_prev) == pytest.approx(expected, rel=1e-12)


def test_problem_validation():
    rng = np.random.default_rng(2)
    phi = rng.standard_normal((10, 3))
    good = dict(
        y_residual_base=np.zeros(10),
        dictionary=custom_dictionary(phi),
        lambda_prev=np.zeros(3),
        cond_support=full_support(3),
        sigma_o_sq=1.0,
        sigma_l_sq=1.0,
    )
    with pytest.raises(ValueError, match="finite"):
        ModeTrackingProblem(**{**good, "y_residual_base": np.full(10, np.nan)})
    with pytest.raises(ValueError, match="length"):
        ModeTrackingProblem(**{**good, "lambda_prev": np.zeros(4)})
    with pytest.raises(ValueError, match="positive"):
        ModeTrackingProblem(**{**good, "sigma_o_sq": 0.0})
    with pytest.raises(ValueError, match="nonnegative"):
        ModeTrackingProblem(**{**good, "gamma": -0.1})
    for key in ("beta", "gamma", "gamma_outlier"):  # inf * 0 would be NaN in the cost
        with pytest.raises(ValueError, match=f"{key}.*nonnegative and finite"):
            ModeTrackingProblem(**{**good, key: math.inf})
    for key in ("sigma_o_sq", "sigma_l_sq"):  # an infinite variance zeroes its cost term
        with pytest.raises(ValueError, match=f"{key}.*positive and finite"):
            ModeTrackingProblem(**{**good, key: math.inf})
    for tol in (0.0, math.nan, math.inf):  # an infinite tolerance certifies every start
        with pytest.raises(ValueError, match="kkt_tolerance must be positive and finite"):
            SolverConfig(kkt_tolerance=tol)


# ---------------------------------------------------------------- gradients


def test_smooth_gradient_finite_difference():
    rng = np.random.default_rng(3)
    problem = random_problem(rng, n_lambda=5, gamma=0.0)
    problem.cond_support = SupportSet.from_indices([0, 3], 5)
    lam = rng.standard_normal(5)
    grad, _ = smooth_gradient(problem, lam)
    eps = 1e-6
    for j in rng.choice(5, size=10, replace=True):
        e = np.zeros(5)
        e[j] = eps
        # gamma=0 makes the full cost smooth, so central differences apply
        fd = (evaluate_cost(problem, lam + e) - evaluate_cost(problem, lam - e)) / (2 * eps)
        assert fd == pytest.approx(grad[j], rel=1e-5, abs=1e-7)


def test_power_iteration_matches_eigh():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((8, 8))
    mat = a @ a.T
    lmax = float(np.linalg.eigvalsh(mat)[-1])
    assert power_iteration_lmax(mat) == pytest.approx(lmax, rel=1e-6)


# ------------------------------------------------------------------ solve


def test_ridge_closed_form_match():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        problem = random_problem(rng, n_lambda=n, n_pixels=40, support_size=n)
        problem.cond_support = full_support(n)
        result = solve(problem)
        ref = ridge_closed_form(
            problem.dictionary.matrix,
            problem.y_residual_base,
            problem.lambda_prev,
            problem.sigma_o_sq,
            problem.sigma_l_sq,
            problem.beta,
        )
        assert result.converged
        scale = max(1.0, float(np.linalg.norm(ref)))
        assert np.linalg.norm(result.lambda_opt - ref) <= 1e-8 * scale
        # smooth stationarity at the closed form itself
        assert kkt_residual(problem, ref) <= 1e-8


def test_large_gamma_zeroes_off_support():
    rng = np.random.default_rng(6)
    for _ in range(10):
        problem = random_problem(rng, n_lambda=6, support_size=3, gamma=0.0)
        pinned = _restricted_smooth_min(problem, problem.cond_support.indices)
        grad, _ = smooth_gradient(problem, pinned)
        off = ~problem.cond_support.mask()
        # drive gamma above the off-support gradient at the pinned optimum:
        # the subgradient condition then holds with the off block at zero
        problem_l1 = ModeTrackingProblem(
            y_residual_base=problem.y_residual_base,
            dictionary=problem.dictionary,
            lambda_prev=problem.lambda_prev,
            cond_support=problem.cond_support,
            sigma_o_sq=problem.sigma_o_sq,
            sigma_l_sq=problem.sigma_l_sq,
            beta=problem.beta,
            gamma=float(np.max(np.abs(grad[off]))) * 1.5 + 0.1,
        )
        result = solve(problem_l1)
        assert result.converged
        assert np.all(result.lambda_opt[off] == 0.0)
        assert np.allclose(result.lambda_opt, pinned, atol=1e-7)


def test_solver_matches_sign_pattern_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(30):
        problem = random_problem(rng, n_lambda=4, n_pixels=25, gamma=float(rng.uniform(0.1, 2.0)))
        result = solve(problem)
        _, best = sign_pattern_minimum(
            problem.dictionary.matrix,
            problem.y_residual_base,
            problem.lambda_prev,
            problem.cond_support.mask(),
            problem.sigma_o_sq,
            problem.sigma_l_sq,
            problem.beta,
            problem.gamma,
        )
        assert result.converged
        assert result.objective <= best + 1e-6
        assert result.objective >= best - 1e-9


# l1 weights 0.01 to 100
WEIGHTS = st.floats(-2.0, 2.0).map(lambda e: 10.0**e)


@st.composite
def small_problems(
    draw,
    max_lambda=6,
    max_pixels=12,
    min_lambda=1,
    deficiencies=("none", "zero-column", "repeated-column"),
    betas=(0.5, 1.0),
):
    """Random instances with n_lambda <= max_lambda, some of them rank-deficient."""
    n_lambda = draw(st.integers(min_lambda, max_lambda))
    n_pixels = draw(st.integers(2, max_pixels))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phi = rng.standard_normal((n_pixels, n_lambda))
    deficiency = draw(st.sampled_from(deficiencies))
    if deficiency == "zero-column":
        phi[:, rng.integers(n_lambda)] = 0.0
    elif deficiency == "repeated-column" and n_lambda > 1:
        i, j = rng.choice(n_lambda, size=2, replace=False)
        phi[:, j] = phi[:, i]
    support_size = draw(st.integers(0, n_lambda))
    return ModeTrackingProblem(
        y_residual_base=phi @ rng.standard_normal(n_lambda)
        + 0.1 * rng.standard_normal(n_pixels),
        dictionary=custom_dictionary(phi),
        lambda_prev=rng.standard_normal(n_lambda),
        cond_support=SupportSet.from_indices(
            rng.choice(n_lambda, size=support_size, replace=False), n_lambda
        ),
        sigma_o_sq=draw(st.sampled_from([0.5, 1.0, 4.0])),
        sigma_l_sq=draw(st.sampled_from([0.1, 1.0, 10.0])),
        beta=draw(st.sampled_from(betas)),
        # up to 100: large enough to pin some off-support coordinates at zero
        gamma=draw(WEIGHTS),
    )


@settings(max_examples=200, deadline=None)
@given(small_problems(), st.booleans())
def test_solve_certifies_the_enumerated_minimum(problem, warm):
    config = SolverConfig(warm_start=problem.lambda_prev if warm else None)
    result = solve(problem, config)
    _, best = sign_pattern_minimum(
        problem.dictionary.matrix,
        problem.y_residual_base,
        problem.lambda_prev,
        problem.cond_support.mask(),
        problem.sigma_o_sq,
        problem.sigma_l_sq,
        problem.beta,
        problem.gamma,
    )
    assert result.converged
    assert result.kkt_residual <= config.kkt_tolerance
    assert best - 1e-9 <= result.objective <= best + 1e-6


@pytest.mark.parametrize("outliers", [False, True])
def test_uncertified_solve_returns_its_best_round(outliers):
    # no candidate meets a tolerance below rounding error, so the search runs
    # until no move lowers the cost and the round with the smallest residual
    # is returned, flagged, not raised; the start (trace row 0) is not a round
    rng = np.random.default_rng(12)
    problem = random_problem(rng, n_lambda=8, n_pixels=60, support_size=3)
    config = SolverConfig(kkt_tolerance=1e-300, record_trace=True)
    if outliers:
        problem = dataclasses.replace(problem, gamma_outlier=0.5)
        result = solve_with_outliers(problem, config)
    else:
        result = solve(problem, config)
    assert not result.converged
    assert result.iterations == len(result.trace) - 1 >= 1
    assert result.trace[0][0] == 0
    assert result.kkt_residual == min(kkt for _, _, kkt in result.trace[1:])
    assert result.objective == next(c for _, c, k in result.trace[1:] if k == result.kkt_residual)


@pytest.mark.parametrize("tol", [1e-6, 1e-14, 1e-300])
def test_search_below_rounding_level_still_reaches_the_minimum(tol):
    # a candidate counts as stationary on its sign pattern within the rounding
    # level of the pattern's system, so a tolerance below that level changes
    # only the converged flag; here the outliers vanish at the minimum, which
    # is then the plain solve's
    rng = np.random.default_rng(12)
    problem = random_problem(rng, n_lambda=8, n_pixels=60, support_size=3, gamma_outlier=0.5)
    plain = solve(dataclasses.replace(problem, gamma_outlier=None))
    result = solve_with_outliers(problem, SolverConfig(kkt_tolerance=tol))
    assert plain.converged and np.all(result.outlier_opt == 0.0)
    assert result.kkt_residual < 1e-12
    assert result.objective == pytest.approx(plain.objective, rel=1e-12)
    assert np.allclose(result.lambda_opt, plain.lambda_opt, rtol=0.0, atol=1e-12)
    assert result.converged == (result.kkt_residual <= tol)


@settings(max_examples=100, deadline=None)
@given(small_problems(), st.sampled_from([1e-6, 1e-300]), st.none() | WEIGHTS)
def test_each_result_carries_its_kkt_certificate(problem, tol, gamma_outlier):
    config = SolverConfig(kkt_tolerance=tol)
    if gamma_outlier is not None:
        problem = dataclasses.replace(problem, gamma_outlier=gamma_outlier)
        result = solve_with_outliers(problem, config)
        certificate = kkt_residual(problem, result.lambda_opt, result.outlier_opt)
    else:
        result = solve(problem, config)
        certificate = kkt_residual(problem, result.lambda_opt)
    assert result.kkt_residual == certificate
    assert result.converged == (result.kkt_residual <= tol)


def pixel_kkt(problem, lam):
    """The KKT residual from the gradient on the full dictionary,
    ``Phi' (Phi lam - y)``, as :func:`smooth_gradient` forms it."""
    grad, _ = smooth_gradient(problem, lam)
    weights = problem.gamma * ~problem.cond_support.mask()
    return float(solver._kkt_rows(grad[None], lam[None], weights)[0])


def gram_rounding_bound(problem, lam, k=64.0):
    """``k eps`` times the terms both gradients round: the data term's
    ``max_j c_data (|Phi|' (|Phi| |lam| + |y|))_j`` plus the prior term's
    ``c_prior max |lam - prev|`` on the mask."""
    phi = np.abs(problem.dictionary.matrix)
    data = phi.T @ (phi @ np.abs(lam) + np.abs(problem.y_residual_base)) / problem.sigma_o_sq
    gap = np.abs(lam - problem.lambda_prev)[problem.cond_support.mask()]
    prior = problem.beta / problem.sigma_l_sq * np.max(gap, initial=0.0)
    return k * np.finfo(float).eps * (np.max(data, initial=0.0) + prior)


@settings(max_examples=200, deadline=None)
@given(small_problems(), st.booleans(), st.integers(0, 2**32 - 1))
def test_gram_certificate_matches_the_pixel_space_residual(problem, warm, seed):
    """The coefficient-space :func:`kkt_residual` agrees with the residual of
    the pixel-space gradient within the rounding bound, at a random point
    with some exact zeros and at the solver's point, and gives the same
    verdict at the default tolerance."""
    rng = np.random.default_rng(seed)
    n = problem.dictionary.n_lambda
    config = SolverConfig(warm_start=problem.lambda_prev if warm else None)
    points = [rng.standard_normal(n) * rng.integers(0, 2, n), solve(problem, config).lambda_opt]
    for lam in points:
        gram, pixel = kkt_residual(problem, lam), pixel_kkt(problem, lam)
        assert abs(gram - pixel) <= gram_rounding_bound(problem, lam)
        assert (gram <= config.kkt_tolerance) == (pixel <= config.kkt_tolerance)


def test_tracker_solves_certify_in_the_exact_phase(monkeypatch):
    """Guard on the fast path: every solve the mode-tracking trackers make on
    the default 96x96 scene with the d = 20 Legendre dictionary certifies
    within three feature-sign rounds. Each step makes one stacked call,
    which holds no row twice and gathers no ROI twice."""
    cfg = harness.SimConfig(n_frames=3)
    truth = harness.generate_sequence(cfg, np.random.default_rng(0))
    results = []

    def recording_solve_rows(rows, config=None):
        y = rows.y_residual_base
        keys = np.concatenate(
            [y[rows.rois].view(np.uint8), rows.lambda_prev.view(np.uint8), rows.masks], axis=1
        )
        assert len(np.unique(keys, axis=0)) == len(keys)
        assert len(np.unique(y, axis=0)) == len(y) == len(np.unique(rows.rois))
        result = solver.solve_rows(rows, config)
        results.append(result)
        return result

    monkeypatch.setattr(filters, "solve_rows", recording_solve_rows)
    for label in ("pafimocs", "pafimocs-ssc", "pf-mt-20"):
        spec = harness.parse_filter_label(label, cfg.d)
        fcfg = dataclasses.replace(harness.resolve_filter_config(spec, cfg), n_pf=20)
        filters.run_tracker(truth.frames, truth.template, cfg.params, fcfg, truth.states[0], 1)
    assert len(results) == 3 * 3
    assert all(r.converged.all() for r in results)
    assert max(r.iterations.max() for r in results) <= 3


def test_tracker_certificates_match_the_pixel_space_residual(monkeypatch):
    """Every row the mode-tracking trackers solve on the default 96x96 scene
    reports a KKT residual within the rounding bound of the pixel-space one,
    and is flagged converged exactly when the pixel-space residual meets the
    tolerance."""
    cfg = harness.SimConfig(n_frames=3)
    truth = harness.generate_sequence(cfg, np.random.default_rng(0))
    stacks = []

    def recording_solve_rows(rows, config=None):
        result = solver.solve_rows(rows, config)
        stacks.append((rows, config, result))
        return result

    monkeypatch.setattr(filters, "solve_rows", recording_solve_rows)
    for label in ("pafimocs", "pafimocs-ssc", "pf-mt-20"):
        spec = harness.parse_filter_label(label, cfg.d)
        fcfg = dataclasses.replace(harness.resolve_filter_config(spec, cfg), n_pf=20)
        filters.run_tracker(truth.frames, truth.template, cfg.params, fcfg, truth.states[0], 1)
    assert len(stacks) == 3 * 3
    for rows, config, result in stacks:
        for i, lam in enumerate(result.lambda_opt):
            problem = rows.problem(i)
            pixel = pixel_kkt(problem, lam)
            assert abs(result.kkt_residual[i] - pixel) <= gram_rounding_bound(problem, lam)
            assert result.converged[i] == (pixel <= config.kkt_tolerance)


# ----------------------------------------------------------- stacked solve


@st.composite
def solve_stacks(draw, max_lambda=6, max_pixels=12, max_rows=20):
    """Problem stacks over one dictionary, with their warm starts.

    Rows mix empty, full and random supports, and zero, previous and solved
    warm starts (the last certify at 0 rounds); the l1 weight reaches values
    where rows need two rounds or more. Stacks of more than 16 rows run in
    two blocks.
    """
    n_lambda = draw(st.integers(1, max_lambda))
    n_pixels = draw(st.integers(2, max_pixels))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phi = rng.standard_normal((n_pixels, n_lambda))
    if draw(st.booleans()) and n_lambda > 1:
        phi[:, 1] = phi[:, 0]
    n = draw(st.integers(1, max_rows))
    masks = np.zeros((n, n_lambda), dtype=bool)
    kinds = draw(st.lists(st.sampled_from(["empty", "full", "random"]), min_size=n, max_size=n))
    for mask, kind in zip(masks, kinds):
        size = {"empty": 0, "full": n_lambda}.get(kind, int(rng.integers(0, n_lambda + 1)))
        mask[rng.choice(n_lambda, size, replace=False)] = True
    lam_true = rng.standard_normal((n, n_lambda))
    rows = ModeTrackingRows(
        y_residual_base=lam_true @ phi.T + 0.1 * rng.standard_normal((n, n_pixels)),
        dictionary=custom_dictionary(phi),
        lambda_prev=rng.standard_normal((n, n_lambda)),
        masks=masks,
        sigma_o_sq=draw(st.sampled_from([0.5, 1.0, 4.0])),
        sigma_l_sq=draw(st.sampled_from([0.1, 1.0, 10.0])),
        beta=draw(st.sampled_from([0.5, 1.0])),
        gamma=draw(WEIGHTS),
    )
    warm = np.zeros((n, n_lambda))
    kinds = draw(st.lists(st.sampled_from(["zero", "prev", "solved"]), min_size=n, max_size=n))
    for i, kind in enumerate(kinds):
        if kind == "prev":
            warm[i] = rows.lambda_prev[i]
        elif kind == "solved":
            warm[i] = solve(rows.problem(i)).lambda_opt
    return rows, warm


def assert_rows_agree_with_lone_solves(rows, warm):
    """The stacked solve's contract against one-row solves of each row.

    Exact: the same stack solved twice gives the same bytes, and every
    converged row carries a KKT residual within the tolerance, in Gram form
    (recomputed here by ``kkt_residual`` on the row's own problem). Within
    rounding, since products with the shared dictionary run as one
    matrix-matrix product per stack: each row reaches the lone solve's cost
    to a relative 1e-12, and when the dictionary has full column rank (so
    the minimizer is unique) its point to ``1e-12 * cond(G)`` relative to
    the point's size. Round counts are not compared: near a tie a row can
    take one round more or fewer than its lone solve.
    """
    config = SolverConfig(warm_start=warm)
    stacked = solve_rows(rows, config)
    again = solve_rows(rows, config)
    for name in ("lambda_opt", "kkt_residual", "iterations", "converged"):
        assert getattr(stacked, name).tobytes() == getattr(again, name).tobytes()
    gram = rows.dictionary.gram
    unique = np.linalg.matrix_rank(gram) == rows.dictionary.n_lambda
    for i in range(len(warm)):
        problem = rows.problem(i)
        lone = solve(problem, dataclasses.replace(config, warm_start=warm[i]))
        lam = stacked.lambda_opt[i]
        assert stacked.converged[i] == lone.converged
        if stacked.converged[i]:
            assert stacked.kkt_residual[i] <= config.kkt_tolerance
            assert kkt_residual(problem, lam) <= config.kkt_tolerance
        assert evaluate_cost(problem, lam) == pytest.approx(lone.objective, rel=1e-12)
        if unique:
            scale = max(1.0, np.max(np.abs(lone.lambda_opt)))
            assert np.max(np.abs(lam - lone.lambda_opt)) <= 1e-12 * np.linalg.cond(gram) * scale
    return stacked


@settings(max_examples=150, deadline=None)
@given(solve_stacks())
def test_stacked_solve_matches_each_lone_solve(stack):
    assert_rows_agree_with_lone_solves(*stack)


@settings(max_examples=100, deadline=None)
@given(solve_stacks(max_rows=4), st.data())
def test_stack_of_repeated_rows_matches_each_lone_solve(stack, data):
    """A few base rows, repeated and shuffled over up to two blocks, as a
    stack of distinct mode-tracking rows never is."""
    base, warm = stack
    picks = data.draw(st.lists(st.integers(0, len(warm) - 1), min_size=1, max_size=24))
    rows = dataclasses.replace(
        base,
        y_residual_base=base.y_residual_base[picks],
        lambda_prev=base.lambda_prev[picks],
        masks=base.masks[picks],
        rois=None,  # one row each, not the base's
    )
    assert_rows_agree_with_lone_solves(rows, warm[picks])


@settings(max_examples=100, deadline=None)
@given(solve_stacks(), st.data())
def test_rows_sharing_an_roi_match_each_lone_solve(stack, data):
    """Several problems per observation row, as when particles share an ROI:
    ``Phi' y`` is formed once per ROI, and every problem still agrees with a
    lone solve on its own copy of that row."""
    base, warm = stack
    n = len(warm)
    n_rois = data.draw(st.integers(1, n))
    rois = data.draw(st.lists(st.integers(0, n_rois - 1), min_size=n, max_size=n))
    rows = dataclasses.replace(
        base, y_residual_base=base.y_residual_base[:n_rois], rois=np.array(rois)
    )
    for i in range(n):
        assert rows.problem(i).y_residual_base.tobytes() == rows.y_residual_base[rois[i]].tobytes()
    assert_rows_agree_with_lone_solves(rows, warm)


def test_stacked_solve_covers_every_path():
    """A fixed stack over two blocks with rows that certify at 0 rounds, in
    the stacked first round, and after two or more rounds."""
    rng = np.random.default_rng(21)
    n, n_lambda, n_pixels = 24, 6, 30
    phi = rng.standard_normal((n_pixels, n_lambda))
    masks = np.zeros((n, n_lambda), dtype=bool)
    for i, mask in enumerate(masks):
        mask[rng.choice(n_lambda, i % (n_lambda + 1), replace=False)] = True
    rows = ModeTrackingRows(
        y_residual_base=rng.standard_normal((n, n_lambda)) @ phi.T,
        dictionary=custom_dictionary(phi),
        lambda_prev=rng.standard_normal((n, n_lambda)),
        masks=masks,
        sigma_o_sq=1.0,
        sigma_l_sq=1.0,
        gamma=3.0,
    )
    warm = rows.lambda_prev.copy()
    warm[::5] = [solve(rows.problem(i)).lambda_opt for i in range(0, n, 5)]
    stacked = assert_rows_agree_with_lone_solves(rows, warm)
    assert {0, 1} <= set(stacked.iterations) and max(stacked.iterations) >= 2
    assert stacked.converged.all()


def test_full_mask_stack_returns_its_stacked_ridge_points():
    """A stack of full-mask (``pf-mt``) rows on the 32 x 32 bumps template
    with the d = 20 dictionary: without an l1 term the first candidate's
    system is the ridge system, so every row returns its stacked ridge point
    bit for bit, certified in one round."""
    template = harness.make_template("bumps", 32, 32, seed=0)
    dictionary = build_dictionary(template, 20)
    params = harness.default_params()
    rng = np.random.default_rng(3)
    n, k = 16, dictionary.n_lambda
    lam = rng.normal(0.0, 0.1, (n, k))
    masks = np.ones((n, k), dtype=bool)
    rows = ModeTrackingRows(
        y_residual_base=lam @ dictionary.matrix.T + rng.normal(0.0, 1.0, (n, dictionary.n_pixels)),
        dictionary=dictionary,
        lambda_prev=lam + rng.normal(0.0, 0.1, (n, k)),
        masks=masks,
        sigma_o_sq=params.sigma_o_sq,
        sigma_l_sq=params.sigma_l_sq,
    )
    c_data, c_prior = 1.0 / rows.sigma_o_sq, rows.beta / rows.sigma_l_sq
    rhs = c_data * (rows.y_residual_base @ dictionary.matrix) + c_prior * (rows.lambda_prev * masks)
    ridge = solver._solve_systems(solver._mask_systems(dictionary, c_data, c_prior, masks), rhs)[0]
    result = solve_rows(rows)
    assert result.lambda_opt.tobytes() == ridge.tobytes()
    assert np.all(result.iterations == 1) and result.converged.all()


@st.composite
def mask_systems(draw, max_lambda=8, max_rows=12):
    """Full-column-rank dictionaries with a stack of masks and right-hand
    sides. Mask sizes run from 0 to k and always include ``k // 2`` (solved
    on the data Gram's inverse) and ``k // 2 + 1`` (solved on the inverse of
    the data Gram plus the prior weight), so one stack uses both bases."""
    k = draw(st.integers(1, max_lambda))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phi = rng.standard_normal((k + draw(st.integers(2, 12)), k))
    extra = draw(st.lists(st.integers(0, k), max_size=max_rows))
    sizes = sorted({k // 2, min(k // 2 + 1, k)}) + extra
    masks = np.zeros((len(sizes), k), dtype=bool)
    for mask, size in zip(masks, sizes):
        mask[rng.choice(k, size, replace=False)] = True
    c_data = 1.0 / draw(st.sampled_from([0.5, 1.0, 4.0]))
    c_prior = draw(st.sampled_from([0.0, 0.5, 1.0])) / draw(st.sampled_from([0.1, 1.0, 10.0]))
    targets = rng.standard_normal(masks.shape) * 10.0 ** rng.uniform(-2, 2, (len(sizes), 1))
    return custom_dictionary(phi), c_data, c_prior, masks, targets


@settings(max_examples=200, deadline=None)
@given(mask_systems())
def test_shared_base_solve_matches_each_rows_system(system):
    """Every row's solution of ``(c_data G + c_prior diag(mask)) x = t`` from
    the dictionary's cached eigendecomposition agrees with a direct solve of
    that row's system within ``1e-12 * cond * max|x|``. ``cond`` is the
    larger condition number of the row's system and of the data Gram
    matrix: the direct solve's error scales with the first, the shared
    base's with the second (adding the prior weight to every diagonal entry
    does not raise it)."""
    dictionary, c_data, c_prior, masks, targets = system
    gram_data = c_data * dictionary.gram
    systems = solver._mask_systems(dictionary, c_data, c_prior, masks)
    x, solved = solver._solve_systems(systems, targets)
    assert solved.all()
    for mask, t, row in zip(masks, targets, x):
        system_matrix = gram_data + np.diag(c_prior * mask)
        expected = np.linalg.solve(system_matrix, t)
        cond = max(np.linalg.cond(system_matrix), np.linalg.cond(gram_data))
        assert np.max(np.abs(row - expected)) <= 1e-12 * cond * np.max(np.abs(expected))


def test_singular_small_systems_are_left_unsolved():
    """On the base ``H = I`` with ``c = -1``, ``I - H[S, S]`` is zero for
    every nonempty ``S``: the stacked small solve fails, each row is solved
    alone, and only the rows with an empty ``S`` come back solved
    (``x = H t``), the others at zero."""
    pos = np.array([[0, 1], [0, 2], [0, 1]])
    live = np.array([[False, False], [True, True], [False, False]])
    small = np.where(live[:, :, None] & live[:, None, :], 0.0, np.eye(2))
    t = np.arange(9.0).reshape(3, 3) + 1.0
    x, solved = solver._solve_systems([(np.arange(3), np.eye(3), -1.0, pos, live, small)], t)
    assert solved.tolist() == [True, False, True]
    assert np.array_equal(x, t * solved[:, None])


def test_singular_base_rows_are_searched_alone(monkeypatch):
    """With a duplicated column the data Gram matrix is singular: rows with
    an empty mask cannot use its inverse and are searched alone from zero,
    while full-mask rows (data Gram plus the prior weight, regular) certify
    in the stacked round."""
    rng = np.random.default_rng(23)
    phi = rng.standard_normal((30, 4))
    phi[:, 1] = phi[:, 0]
    masks = np.array([[False] * 4, [True] * 4] * 3)
    rows = ModeTrackingRows(
        y_residual_base=rng.standard_normal((6, 4)) @ phi.T,
        dictionary=custom_dictionary(phi),
        lambda_prev=rng.standard_normal((6, 4)),
        masks=masks,
        sigma_o_sq=1.0,
        sigma_l_sq=1.0,
        gamma=0.5,
    )
    systems = solver._mask_systems(rows.dictionary, 1.0, 1.0, masks)
    assert [system[0].tolist() for system in systems] == [[1, 3, 5]]  # no base for empty masks
    _, solved = solver._solve_systems(systems, np.ones((6, 4)))
    assert solved.tolist() == masks[:, 0].tolist()
    searched = []
    exact_search = solver._exact_search

    def recording_exact_search(start, origin, weights, gram_big, rhs, mask, *rest):
        searched.append((origin.copy(), mask.copy()))
        return exact_search(start, origin, weights, gram_big, rhs, mask, *rest)

    monkeypatch.setattr(solver, "_exact_search", recording_exact_search)
    result = solve_rows(rows)
    assert len(searched) == 3
    assert all(not mask.any() and np.all(origin == 0.0) for origin, mask in searched)
    assert result.converged.all()
    assert np.all(result.iterations[masks[:, 0]] == 1)
    for i, lam in enumerate(result.lambda_opt):
        assert kkt_residual(rows.problem(i), lam) <= SolverConfig().kkt_tolerance


def test_rows_whose_system_is_singular_are_searched_alone():
    """A zero column off a mask that holds more than half the coordinates
    makes that row's system singular, although ``c_data G + c_prior I`` is
    regular: the row is left out of the shared-base solve and searched from
    zero, which certifies. A ridge point taken from the near-singular small
    system would start the search off the minimum at rounding level."""
    phi = np.array(
        [
            [2.04091912, 0.0, 0.41809885, -0.56776961],
            [-0.45264929, 0.0, -2.01998613, -0.23193238],
            [-0.86521308, 0.0, 0.22578661, -0.35263079],
        ]
    )
    masks = np.array([[True, False, True, True], [True, True, True, False]])
    rows = ModeTrackingRows(
        y_residual_base=np.array([[-1.8243113, 1.07580039, 0.29983581]] * 2),
        dictionary=custom_dictionary(phi),
        lambda_prev=np.array([[0.02425957, 1.54582085, 0.54510552, -0.50522874]] * 2),
        masks=masks,
        sigma_o_sq=0.5,
        sigma_l_sq=0.1,
        beta=0.5,
        gamma=1.0,
    )
    systems = solver._mask_systems(rows.dictionary, 2.0, 5.0, masks)
    assert [system[0].tolist() for system in systems] == [[1]]
    result = solve_rows(rows)
    assert result.converged.all()
    assert result.lambda_opt[0, 1] == 0.0


def repeated_column_problem(seed):
    """A ``beta = 0`` problem whose dictionary repeats its first column."""
    rng = np.random.default_rng(seed)
    problem = random_problem(rng, n_lambda=6, n_pixels=7, beta=0.0, gamma=2.0)
    phi = problem.dictionary.matrix.copy()
    phi[:, 1] = phi[:, 0]
    return dataclasses.replace(problem, dictionary=custom_dictionary(phi))


@settings(max_examples=300, deadline=None)
@given(
    small_problems(min_lambda=2, deficiencies=("repeated-column",), betas=(0.0,)),
    st.booleans(),
)
@example(repeated_column_problem(18), False)  # full support
@example(repeated_column_problem(678), True)  # five of six coordinates on the support
def test_degenerate_solves_are_flagged_never_hidden(problem, warm):
    """With ``beta = 0`` and a repeated column the cost is flat along a null
    direction on the support, and a solve may end uncertified: each result
    must say so, and carry exactly the residual of the point it returns."""
    config = SolverConfig(warm_start=problem.lambda_prev if warm else None)
    result = solve(problem, config)
    assert result.kkt_residual == kkt_residual(problem, result.lambda_opt)
    assert result.converged == (result.kkt_residual <= config.kkt_tolerance)


@pytest.mark.parametrize("warm", [False, True])
def test_a_singular_system_the_search_cannot_leave_ends_at_its_least_squares_point(warm):
    """On the full support with ``beta = 0`` and a repeated column the cost
    is a singular least-squares fit with no l1 coordinate to move along: the
    search certifies the minimum-norm least-squares point of that system."""
    problem = repeated_column_problem(18)
    assert problem.cond_support.mask().all()
    config = SolverConfig(warm_start=problem.lambda_prev if warm else None)
    result = solve(problem, config)
    assert result.converged
    assert result.kkt_residual == kkt_residual(problem, result.lambda_opt)
    phi, y = problem.dictionary.matrix, problem.y_residual_base
    fit = np.linalg.lstsq(phi, y, rcond=None)[0]
    np.testing.assert_allclose(result.lambda_opt, fit, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("seed", [678, 931, 1259, 2390, 2535, 2972, 3011, 3235, 3967])
@pytest.mark.parametrize("warm", [False, True])
def test_singular_pattern_systems_are_solved_by_least_squares(seed, warm):
    """A repeated column makes the Gram matrix singular, and so some sign
    patterns' systems; an LU solve of one returns a point of size 1e15 and
    the search ended uncertified on these draws. Each pattern's
    minimum-norm least-squares point certifies them."""
    problem = repeated_column_problem(seed)
    result = solve(problem, SolverConfig(warm_start=problem.lambda_prev if warm else None))
    assert result.converged
    assert result.kkt_residual == kkt_residual(problem, result.lambda_opt)


@settings(max_examples=200, deadline=None)
@given(small_problems(), st.booleans())
def test_recording_a_trace_changes_no_result(problem, warm):
    config = SolverConfig(warm_start=problem.lambda_prev if warm else None)
    plain = solve(problem, config)
    traced = solve(problem, dataclasses.replace(config, record_trace=True))
    assert plain.lambda_opt.tobytes() == traced.lambda_opt.tobytes()
    for name in ("kkt_residual", "iterations", "converged", "objective"):
        assert getattr(plain, name) == getattr(traced, name)
    assert len(traced.trace) == traced.iterations + 1


def route_stack():
    """A stack over a dictionary with a duplicated column, one row per route
    of :func:`solve_rows`, then the same rows from their solutions: an empty
    mask (singular system, searched from zero), a full mask (certified in
    the stacked round), a mask that certifies there and one that resumes
    from it; the warm-started rows certify at 0 rounds."""
    rng = np.random.default_rng(20)
    phi = rng.standard_normal((30, 4))
    phi[:, 1] = phi[:, 0]
    masks = np.array([[0, 0, 0, 0], [1, 1, 1, 1], [1, 1, 1, 0], [0, 1, 1, 1]], dtype=bool)
    rows = ModeTrackingRows(
        y_residual_base=rng.standard_normal((8, 4)) @ phi.T,
        dictionary=custom_dictionary(phi),
        lambda_prev=rng.standard_normal((8, 4)),
        masks=np.concatenate([masks, masks]),
        sigma_o_sq=1.0,
        sigma_l_sq=1.0,
        gamma=3.0,
    )
    warm = np.zeros((8, 4))
    warm[4:] = [solve(rows.problem(i)).lambda_opt for i in range(4, 8)]
    return rows, warm


def test_traced_stack_solves_as_the_untraced_one_over_every_route():
    rows, warm = route_stack()
    config = SolverConfig(warm_start=warm)
    plain = solve_rows(rows, config)
    traced = solve_rows(rows, dataclasses.replace(config, record_trace=True))
    assert plain.iterations.tolist() == [3, 1, 1, 2, 0, 0, 0, 0]
    assert plain.converged.all() and plain.traces is None
    for name in ("lambda_opt", "kkt_residual", "iterations", "converged"):
        assert getattr(plain, name).tobytes() == getattr(traced, name).tobytes()
    for trace, rounds in zip(traced.traces, plain.iterations):
        assert [row[0] for row in trace] == list(range(rounds + 1))


def test_resumed_rows_do_not_repeat_their_first_round(monkeypatch):
    """A row whose stacked candidate does not certify resumes the search from
    it: the search solves its rounds after the first, and the trace's round 1
    is the stacked candidate with its blocked certificate."""
    rows, warm = route_stack()
    solves, searches = [], []
    pattern_candidate, exact_search = solver._pattern_candidate, solver._exact_search

    def counting_pattern_candidate(*args):
        solves.append(1)
        return pattern_candidate(*args)

    def recording_exact_search(start, origin, weights, gram_big, rhs, mask, *rest):
        before = len(solves)
        found = exact_search(start, origin, weights, gram_big, rhs, mask, *rest)
        searches.append((rest[-1], found[2], len(solves) - before))
        return found

    monkeypatch.setattr(solver, "_pattern_candidate", counting_pattern_candidate)
    monkeypatch.setattr(solver, "_exact_search", recording_exact_search)
    result = solve_rows(rows, SolverConfig(warm_start=warm, record_trace=True))
    resumed = [search for search in searches if search[0] and search[1]]
    assert len(resumed) == 1 and result.iterations[3] == 2  # row 3 resumes
    (cand, kkt), rounds, calls = resumed[0]
    assert rounds == 2 and calls == rounds - 1
    assert result.traces[3][1] == (1, evaluate_cost(rows.problem(3), cand), kkt)
    assert sum(calls for first, _, calls in searches if first is None) == 3  # row 0, from zero


def test_searched_rows_reuse_the_stacked_warm_start_certificate(monkeypatch):
    """The stack certifies every warm start and first candidate in one call
    each; a searched row then certifies only the rounds it solves itself."""
    rows, warm = route_stack()
    certified, solves = [], []
    kkt_gram, pattern_candidate = solver._kkt_gram, solver._pattern_candidate

    def counting_kkt_gram(*args):
        certified.append(len(args[-1]))
        return kkt_gram(*args)

    def counting_pattern_candidate(*args):
        solves.append(1)
        return pattern_candidate(*args)

    monkeypatch.setattr(solver, "_kkt_gram", counting_kkt_gram)
    monkeypatch.setattr(solver, "_pattern_candidate", counting_pattern_candidate)
    result = solve_rows(rows, SolverConfig(warm_start=warm))
    assert result.iterations.tolist() == [3, 1, 1, 2, 0, 0, 0, 0]  # rows 0, 3 to 7 searched
    assert certified[:2] == [8, 8]
    assert len(certified) == 2 + len(solves) and set(certified[2:]) <= {1}


def test_stacked_solve_checks_the_stack_once():
    rng = np.random.default_rng(22)
    phi = rng.standard_normal((10, 3))
    good = dict(
        y_residual_base=np.zeros((2, 10)),
        dictionary=custom_dictionary(phi),
        lambda_prev=np.zeros((2, 3)),
        masks=np.array([[True, True, True], [False, False, False]]),
        sigma_o_sq=1.0,
        sigma_l_sq=1.0,
    )
    y = np.zeros((2, 10))
    y[1, 4] = np.nan
    with pytest.raises(ValueError, match="problem data must be finite"):
        ModeTrackingRows(**{**good, "y_residual_base": y})
    with pytest.raises(ValueError, match="length"):
        ModeTrackingRows(**{**good, "lambda_prev": np.zeros((3, 3))})
    for masks in (np.ones((2, 4)), np.ones((2, 2)), np.ones(3), np.ones((2, 3, 1))):
        with pytest.raises(ValueError, match="cond_support ambient size"):
            ModeTrackingRows(**{**good, "masks": masks.astype(bool)})
    with pytest.raises(ValueError, match="length"):  # one mask per row
        ModeTrackingRows(**{**good, "masks": np.ones((3, 3), dtype=bool)})
    with pytest.raises(ValueError, match="warm_start"):
        solve_rows(ModeTrackingRows(**good), SolverConfig(warm_start=np.zeros(3)))
    shared = ModeTrackingRows(**{**good, "y_residual_base": np.zeros((1, 10)), "rois": [0, 0]})
    assert shared.rois.tolist() == [0, 0]
    with pytest.raises(ValueError, match="length"):  # one ROI per problem
        ModeTrackingRows(**{**good, "rois": np.array([0, 1, 1])})
    for rois in ([0, 2], [-1, 0], [0.0, 1.0]):
        with pytest.raises(ValueError, match="rois must index rows of y_residual_base"):
            ModeTrackingRows(**{**good, "rois": np.array(rois)})
    for key in ("beta", "gamma"):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            ModeTrackingRows(**{**good, key: math.inf})
    for key in ("sigma_o_sq", "sigma_l_sq"):
        with pytest.raises(ValueError, match="positive and finite"):
            ModeTrackingRows(**{**good, key: math.inf})
    empty = ModeTrackingRows(**{**good, "y_residual_base": np.zeros((0, 10)),
                                "lambda_prev": np.zeros((0, 3)), "masks": np.zeros((0, 3))})
    assert solve_rows(empty).lambda_opt.shape == (0, 3)


def test_kkt_residual_behaviour():
    rng = np.random.default_rng(8)
    problem = random_problem(rng, n_lambda=4, support_size=2)
    result = solve(problem)
    assert result.kkt_residual <= 1e-6

    # a random non-optimal point scores strictly positive
    assert kkt_residual(problem, result.lambda_opt + 0.5) > 1e-3

    # zero is optimal iff the data gradient fits inside the l1 slack
    tiny = ModeTrackingProblem(
        y_residual_base=problem.y_residual_base * 1e-6,
        dictionary=problem.dictionary,
        lambda_prev=np.zeros(4),
        cond_support=SupportSet.from_indices([], 4),
        sigma_o_sq=1.0,
        sigma_l_sq=1.0,
        gamma=1.0,
    )
    grad0, _ = smooth_gradient(tiny, np.zeros(4))
    assert np.max(np.abs(grad0)) < 1.0
    assert kkt_residual(tiny, np.zeros(4)) == 0.0


def test_points_are_checked_against_the_problem():
    rng = np.random.default_rng(24)
    problem = random_problem(rng, n_lambda=4, support_size=2)
    with_outliers = dataclasses.replace(problem, gamma_outlier=0.5)
    for f in (evaluate_cost, kkt_residual, smooth_gradient):
        with pytest.raises(ValueError, match="outlier vector given but gamma_outlier is unset"):
            f(problem, np.zeros(4), np.zeros(30))
        for lam in (np.zeros(3), np.zeros(5), np.zeros((1, 4)), 0.0):
            with pytest.raises(ValueError, match="lam length must match the dictionary columns"):
                f(problem, lam)
        for outlier in (np.zeros(29), np.zeros(1)):
            with pytest.raises(ValueError, match="outlier length must match the dictionary rows"):
                f(with_outliers, np.zeros(4), outlier)


def test_warm_start_equivalence_and_short_circuit():
    rng = np.random.default_rng(9)
    problem = random_problem(rng, n_lambda=6, support_size=2, gamma=0.4)
    cold = solve(problem)
    warm = solve(problem, SolverConfig(warm_start=rng.standard_normal(6)))
    assert abs(cold.objective - warm.objective) <= 1e-8

    # warm-starting at the solution certifies immediately, bit-identically
    again = solve(problem, SolverConfig(warm_start=cold.lambda_opt))
    assert again.iterations == 0
    assert np.array_equal(again.lambda_opt, cold.lambda_opt)


def test_scaling_consistency():
    rng = np.random.default_rng(11)
    base = random_problem(rng, n_lambda=5, support_size=2, gamma=0.6)
    scaled = ModeTrackingProblem(
        y_residual_base=base.y_residual_base,
        dictionary=base.dictionary,
        lambda_prev=base.lambda_prev,
        cond_support=base.cond_support,
        sigma_o_sq=base.sigma_o_sq * 3.0,
        sigma_l_sq=base.sigma_l_sq * 3.0,
        beta=base.beta,
        gamma=base.gamma / 3.0,
    )
    a = solve(base)
    b = solve(scaled, SolverConfig(kkt_tolerance=1e-8))
    assert np.allclose(a.lambda_opt, b.lambda_opt, atol=1e-6)
    assert a.objective == pytest.approx(3.0 * b.objective, rel=1e-6)


def test_unconverged_reports_flag_not_exception():
    rng = np.random.default_rng(12)
    problem = random_problem(rng, n_lambda=8, n_pixels=60, support_size=3)
    result = solve(problem, SolverConfig(kkt_tolerance=1e-300))
    assert not result.converged


def test_trace_holds_start_and_each_iteration():
    rng = np.random.default_rng(13)
    problem = random_problem(rng, n_lambda=4, support_size=2)
    result = solve(problem, SolverConfig(record_trace=True))
    # one row for the warm start, then one per round or iteration
    assert len(result.trace) == result.iterations + 1


# ------------------------------------------------------------- outlier solve


def test_outlier_free_instance_matches_plain_solve():
    rng = np.random.default_rng(14)
    problem = random_problem(rng, n_lambda=4, support_size=2, gamma=0.4)
    plain = solve(problem)
    grad, _ = smooth_gradient(problem, plain.lambda_opt)
    resid = problem.y_residual_base - problem.dictionary.matrix @ plain.lambda_opt
    high = float(np.max(np.abs(resid))) / problem.sigma_o_sq * 2.0 + 1.0
    joint_problem = ModeTrackingProblem(
        y_residual_base=problem.y_residual_base,
        dictionary=problem.dictionary,
        lambda_prev=problem.lambda_prev,
        cond_support=problem.cond_support,
        sigma_o_sq=problem.sigma_o_sq,
        sigma_l_sq=problem.sigma_l_sq,
        beta=problem.beta,
        gamma=problem.gamma,
        gamma_outlier=high,
    )
    joint = solve_with_outliers(joint_problem)
    assert joint.converged
    assert np.all(joint.outlier_opt == 0.0)
    assert np.linalg.norm(joint.lambda_opt - plain.lambda_opt) <= 1e-6 * max(
        1.0, float(np.linalg.norm(plain.lambda_opt))
    )


def test_outlier_spike_recovery_with_shrinkage():
    """On a decoupled instance (dictionary zero at the spike pixels) the O
    block is an exact diagonal prox, so the shrinkage bound is sharp."""
    rng = np.random.default_rng(15)
    n_pixels, n_lambda = 80, 4
    phi = rng.standard_normal((n_pixels, n_lambda))
    lam_true = rng.standard_normal(n_lambda)
    spikes = rng.choice(n_pixels, size=4, replace=False)
    phi[spikes] = 0.0
    magnitudes = 200.0 * rng.choice([-1.0, 1.0], size=4)
    y = phi @ lam_true
    y[spikes] += magnitudes
    gamma_out = 100.0  # gamma' sigma_o_sq = half the spike magnitude
    problem = ModeTrackingProblem(
        y_residual_base=y,
        dictionary=custom_dictionary(phi),
        lambda_prev=lam_true,
        cond_support=full_support(n_lambda),
        sigma_o_sq=1.0,
        sigma_l_sq=1e6,  # negligible prior: outlier structure drives the fit
        gamma=0.0,
        gamma_outlier=gamma_out,
    )
    result = solve_with_outliers(problem)
    assert result.converged
    found = np.flatnonzero(result.outlier_opt)
    assert np.array_equal(np.sort(found), np.sort(spikes))
    # each recovered spike sits within the soft-threshold shrinkage of truth
    for idx, mag in zip(spikes, magnitudes):
        assert abs(result.outlier_opt[idx] - mag) <= gamma_out * problem.sigma_o_sq + 1e-3


@settings(max_examples=100, deadline=None)
@given(small_problems(max_lambda=3, max_pixels=4), WEIGHTS, st.booleans())
def test_solve_with_outliers_certifies_the_enumerated_minimum(base, gamma_outlier, warm):
    # o = (gamma / gamma_outlier) u turns the joint cost into the plain cost
    # over (lam, u) with dictionary [Phi, (gamma / gamma_outlier) I] and the
    # single l1 weight gamma
    problem = dataclasses.replace(base, gamma_outlier=gamma_outlier)
    config = SolverConfig(warm_start=problem.lambda_prev if warm else None)
    result = solve_with_outliers(problem, config)
    m = problem.dictionary.n_pixels
    _, best = sign_pattern_minimum(
        np.hstack([problem.dictionary.matrix, problem.gamma / gamma_outlier * np.eye(m)]),
        problem.y_residual_base,
        np.concatenate([problem.lambda_prev, np.zeros(m)]),
        np.concatenate([problem.cond_support.mask(), np.zeros(m, dtype=bool)]),
        problem.sigma_o_sq,
        problem.sigma_l_sq,
        problem.beta,
        problem.gamma,
    )
    assert result.converged
    assert result.kkt_residual <= config.kkt_tolerance
    assert abs(result.objective - best) <= 1e-9


def test_outlier_solve_certifies_on_the_legendre_dictionary():
    """The 32 x 32 bumps template with the d = 20 dictionary (41 columns,
    1024 pixels) and 20 spikes of 200 grey levels, all found exactly."""
    template = harness.make_template("bumps", 32, 32, seed=0)
    dictionary = build_dictionary(template, 20)
    n, m = dictionary.n_lambda, dictionary.n_pixels
    rng = np.random.default_rng(0)
    support = SupportSet.from_indices(rng.choice(n, size=6, replace=False), n)
    lam_true = np.where(support.mask(), rng.normal(0.0, 0.1, n), 0.0)
    spikes = rng.choice(m, size=20, replace=False)
    y = dictionary.matrix @ lam_true + rng.normal(0.0, 1.0, m)
    y[spikes] += 200.0 * rng.choice([-1.0, 1.0], size=20)
    lam_prev = lam_true + 0.1 * rng.standard_normal(n) * support.mask()
    problem = ModeTrackingProblem(
        y_residual_base=y,
        dictionary=dictionary,
        lambda_prev=lam_prev,
        cond_support=support,
        sigma_o_sq=1.0,
        sigma_l_sq=0.01,
        beta=0.4,
        gamma=0.7,
        gamma_outlier=20.0,
    )
    result = solve_with_outliers(problem, SolverConfig(warm_start=lam_prev))
    assert result.converged
    assert result.kkt_residual == kkt_residual(problem, result.lambda_opt, result.outlier_opt)
    assert np.array_equal(np.flatnonzero(result.outlier_opt), np.sort(spikes))


def test_outlier_search_zeroes_coordinates_that_cross_zero_together():
    # columns 0 and 1 are equal, so from the warm start their coefficients
    # move in step and cross zero at the same point of a line search; the
    # one not zeroed there is left at rounding level and must not stall it
    phi = np.array(
        [
            [0.65134365, 0.65134365, -1.74329793],
            [0.57356324, 0.57356324, -1.1790992],
            [-0.44673852, -0.44673852, 2.08670979],
        ]
    )
    problem = ModeTrackingProblem(
        y_residual_base=np.array([-2.64458068, -1.95126687, 2.72402643]),
        dictionary=custom_dictionary(phi),
        lambda_prev=np.array([1.01991889, 1.16696462, 1.040224]),
        cond_support=SupportSet.from_indices([], 3),
        sigma_o_sq=1.0,
        sigma_l_sq=1.0,
        beta=0.5,
        gamma=0.16062869,
        gamma_outlier=0.16062869,
    )
    result = solve_with_outliers(problem, SolverConfig(warm_start=problem.lambda_prev))
    _, best = sign_pattern_minimum(
        np.hstack([phi, np.eye(3)]),
        problem.y_residual_base,
        np.zeros(6),
        np.zeros(6, dtype=bool),
        1.0,
        1.0,
        0.5,
        problem.gamma,
    )
    assert result.converged
    assert abs(result.objective - best) <= 1e-9


def test_outlier_warm_start_length_is_checked():
    rng = np.random.default_rng(21)
    problem = random_problem(rng, n_lambda=4, gamma_outlier=1.0)
    with pytest.raises(ValueError, match="warm_start"):
        solve_with_outliers(problem, SolverConfig(warm_start=np.zeros(5)))
    with pytest.raises(ValueError, match="solve_with_outliers requires gamma_outlier"):
        solve_with_outliers(dataclasses.replace(problem, gamma_outlier=None))


def test_joint_cost_midpoint_convexity():
    rng = np.random.default_rng(16)
    problem = random_problem(rng, n_lambda=4, support_size=2, gamma_outlier=0.7)
    for _ in range(50):
        l1, l2 = rng.standard_normal(4), rng.standard_normal(4)
        o1, o2 = rng.standard_normal(30), rng.standard_normal(30)
        mid = evaluate_cost(problem, (l1 + l2) / 2, (o1 + o2) / 2)
        avg = 0.5 * (evaluate_cost(problem, l1, o1) + evaluate_cost(problem, l2, o2))
        assert mid <= avg + 1e-10


# ------------------------------------------------------------- support oracle


def test_ssc_oracle_even_odds_reduces_to_best_support():
    rng = np.random.default_rng(17)
    problem = random_problem(rng, n_lambda=4, n_pixels=20, support_size=2, gamma=0.0)
    result = brute_force_ssc_oracle(problem, 0.5, 0.5, max_total_change=4)
    # with log-odds zero, adding helpful indices is free: exhaustive check
    best = None
    for added in _all_subsets(problem.cond_support.complement().indices):
        for removed in _all_subsets(problem.cond_support.indices):
            support = (set(problem.cond_support.indices) | set(added)) - set(removed)
            lam = _restricted_smooth_min(problem, sorted(support))
            value = _smooth_value(problem, lam)
            if best is None or value < best - 1e-12:
                best = value
    assert result.objective == pytest.approx(best, rel=1e-9)


def _all_subsets(indices):
    import itertools

    for r in range(len(indices) + 1):
        yield from itertools.combinations(indices, r)


def _restricted_smooth_min(problem, support):
    support = np.array(sorted(support), dtype=int)
    n = problem.dictionary.n_lambda
    lam = np.zeros(n)
    if support.size == 0:
        return lam
    phi = problem.dictionary.matrix[:, support]
    on_prev = problem.cond_support.mask()[support].astype(float)
    lhs = phi.T @ phi / problem.sigma_o_sq + np.diag(
        problem.beta / problem.sigma_l_sq * on_prev
    )
    rhs = phi.T @ problem.y_residual_base / problem.sigma_o_sq + (
        problem.beta / problem.sigma_l_sq * on_prev * problem.lambda_prev[support]
    )
    lam[support] = np.linalg.solve(lhs, rhs)
    return lam


def _smooth_value(problem, lam):
    r = problem.y_residual_base - problem.dictionary.matrix @ lam
    d = (lam - problem.lambda_prev)[problem.cond_support.mask()]
    return 0.5 * float(r @ r) / problem.sigma_o_sq + 0.5 * problem.beta * float(
        d @ d
    ) / problem.sigma_l_sq


def test_ssc_oracle_no_change_equals_restricted_ridge():
    rng = np.random.default_rng(18)
    problem = random_problem(rng, n_lambda=5, support_size=3, gamma=0.0)
    result = brute_force_ssc_oracle(problem, 0.1, 0.2, max_total_change=0)
    assert len(result.added) == 0 and len(result.removed) == 0
    ref = _restricted_smooth_min(problem, problem.cond_support.indices)
    assert np.allclose(result.lambda_opt, ref, atol=1e-10)


def test_ssc_oracle_dominates_heuristics():
    rng = np.random.default_rng(19)
    for _ in range(10):
        problem = random_problem(rng, n_lambda=5, support_size=2, gamma=0.0)
        p_a, p_r = 0.1, 0.3
        result = brute_force_ssc_oracle(problem, p_a, p_r, max_total_change=3)
        # any heuristic (lam, A, R) must score at least the oracle objective
        for _ in range(20):
            n_add = int(rng.integers(0, 3))
            comp = list(problem.cond_support.complement().indices)
            inside = list(problem.cond_support.indices)
            added = rng.choice(comp, size=min(n_add, len(comp)), replace=False)
            n_rem = int(rng.integers(0, min(3 - n_add, len(inside)) + 1))
            removed = rng.choice(inside, size=n_rem, replace=False)
            support = (set(inside) | set(added)) - set(removed)
            lam = _restricted_smooth_min(problem, sorted(support))
            value = _smooth_value(problem, lam)
            value -= len(added) * math.log(p_a / (1 - p_a))
            value -= len(removed) * math.log(p_r / (1 - p_r))
            assert value >= result.objective - 1e-9


def _lstsq_smooth_min(problem, support):
    """The smooth part's minimizer on ``support`` as one least-squares fit of
    the stacked data and prior rows; its objective is the minimum also when
    the restricted system is singular."""
    n, on = problem.dictionary.n_lambda, problem.cond_support.mask()
    prior = [i for i in support if on[i]]
    data, scale = 1.0 / math.sqrt(problem.sigma_o_sq), math.sqrt(problem.beta / problem.sigma_l_sq)
    design = np.vstack(
        [data * problem.dictionary.matrix[:, support], scale * np.eye(n)[np.ix_(prior, support)]]
    )
    target = np.concatenate([data * problem.y_residual_base, scale * problem.lambda_prev[prior]])
    lam = np.zeros(n)
    lam[support] = np.linalg.lstsq(design, target, rcond=None)[0]
    return lam


ODDS = st.sampled_from([0.0, 0.05, 0.3, 0.7])


@settings(max_examples=150, deadline=None)
@given(
    small_problems(max_lambda=5, deficiencies=("none", "repeated-column"), betas=(0.0, 1.0)),
    ODDS,
    ODDS,
    st.integers(0, 5),
)
@example(repeated_column_problem(18), 0.0, 0.0, 0)  # a singular system on the full support
@example(repeated_column_problem(678), 0.0, 0.0, 0)  # and on five of six coordinates
def test_ssc_oracle_matches_an_exhaustive_lstsq_search(problem, p_a, p_r, max_total_change):
    """Every support within the change budget, solved by least squares: the
    oracle's objective is their best, also when a repeated dictionary column
    makes restricted systems singular."""
    result = brute_force_ssc_oracle(problem, p_a, p_r, max_total_change)
    inside = list(problem.cond_support.indices)
    best = math.inf
    for added in _all_subsets(problem.cond_support.complement().indices):
        for removed in _all_subsets(inside):
            n_add, n_rem = len(added), len(removed)
            if n_add + n_rem > max_total_change or (n_add and not p_a) or (n_rem and not p_r):
                continue
            support = sorted((set(inside) | set(added)) - set(removed))
            value = _smooth_value(problem, _lstsq_smooth_min(problem, support))
            value -= n_add * math.log(p_a / (1 - p_a)) if n_add else 0.0
            value -= n_rem * math.log(p_r / (1 - p_r)) if n_rem else 0.0
            best = min(best, value)
    assert result.objective == pytest.approx(best, rel=1e-8, abs=1e-12)


def test_ssc_oracle_guard():
    rng = np.random.default_rng(20)
    problem = random_problem(rng, n_lambda=13, n_pixels=40, support_size=2)
    with pytest.raises(ValueError, match="n_lambda"):
        brute_force_ssc_oracle(problem, 0.1, 0.1, max_total_change=1)
    small = random_problem(rng, n_lambda=4, support_size=2)
    for p_a, p_r in ((1.0, 0.1), (0.1, 1.0), (-0.1, 0.1), (0.1, math.nan)):
        with pytest.raises(ValueError, match=r"p_a and p_r must lie in \[0, 1\)"):
            brute_force_ssc_oracle(small, p_a, p_r, max_total_change=1)
    with pytest.raises(ValueError, match="max_total_change must be nonnegative"):
        brute_force_ssc_oracle(small, 0.1, 0.1, max_total_change=-1)
