"""State types and transition kernels: hand values, normalization, sampling
statistics, and degenerate zero-variance conventions."""

import math
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import gaussian_log_density
from pafimocs import fileio
from pafimocs.models import (
    NEG_INF,
    ZERO_VAR_ATOL,
    FullState,
    ModelParams,
    MotionState,
    SupportSet,
    coeffs_on_axis,
    derive_pr_stationary,
    sample_coeff_transition,
    sample_motion_transition,
    sample_support_rows,
    sample_support_transition,
    sample_walk_rows,
    stp_coeffs_rows,
    stp_support_log,
    stp_support_rows,
)


def make_params(**kw):
    base = dict(
        n_lambda=5,
        s_expected=2,
        p_a=0.2,
        p_r=0.3,
        sigma_l_sq=1.0,
        sigma_u=(1.0, 1.0, 1.0),
        sigma_o_sq=1.0,
    )
    base.update(kw)
    return ModelParams(**base)


def all_supports(n):
    for size in range(n + 1):
        for idx in combinations(range(n), size):
            yield SupportSet(idx, n)


# ---------------------------------------------------------------- SupportSet


def test_support_set_basics():
    s = SupportSet.from_indices([3, 1, 3, 0], 5)
    assert s.indices == (0, 1, 3)
    assert len(s) == 3
    assert np.array_equal(s.mask(), [True, True, False, True, False])
    assert s.complement().indices == (2, 4)


def test_support_mask_is_built_once_and_read_only():
    s = SupportSet.from_indices([1, 3], 5)
    assert s.mask() is s.mask()
    with pytest.raises(ValueError):
        s.mask()[0] = True
    assert np.array_equal(SupportSet((), 3).mask(), [False, False, False])


def test_support_set_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        SupportSet((1, 1), 4)
    with pytest.raises(ValueError, match="outside"):
        SupportSet((4,), 4)
    with pytest.raises(ValueError, match="ambient_size must be >= 1"):
        SupportSet((), 0)


def test_full_state_checks_length():
    with pytest.raises(ValueError, match="ambient"):
        FullState(MotionState(0, 0, 1), SupportSet((0,), 3), np.zeros(4))


# ---------------------------------------------------------------- ModelParams


def test_params_validation():
    with pytest.raises(ValueError, match="n_lambda must be >= 1"):
        make_params(n_lambda=0)
    with pytest.raises(ValueError, match="p_a"):
        make_params(p_a=0.5)
    with pytest.raises(ValueError, match="p_r"):
        make_params(p_r=-0.1)
    with pytest.raises(ValueError, match="s_expected"):
        make_params(s_expected=6)
    with pytest.raises(ValueError, match="sigma_u"):
        make_params(sigma_u=(1.0, -1.0, 0.0))
    with pytest.raises(ValueError, match="variances"):
        make_params(sigma_o_sq=-1.0)
    # NaN fails every range check
    with pytest.raises(ValueError, match="variances"):
        make_params(sigma_l_sq=math.nan)
    with pytest.raises(ValueError, match="sigma_u"):
        make_params(sigma_u=(1.0, math.nan, 1.0))
    # an infinite scale renders non-finite frames, so it fails at load too
    for key in ("sigma_o_sq", "sigma_l_sq"):
        with pytest.raises(ValueError, match="variances must be nonnegative and finite"):
            make_params(**{key: math.inf})
    for k in range(3):
        sigma_u = [0.5, 0.5, 0.0]
        sigma_u[k] = math.inf
        with pytest.raises(ValueError, match="sigma_u must be three nonnegative finite"):
            make_params(sigma_u=tuple(sigma_u))


def test_negative_zero_variances_walk_as_zero():
    # sqrt(-0.0) is -0.0, which Generator.normal refuses as a scale
    params = make_params(sigma_l_sq=-0.0, sigma_u=(-0.0, 0.5, -0.0), sigma_o_sq=-0.0)
    assert math.copysign(1.0, params.sigma_l_sq) == 1.0
    assert math.copysign(1.0, params.sigma_o_sq) == 1.0
    assert [math.copysign(1.0, v) for v in params.sigma_u] == [1.0, 1.0, 1.0]
    prev = np.array([1.5, 0.0, -2.0, 0.25, 3.0])
    full = SupportSet(tuple(range(5)), 5)
    walked = sample_coeff_transition(prev, full, params, np.random.default_rng(0))
    assert np.array_equal(walked, prev)
    moved = sample_motion_transition(MotionState(1.0, 2.0, 1.1), params, np.random.default_rng(0))
    assert (moved.u_x, moved.s) == (1.0, 1.1) and moved.u_y != 2.0


def test_params_config_round_trip(tmp_path):
    params = make_params(sigma_u=(0.5, 0.25, 0.0))
    path = tmp_path / "params.cfg"
    fileio.write_kv(path, params.to_config())
    assert ModelParams.from_config(fileio.read_kv(path)) == params
    with pytest.raises(ValueError, match="missing keys"):
        ModelParams.from_config({"n_lambda": 5})


# ------------------------------------------------------ coefficient axis


def test_coeffs_on_axis_cuts_or_pads_the_last_axis():
    rows = np.array([[1.0, -0.0, 3.0], [4.0, 5.0, -6.0]])
    assert coeffs_on_axis(rows, 2).tobytes() == rows[:, :2].copy().tobytes()
    padded = coeffs_on_axis(rows, 5)
    assert padded.tobytes() == np.hstack([rows, np.zeros((2, 2))]).tobytes()  # -0.0 kept
    assert coeffs_on_axis(rows, 3).tobytes() == rows.tobytes()
    assert coeffs_on_axis([2.0], 3).tolist() == [2.0, 0.0, 0.0]


def test_state_on_axis_keeps_the_prefix_of_its_support():
    state = FullState(MotionState(1.0, 2.0, 1.1), SupportSet((0, 2), 3), [7.0, 0.0, -8.0])
    wide = state.on_axis(7)
    assert wide.support == SupportSet((0, 2), 7) and wide.motion == state.motion
    assert wide.coeffs.tolist() == [7.0, 0.0, -8.0, 0.0, 0.0, 0.0, 0.0]
    narrow = state.on_axis(1)
    assert narrow.support == SupportSet((0,), 1) and narrow.coeffs.tolist() == [7.0]
    assert wide.on_axis(3).coeffs.tobytes() == state.coeffs.tobytes()


def test_params_on_axis_caps_s_expected():
    params = make_params(n_lambda=7, s_expected=5, p_r=0.012)
    smaller = params.on_axis(3)
    assert (smaller.n_lambda, smaller.s_expected) == (3, 3)
    assert smaller == make_params(n_lambda=3, s_expected=3, p_r=0.012)
    wider = smaller.on_axis(41)
    assert (wider.n_lambda, wider.s_expected) == (41, 3)  # a cap is not undone
    assert params.on_axis(7) == params


# ---------------------------------------------------- stationary removal rate


def test_derive_pr_stationary_values():
    assert derive_pr_stationary(0.03, 5, 41) == 0.216
    assert derive_pr_stationary(0.0, 5, 41) == 0.0
    assert derive_pr_stationary(0.06, 20, 41) == pytest.approx(0.063, rel=1e-12)


def test_derive_pr_stationary_errors():
    with pytest.raises(ValueError):
        derive_pr_stationary(0.03, 0, 41)
    with pytest.raises(ValueError):
        derive_pr_stationary(-0.01, 5, 41)
    for p_a in (math.nan, math.inf):  # inf * 0 would be NaN at s = n_lambda
        for s in (5, 41):
            with pytest.raises(ValueError, match="p_a must be nonnegative and finite"):
                derive_pr_stationary(p_a, s, 41)
    with pytest.raises(ValueError, match="not a probability"):
        derive_pr_stationary(0.4, 1, 41)


# ------------------------------------------------------- support transitions


def test_sample_support_no_change_when_frozen():
    params = make_params(p_a=0.0, p_r=0.0)
    prev = SupportSet.from_indices([1, 3], 5)
    rng = np.random.default_rng(0)
    for _ in range(10):
        assert sample_support_transition(prev, params, rng).indices == (1, 3)


def test_sample_support_full_swap():
    # boundary probabilities exceed the ModelParams cap, so duck-type them
    params = SimpleNamespace(n_lambda=4, p_a=1.0, p_r=1.0)
    prev = SupportSet.from_indices([1], 4)
    new = sample_support_transition(prev, params, np.random.default_rng(0))
    assert new.indices == (0, 2, 3)


def test_sample_support_single_step_mean():
    params = make_params(n_lambda=41, s_expected=5, p_a=0.03, p_r=0.216)
    prev = SupportSet.from_indices(range(5), 41)
    rng = np.random.default_rng(7)
    n = 100_000  # one stream listed n times: row k takes the k-th move's draws
    moves = sample_support_rows(np.tile(prev.mask(), (n, 1)), params, [rng] * n)
    assert 4.95 <= np.count_nonzero(moves) / n <= 5.05


def test_support_chain_stationary_mean():
    p_a = 0.03
    p_r = derive_pr_stationary(p_a, 5, 41)
    params = make_params(n_lambda=41, s_expected=5, p_a=p_a, p_r=p_r)
    support = SupportSet.from_indices(range(5), 41)
    rng = np.random.default_rng(1)
    total = 0
    n_steps = 100_000
    for _ in range(n_steps):
        support = sample_support_transition(support, params, rng)
        total += len(support)
    assert abs(total / n_steps - 5.0) <= 0.05


def test_stp_support_hand_values():
    params = make_params(n_lambda=2, s_expected=1, p_a=0.2, p_r=0.3)
    one = SupportSet.from_indices([0], 2)
    both = SupportSet.from_indices([0, 1], 2)
    assert stp_support_log(one, one, params) == pytest.approx(math.log(0.56), abs=1e-14)
    assert stp_support_log(both, one, params) == pytest.approx(math.log(0.14), abs=1e-14)


def test_stp_support_checks_the_mask_shapes():
    params = make_params()
    five, four = np.zeros((2, 5), dtype=bool), np.zeros((2, 4), dtype=bool)
    with pytest.raises(ValueError, match="support sets live in different ambient sizes"):
        stp_support_rows(five, four, params)
    with pytest.raises(ValueError, match="support ambient size does not match params.n_lambda"):
        stp_support_rows(four, four, params)


def test_stp_support_zero_probability_sentinel():
    params = make_params(p_a=0.0, p_r=0.0)
    prev = SupportSet.from_indices([1], 5)
    grown = SupportSet.from_indices([1, 2], 5)
    assert stp_support_log(grown, prev, params) == NEG_INF
    assert stp_support_log(prev, prev, params) == 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_stp_support_normalizes(n):
    rng = np.random.default_rng(n)
    params = make_params(n_lambda=n, s_expected=1, p_a=0.17, p_r=0.31)
    for _ in range(5):
        prev = SupportSet.from_indices(
            rng.choice(n, size=rng.integers(0, n + 1), replace=False), n
        )
        total = sum(
            math.exp(stp_support_log(new, prev, params)) for new in all_supports(n)
        )
        assert total == pytest.approx(1.0, abs=1e-10)


def test_sample_support_frequency_matches_stp():
    """Empirical frequency of one fixed transition vs its log-probability."""
    params = make_params(n_lambda=4, s_expected=2, p_a=0.2, p_r=0.3)
    prev = SupportSet.from_indices([0, 1], 4)
    target = SupportSet.from_indices([0, 2], 4)
    p = math.exp(stp_support_log(target, prev, params))
    rng = np.random.default_rng(11)
    n = 1_000_000
    # one stream listed n times: row k takes the k-th move's draws
    moves = sample_support_rows(np.tile(prev.mask(), (n, 1)), params, [rng] * n)
    hits = int(np.count_nonzero(np.all(moves == target.mask(), axis=1)))
    se = math.sqrt(p * (1.0 - p) / n)
    assert abs(hits / n - p) <= 3.0 * se


# --------------------------------------------------------- coefficient walk


def test_sample_coeff_restriction_and_zeros():
    params = make_params(n_lambda=3, s_expected=2, sigma_l_sq=0.0)
    support = SupportSet.from_indices([0, 2], 3)
    new = sample_coeff_transition(
        np.array([1.0, 2.0, 3.0]), support, params, np.random.default_rng(0)
    )
    assert np.array_equal(new, [1.0, 0.0, 3.0])

    empty = SupportSet.from_indices([], 3)
    out = sample_coeff_transition(
        np.array([1.0, 2.0, 3.0]), empty, params, np.random.default_rng(0)
    )
    assert np.array_equal(out, np.zeros(3))


def test_sample_coeff_checks_its_lengths():
    params, rng = make_params(), np.random.default_rng(0)
    with pytest.raises(ValueError, match="prev coefficient vector has wrong length"):
        sample_coeff_transition(np.zeros(4), SupportSet((4,), 5), params, rng)
    with pytest.raises(ValueError, match="support ambient size does not match params.n_lambda"):
        sample_coeff_transition(np.zeros(5), SupportSet((0,), 3), params, rng)


def test_sample_coeff_bitwise_zero_off_support():
    params = make_params(sigma_l_sq=0.5)
    rng = np.random.default_rng(2)
    for _ in range(50):
        support = SupportSet.from_indices(
            rng.choice(5, size=rng.integers(0, 6), replace=False), 5
        )
        prev = rng.standard_normal(5)
        new = sample_coeff_transition(prev, support, params, rng)
        off = ~support.mask()
        assert np.all(new[off] == 0.0)


def test_sample_coeff_variance():
    params = make_params(n_lambda=2, s_expected=1, sigma_l_sq=0.04)
    support = SupportSet.from_indices([0], 2)
    prev = np.array([1.0, 0.0])
    rng = np.random.default_rng(3)
    draws = np.array(
        [sample_coeff_transition(prev, support, params, rng)[0] for _ in range(100_000)]
    )
    assert np.var(draws - 1.0) == pytest.approx(0.04, rel=0.02)


def coeff_walk_row(new, prev, support, params):
    """The coefficient walk density of one row, through the stacked function."""
    return float(stp_coeffs_rows(new[None], prev[None], support.mask()[None], params)[0])


def test_stp_coeffs_hand_values():
    params = make_params(n_lambda=3, s_expected=3, sigma_l_sq=1.0)
    support = SupportSet.from_indices([0, 1, 2], 3)
    peak = np.array([0.3, -0.2, 1.0])
    assert coeff_walk_row(peak, peak, support, params) == pytest.approx(
        -1.5 * math.log(2.0 * math.pi), abs=1e-14
    )

    empty = SupportSet.from_indices([], 3)
    assert coeff_walk_row(np.zeros(3), peak, empty, params) == 0.0

    params1 = make_params(n_lambda=3, s_expected=1, sigma_l_sq=4.0)
    single = SupportSet.from_indices([1], 3)
    value = coeff_walk_row(
        np.array([0.0, 2.0, 0.0]), np.zeros(3), single, params1
    )
    assert value == pytest.approx(-0.5 * math.log(8.0 * math.pi) - 0.5, abs=1e-14)


def test_stp_coeffs_rejects_mass_off_support():
    params = make_params(n_lambda=3, s_expected=1)
    support = SupportSet.from_indices([0], 3)
    with pytest.raises(ValueError, match="off the support"):
        coeff_walk_row(np.array([1.0, 0.1, 0.0]), np.zeros(3), support, params)


def test_stp_coeffs_matches_reference_density():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        size = int(rng.integers(1, n + 1))
        support = SupportSet.from_indices(rng.choice(n, size=size, replace=False), n)
        params = make_params(
            n_lambda=n, s_expected=size, sigma_l_sq=float(rng.uniform(0.01, 4.0))
        )
        prev = rng.standard_normal(n)
        new = np.zeros(n)
        idx = support.as_array()
        new[idx] = rng.standard_normal(idx.size)
        expected = gaussian_log_density(new[idx] - prev[idx], params.sigma_l_sq)
        assert coeff_walk_row(new, prev, support, params) == pytest.approx(
            expected, abs=1e-12
        )


# ------------------------------------------------ stacked transition densities


def coeff_walk_reference(new, prev, support, sigma_l_sq):
    """One row's coefficient walk density, summed over its support alone."""
    idx = support.as_array()
    if idx.size == 0:
        return 0.0
    dev = new[idx] - prev[idx]
    if sigma_l_sq == 0.0:
        return 0.0 if np.all(np.abs(dev) <= ZERO_VAR_ATOL) else NEG_INF
    var = np.full(dev.shape, sigma_l_sq)
    return float(-0.5 * np.sum(np.log(2.0 * np.pi * var) + dev * dev / var))


def support_move_reference(new, prev, params):
    """One support move's probability, counted with sets."""

    def count_log(count, p):
        if count == 0:
            return 0.0
        return NEG_INF if p == 0.0 else count * math.log(p)

    added = len(set(new.indices) - set(prev.indices))
    removed = len(set(prev.indices) - set(new.indices))
    return (
        count_log(added, params.p_a)
        + count_log(params.n_lambda - len(prev) - added, 1.0 - params.p_a)
        + count_log(removed, params.p_r)
        + count_log(len(prev) - removed, 1.0 - params.p_r)
    )


@st.composite
def support_rows(draw, max_lambda=12, max_rows=20):
    """Random supports (empty and full ones among them) over one axis."""
    n_lambda = draw(st.integers(1, max_lambda))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, max_rows))
    fill = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    masks = rng.random((n, n_lambda)) < rng.choice([0.0, fill, 1.0], size=(n, 1))
    return rng, masks


@settings(max_examples=100, deadline=None)
@given(support_rows(), st.sampled_from([0.0, 1e-3, 0.04, 2.0]), st.booleans())
def test_stacked_coefficient_walk_matches_each_row(drawn, sigma_l_sq, near):
    """One masked sum scores the stack: each row agrees with its own sum over
    its support to 1e-13 of the sizes of its terms, and the point mass
    (``sigma_l_sq = 0``) is exact."""
    rng, masks = drawn
    n, n_lambda = masks.shape
    params = make_params(n_lambda=n_lambda, s_expected=1, sigma_l_sq=sigma_l_sq)
    prev = rng.standard_normal((n, n_lambda))
    # near: deviations inside the point mass's slack, so sigma_l_sq = 0 keeps rows finite
    scale = 0.5 * ZERO_VAR_ATOL if near else 1.0
    new = np.where(masks, prev + scale * rng.standard_normal((n, n_lambda)), 0.0)
    values = stp_coeffs_rows(new, prev, masks, params)
    assert values.shape == (n,)
    for i in range(n):
        support = SupportSet.from_indices(np.flatnonzero(masks[i]), n_lambda)
        reference = coeff_walk_reference(new[i], prev[i], support, sigma_l_sq)
        scale = 0.0
        if sigma_l_sq > 0.0:
            dev = (new[i] - prev[i])[masks[i]]
            scale = float(np.sum(abs(math.log(2.0 * math.pi * sigma_l_sq)) + dev * dev / sigma_l_sq))
        for value in (values[i], coeff_walk_row(new[i], prev[i], support, params)):
            assert value == reference or abs(value - reference) <= 1e-13 * scale


@settings(max_examples=100, deadline=None)
@given(support_rows(), st.sampled_from([0.0, 0.2]), st.sampled_from([0.0, 0.3]))
def test_stacked_support_move_matches_each_row(drawn, p_a, p_r):
    rng, prev = drawn
    n, n_lambda = prev.shape
    new = prev ^ (rng.random(prev.shape) < 0.3)
    params = make_params(n_lambda=n_lambda, s_expected=1, p_a=p_a, p_r=p_r)
    values = stp_support_rows(new, prev, params)
    assert values.shape == (n,)
    for i in range(n):
        a = SupportSet.from_indices(np.flatnonzero(new[i]), n_lambda)
        b = SupportSet.from_indices(np.flatnonzero(prev[i]), n_lambda)
        assert values[i] == support_move_reference(a, b, params)
        assert values[i] == stp_support_log(a, b, params)


def support_draw_reference(mask, p_a, p_r, rng):
    """One support move drawn index by index in the documented order."""
    new = mask.copy()
    for i in np.flatnonzero(~mask):  # additions first, ascending
        new[i] = rng.random() < p_a
    for i in np.flatnonzero(mask):  # then removals, ascending
        new[i] = rng.random() >= p_r
    return new


@settings(max_examples=100, deadline=None)
@given(
    support_rows(),
    st.sampled_from([0.0, 0.03, 0.4]),
    st.sampled_from([0.0, 0.216, 0.45]),
    st.integers(0, 2**32 - 1),
)
def test_stacked_support_draw_matches_each_row(drawn, p_a, p_r, seed):
    _, masks = drawn
    n, n_lambda = masks.shape
    params = make_params(n_lambda=n_lambda, s_expected=1, p_a=p_a, p_r=p_r)

    def streams():  # fresh copies of the same n streams
        return [np.random.default_rng([seed, i]) for i in range(n)]

    stacked_rngs, lone_rngs, hand_rngs = streams(), streams(), streams()
    stacked = sample_support_rows(masks, params, stacked_rngs)
    assert stacked.shape == masks.shape and stacked.dtype == bool
    for i in range(n):
        lone = sample_support_transition(SupportSet.from_mask(masks[i]), params, lone_rngs[i])
        assert np.array_equal(stacked[i], lone.mask())
        assert np.array_equal(stacked[i], support_draw_reference(masks[i], p_a, p_r, hand_rngs[i]))
        states = (r[i].bit_generator.state for r in (stacked_rngs, lone_rngs, hand_rngs))
        assert len({repr(state) for state in states}) == 1
    with pytest.raises(ValueError, match="ambient"):
        sample_support_rows(np.zeros((n, n_lambda + 1), dtype=bool), params, streams())


def test_stacked_coefficient_walk_checks_the_stack():
    params = make_params(n_lambda=3, s_expected=1)
    masks = np.array([[True, False, False], [False, True, True]])
    leak = np.array([[1.0, 0.0, 0.0], [1e-300, 1.0, 1.0]])  # row 1 is nonzero off its support
    with pytest.raises(ValueError, match="off the support"):
        stp_coeffs_rows(leak, np.zeros((2, 3)), masks, params)
    with pytest.raises(ValueError, match="wrong length"):
        stp_coeffs_rows(np.zeros((2, 4)), np.zeros((2, 4)), masks, params)
    with pytest.raises(ValueError, match="ambient"):
        stp_coeffs_rows(np.zeros((2, 3)), np.zeros((2, 3)), masks[:, :2], params)


# ---------------------------------------------------------------- motion walk


WALK_VARIANCES = st.sampled_from([0.0, 1e-3, 0.25, 2.0])


@st.composite
def walk_cases(draw):
    """Rows to walk (``-0.0`` entries among them), a shared or per-column variance, seeds."""
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    entries = st.sampled_from([0.0, -0.0, 1.0, -3.5, 1e-300])
    prev = np.array(draw(st.lists(entries, min_size=n * k, max_size=n * k))).reshape(n, k)
    shared = draw(st.booleans())
    variance = draw(WALK_VARIANCES) if shared else np.array(
        draw(st.lists(WALK_VARIANCES, min_size=k, max_size=k))
    )
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=n, max_size=n))
    return prev, variance, seeds


@settings(max_examples=150, deadline=None)
@given(walk_cases())
def test_walk_rows_match_generator_normal(case):
    prev, variance, seeds = case
    rngs = [np.random.default_rng(s) for s in seeds]
    twins = [np.random.default_rng(s) for s in seeds]
    walked = sample_walk_rows(prev, variance, rngs)
    scale = np.sqrt(variance)
    for i, twin in enumerate(twins):
        expected = prev[i] + twin.normal(0.0, scale, prev.shape[1])
        assert walked[i].tobytes() == expected.tobytes()  # bit for bit, signs of zero too
        assert rngs[i].bit_generator.state == twin.bit_generator.state


def test_stacked_fills_at_their_edges():
    """Zero rows give ``(0, k)``; zero columns draw nothing; one generator
    listed for every row fills the rows in order, as consecutive draws; and
    a stream list that does not match the rows is refused."""
    params = make_params(n_lambda=4, s_expected=1, p_a=0.3, p_r=0.4)
    assert sample_support_rows(np.zeros((0, 4), dtype=bool), params, []).shape == (0, 4)
    assert sample_walk_rows(np.zeros((0, 3)), 1.0, []).shape == (0, 3)
    rngs = [np.random.default_rng(i) for i in range(3)]
    states = [repr(r.bit_generator.state) for r in rngs]
    assert sample_walk_rows(np.zeros((3, 0)), 1.0, rngs).shape == (3, 0)
    assert [repr(r.bit_generator.state) for r in rngs] == states  # no stream advanced

    n = 5
    rng, twin = np.random.default_rng(8), np.random.default_rng(8)
    walked = sample_walk_rows(np.ones((n, 3)), 0.25, [rng] * n)
    expected = np.array([1.0 + twin.normal(0.0, 0.5, 3) for _ in range(n)])
    assert walked.tobytes() == expected.tobytes()
    masks = np.array([[True, False, True, False]] * n)
    drawn = sample_support_rows(masks, params, [rng] * n)
    expected = np.array([support_draw_reference(m, 0.3, 0.4, twin) for m in masks])
    assert np.array_equal(drawn, expected)
    assert rng.bit_generator.state == twin.bit_generator.state

    with pytest.raises(ValueError):
        sample_walk_rows(np.zeros((2, 3)), 1.0, rngs[:1])
    with pytest.raises(ValueError):
        sample_support_rows(masks, params, rngs)


def test_motion_zero_covariance_is_identity():
    params = make_params(sigma_u=(0.0, 0.0, 0.0))
    prev = MotionState(1.5, -2.0, 1.1)
    new = sample_motion_transition(prev, params, np.random.default_rng(0))
    assert new == prev


def test_motion_sample_variances():
    params = make_params(sigma_u=(0.5, 0.25, 0.04))
    prev = MotionState(0.0, 0.0, 1.0)
    rng = np.random.default_rng(6)
    draws = np.array(
        [sample_motion_transition(prev, params, rng).as_array() for _ in range(100_000)]
    )
    var = np.var(draws - prev.as_array(), axis=0)
    assert np.allclose(var, [0.5, 0.25, 0.04], rtol=0.02)


# -------------------------------------------------- zero-variance conventions


def test_degenerate_gaussian_convention():
    """A zero walk variance is a point mass: a row scores 0.0 when every
    on-support deviation is within ``ZERO_VAR_ATOL`` of zero, else -inf."""
    params = make_params(n_lambda=3, s_expected=1, sigma_l_sq=0.0)
    masks = np.array([[1, 1, 0], [1, 0, 0], [0, 1, 1], [0, 0, 0]], dtype=bool)
    new = np.array([[0.0, ZERO_VAR_ATOL, 0.0], [-ZERO_VAR_ATOL, 0.0, 0.0], [0.0, 0.0, 2e-6],
                    [0.0, 0.0, 0.0]])
    assert list(stp_coeffs_rows(new, np.zeros((4, 3)), masks, params)) == [0.0, 0.0, NEG_INF, 0.0]
