"""ROI geometry, frame rendering, the affine residual, and the observation
log-likelihood with its clutter term."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import diag_gaussian_log_row, gaussian_log_density
from pafimocs.dictionary import TemplatePatch, build_dictionary
from pafimocs.models import NEG_INF, ModelParams, MotionState
from pafimocs.observation import (
    Frame,
    InvalidRoiError,
    NoiseModel,
    compute_roi,
    distinct_rows,
    grid_rows,
    log_likelihood,
    mapped_rows,
    render_frame,
    round_half_away,
)
from pafimocs.observation import residual_g

FRAME_DIMS = (24, 24)
EPS = np.finfo(float).eps


def small_template(origin=(8, 8), height=6, width=6, seed=0):
    rng = np.random.default_rng(seed)
    image = 60.0 + 140.0 * rng.random((height, width))
    return TemplatePatch.from_image(image, origin=origin)


def pure_noise(sigma_sq):
    return NoiseModel(kind="pure-gaussian", sigma_sq=sigma_sq)


def test_round_half_away_convention():
    values = np.array([0.5, -0.5, 2.5, -2.5, 1.4, -1.4, 0.0])
    assert np.array_equal(round_half_away(values), [1.0, -1.0, 3.0, -3.0, 1.0, -1.0, 0.0])


def test_roi_identity_translation_scale():
    template = small_template()
    frame_index = lambda i, j: i * FRAME_DIMS[1] + j

    identity = compute_roi(MotionState(0.0, 0.0, 1.0), template, FRAME_DIMS)
    assert identity.valid
    expected = np.array(
        [frame_index(i, j) for i, j in zip(template.coord_i, template.coord_j)]
    )
    assert np.array_equal(identity.indices, expected)

    shifted = compute_roi(MotionState(5.0, 0.0, 1.0), template, FRAME_DIMS)
    assert np.array_equal(shifted.indices, identity.indices + 5 * FRAME_DIMS[1])

    # doubling the scale maps coordinates away from the (fixed) centroid
    doubled = compute_roi(MotionState(0.0, 0.0, 2.0), template, FRAME_DIMS)
    rows = round_half_away(
        2.0 * (template.coord_i - template.centroid_i) + template.centroid_i
    )
    cols = round_half_away(
        2.0 * (template.coord_j - template.centroid_j) + template.centroid_j
    )
    assert np.array_equal(doubled.indices, rows * FRAME_DIMS[1] + cols)


def test_roi_out_of_frame_flagged():
    template = small_template()
    roi = compute_roi(MotionState(100.0, 0.0, 1.0), template, FRAME_DIMS)
    assert not roi.valid
    # scale 0 collapses onto the centroid: valid, all duplicate indices
    collapsed = compute_roi(MotionState(0.0, 0.0, 0.0), template, FRAME_DIMS)
    assert collapsed.valid
    assert np.unique(collapsed.indices).size == 1


def test_roi_determinism():
    template = small_template()
    motion = MotionState(1.3, -0.7, 1.1)
    a = compute_roi(motion, template, FRAME_DIMS)
    b = compute_roi(motion, template, FRAME_DIMS)
    assert np.array_equal(a.indices, b.indices) and a.valid == b.valid


def test_render_noiseless_roi_equals_template():
    template = small_template()
    dictionary = build_dictionary(template, 1)
    motion = MotionState(0.0, 0.0, 1.0)
    frame = render_frame(
        motion, np.zeros(3), template, dictionary, FRAME_DIMS, pure_noise(0.0),
        np.random.default_rng(0),
    )
    roi = compute_roi(motion, template, FRAME_DIMS)
    assert np.array_equal(frame.pixels[roi.indices], template.pixels)

    non_roi = np.setdiff1d(np.arange(frame.n_pixels), roi.indices)
    assert np.all(frame.pixels[non_roi] >= 0.0)
    assert np.all(frame.pixels[non_roi] <= 255.0)


def test_render_applies_illumination():
    template = small_template()
    dictionary = build_dictionary(template, 2)
    motion = MotionState(1.0, -2.0, 1.0)
    lam = np.array([0.3, -0.1, 0.05, 0.0, 0.02])
    frame = render_frame(
        motion, lam, template, dictionary, FRAME_DIMS, pure_noise(0.0),
        np.random.default_rng(1),
    )
    roi = compute_roi(motion, template, FRAME_DIMS)
    assert np.allclose(
        frame.pixels[roi.indices], template.pixels + dictionary.matrix @ lam, atol=1e-12
    )


def test_render_rejects_invalid_roi():
    template = small_template()
    dictionary = build_dictionary(template, 0)
    with pytest.raises(InvalidRoiError):
        render_frame(
            MotionState(50.0, 0.0, 1.0), np.zeros(1), template, dictionary,
            FRAME_DIMS, pure_noise(0.0), np.random.default_rng(0),
        )


def test_residual_zero_at_truth_and_affine():
    template = small_template()
    dictionary = build_dictionary(template, 2)
    motion = MotionState(0.0, 1.0, 1.0)
    lam = np.array([0.2, 0.0, -0.3, 0.1, 0.0])
    frame = render_frame(
        motion, lam, template, dictionary, FRAME_DIMS, pure_noise(0.0),
        np.random.default_rng(2),
    )
    assert np.allclose(residual_g(frame, motion, lam, template, dictionary), 0.0, atol=1e-12)

    # rendered at lam, evaluated at 0: the residual is exactly the illumination
    at_zero = residual_g(frame, motion, np.zeros(5), template, dictionary)
    assert np.allclose(at_zero, dictionary.matrix @ lam, atol=1e-12)

    rng = np.random.default_rng(3)
    for _ in range(100):
        l1 = rng.standard_normal(5)
        l2 = rng.standard_normal(5)
        r1 = residual_g(frame, motion, l1, template, dictionary)
        r2 = residual_g(frame, motion, l2, template, dictionary)
        assert np.allclose(r1 - r2, -dictionary.matrix @ (l1 - l2), atol=1e-9)


def test_log_likelihood_zero_residual_value():
    template = small_template()
    dictionary = build_dictionary(template, 1)
    motion = MotionState(0.0, 0.0, 1.0)
    lam = np.array([0.1, 0.0, -0.2])
    frame = render_frame(
        motion, lam, template, dictionary, FRAME_DIMS, pure_noise(0.0),
        np.random.default_rng(4),
    )
    sigma_sq = 2.0
    value = log_likelihood(
        frame, motion.as_array()[None], lam[None], template, dictionary, pure_noise(sigma_sq)
    )
    assert value.shape == (1,)
    n_l = template.pixels.size
    m = frame.n_pixels
    expected = -(n_l / 2.0) * math.log(2.0 * math.pi * sigma_sq) + (m - n_l) * math.log(
        1.0 / 255.0
    )
    assert value == pytest.approx(expected, abs=1e-10)


def test_log_likelihood_from_gathered_pixels_is_bit_identical():
    template = small_template()
    dictionary = build_dictionary(template, 1)
    motion = MotionState(1.4, -0.6, 1.1)
    lam = np.array([3.0, -1.5, 0.25])
    frame = render_frame(
        motion, lam, template, dictionary, FRAME_DIMS, pure_noise(1.0),
        np.random.default_rng(5),
    )
    roi = compute_roi(motion, template, FRAME_DIMS)
    mapped = frame.pixels[roi.indices] - template.pixels
    noise = pure_noise(1.5)
    direct = log_likelihood(
        frame, motion.as_array()[None], 0.9 * lam[None], template, dictionary, noise
    )
    from_pixels = log_likelihood(
        frame, motion.as_array()[None], 0.9 * lam[None], template, dictionary, noise,
        gathered=(
            mapped[None].copy(), mapped[None] @ dictionary.matrix, np.array([0]),
            np.array([roi.valid]),
        ),
    )
    assert from_pixels[0] == direct[0]


def test_log_likelihood_leaves_gathered_unmodified():
    """The ROI stack a caller hands in is read, not written: a mode-tracking
    step scores its rows on the same pixels its solver read."""
    template = small_template()
    dictionary = build_dictionary(template, 1)
    rng = np.random.default_rng(6)
    frame = Frame(pixels=rng.uniform(0.0, 255.0, 24 * 24), height=24, width=24)
    motion = np.array([[1.0, 0.0, 1.0], [1.0, 0.0, 1.0], [30.0, 0.0, 1.0], [-2.0, 1.0, 1.0]])
    coeffs = rng.normal(0.0, 0.5, (len(motion), 3))
    pixels, index, valid = mapped_rows(frame, motion, template)
    gathered = (pixels, pixels @ dictionary.matrix, index, valid)
    before = [a.copy() for a in gathered]
    noise = pure_noise(2.0)
    values = log_likelihood(frame, motion, coeffs, template, dictionary, noise, gathered)
    for kept, now in zip(before, gathered):
        assert kept.tobytes() == now.tobytes()
    direct = log_likelihood(frame, motion, coeffs, template, dictionary, noise)
    assert values.tobytes() == direct.tobytes()


def test_log_likelihood_scores_from_the_projection_it_is_handed():
    """Handed a stack, the Gaussian branch forms no ``Phi' y`` of its own:
    adding 1 to every entry of the ``phity`` it reads lowers each valid
    row's squared residual by ``2 sum(c)``."""
    template = small_template()
    dictionary = build_dictionary(template, 1)
    rng = np.random.default_rng(7)
    frame = Frame(pixels=rng.uniform(0.0, 255.0, 24 * 24), height=24, width=24)
    motion = np.array([[1.0, 0.0, 1.0], [2.0, -1.0, 1.0], [30.0, 0.0, 1.0]])
    coeffs = rng.normal(0.0, 0.5, (len(motion), 3))
    pixels, index, valid = mapped_rows(frame, motion, template)
    phity = pixels @ dictionary.matrix
    noise = pure_noise(2.0)
    exact = log_likelihood(
        frame, motion, coeffs, template, dictionary, noise, (pixels, phity, index, valid)
    )
    assert exact.tobytes() == log_likelihood(
        frame, motion, coeffs, template, dictionary, noise
    ).tobytes()
    shifted = log_likelihood(
        frame, motion, coeffs, template, dictionary, noise, (pixels, phity + 1.0, index, valid)
    )
    assert valid.tolist() == [True, True, False]
    np.testing.assert_allclose(
        shifted[valid] - exact[valid], coeffs[valid].sum(axis=1) / noise.sigma_sq, atol=1e-6
    )
    assert shifted[2] == NEG_INF


def test_log_likelihood_clutter_term_cancels_in_differences():
    template = small_template()
    dictionary = build_dictionary(template, 1)
    noise = pure_noise(1.0)
    frame = render_frame(
        MotionState(0.0, 0.0, 1.0), np.zeros(3), template, dictionary, FRAME_DIMS,
        noise, np.random.default_rng(5),
    )
    m1, m2 = MotionState(0.0, 0.0, 1.0), MotionState(1.0, 0.0, 1.0)
    both = log_likelihood(
        frame, np.array([m1.as_array(), m2.as_array()]), np.zeros((2, 3)), template,
        dictionary, noise,
    )
    diff = both[0] - both[1]
    r1 = residual_g(frame, m1, np.zeros(3), template, dictionary)
    r2 = residual_g(frame, m2, np.zeros(3), template, dictionary)
    n_l = template.pixels.size
    expected = gaussian_log_density(r1, 1.0) - gaussian_log_density(r2, 1.0)
    assert diff == pytest.approx(expected, rel=1e-12)
    # equivalently: only the residual norms matter
    assert diff == pytest.approx(0.5 * (float(r2 @ r2) - float(r1 @ r1)), rel=1e-12)


def test_log_likelihood_monotone_in_residual_norm():
    template = small_template()
    dictionary = build_dictionary(template, 1)
    noise = pure_noise(1.0)
    motion = MotionState(0.0, 0.0, 1.0)
    frame = render_frame(
        motion, np.zeros(3), template, dictionary, FRAME_DIMS, noise,
        np.random.default_rng(6),
    )
    lams = [np.zeros(3), np.array([0.05, 0.0, 0.0]), np.array([0.2, 0.1, 0.0])]
    values = log_likelihood(
        frame, np.tile(motion.as_array(), (3, 1)), np.array(lams), template, dictionary, noise
    )
    norms = [
        float(np.sum(residual_g(frame, motion, lam, template, dictionary) ** 2))
        for lam in lams
    ]
    order = np.argsort(norms)
    assert values[order[0]] > values[order[1]] > values[order[2]]


def test_log_likelihood_invalid_roi_is_neg_inf():
    template = small_template()
    dictionary = build_dictionary(template, 1)
    frame = render_frame(
        MotionState(0.0, 0.0, 1.0), np.zeros(3), template, dictionary, FRAME_DIMS,
        pure_noise(1.0), np.random.default_rng(7),
    )
    value = log_likelihood(
        frame, np.array([[100.0, 0.0, 1.0], [0.0, 0.0, 1.0]]), np.zeros((2, 3)), template,
        dictionary, pure_noise(1.0),
    )
    assert value[0] == float("-inf")
    assert np.isfinite(value[1])
    with pytest.raises(InvalidRoiError):
        residual_g(frame, MotionState(100.0, 0.0, 1.0), np.zeros(3), template, dictionary)


def test_likelihood_peaks_at_true_motion():
    template = small_template(origin=(9, 9))
    dictionary = build_dictionary(template, 2)
    rng = np.random.default_rng(10)
    for trial in range(20):
        true_motion = MotionState(float(rng.integers(-3, 4)), float(rng.integers(-3, 4)), 1.0)
        lam = 0.1 * rng.standard_normal(5)
        frame = render_frame(
            true_motion, lam, template, dictionary, FRAME_DIMS, pure_noise(0.0),
            np.random.default_rng(100 + trial),
        )
        shifts = [(dx, dy) for dx in range(-2, 3) for dy in range(-2, 3)]
        cands = np.array(
            [[true_motion.u_x + dx, true_motion.u_y + dy, 1.0] for dx, dy in shifts]
        )
        values = log_likelihood(
            frame, cands, np.tile(lam, (len(shifts), 1)), template, dictionary, pure_noise(1.0)
        )
        assert shifts[int(np.argmax(values))] == (0, 0)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(kind="pure-gaussian", sigma_sq=-1.0)
    with pytest.raises(ValueError):
        NoiseModel(kind="laplace", sigma_sq=1.0)
    with pytest.raises(ValueError, match="sigma_sq"):
        NoiseModel(sigma_sq=math.nan)
    with pytest.raises(ValueError, match="pixel_max"):
        NoiseModel(pixel_max=math.nan)
    with pytest.raises(ValueError, match="sigma_sq must be nonnegative and finite"):
        NoiseModel(sigma_sq=math.inf)
    with pytest.raises(ValueError, match="pixel_max must be positive and finite"):
        NoiseModel(pixel_max=math.inf)


def test_negative_zero_noise_variance_renders_exactly():
    template = small_template()
    dictionary = build_dictionary(template, 1)
    noise = NoiseModel(kind="pure-gaussian", sigma_sq=-0.0)
    assert math.copysign(1.0, noise.sigma_sq) == 1.0
    still, flat = MotionState(0.0, 0.0, 1.0), np.zeros(3)
    rng = np.random.default_rng(0)
    frame = render_frame(still, flat, template, dictionary, FRAME_DIMS, noise, rng)
    assert not np.any(residual_g(frame, still, flat, template, dictionary))


def test_frame_round_trip():
    rng = np.random.default_rng(11)
    image = rng.random((5, 7)) * 255.0
    frame = Frame.from_image(image)
    assert frame.n_pixels == 35
    assert np.array_equal(frame.image(), image)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_frame_rejects_non_finite_pixels(bad):
    image = np.full((3, 4), 10.0)
    image[1, 2] = bad
    with pytest.raises(ValueError, match="frame pixels must be finite"):
        Frame.from_image(image)


ROW_VALUES = st.tuples(
    st.sampled_from([0.0, -0.0, 1.5, math.nan]),
    st.sampled_from([0.0, 2.0]),
    st.integers(-1, 1),
    st.booleans(),
)


@given(st.lists(ROW_VALUES, max_size=24))
@example([])
@settings(max_examples=200, deadline=None)
def test_distinct_rows_names_each_first_occurrence(values):
    n = len(values)
    floats = np.asfortranarray(np.array([v[:2] for v in values], dtype=float).reshape(n, 2))
    ints = np.array([v[2] for v in values], dtype=np.int64).reshape(n, 1)
    flags = np.array([v[3] for v in values], dtype=bool).reshape(n, 1)
    arrays = (floats, ints, flags)  # side by side, one of them not C-contiguous
    first, inverse = distinct_rows(*arrays)
    keys = [b"".join(a[i].tobytes() for a in arrays) for i in range(n)]  # -0.0 is not 0.0
    assert np.all(np.diff(first) > 0)
    assert [keys.index(keys[i]) for i in first] == first.tolist()
    representatives = [keys[i] for i in first]
    assert len(set(representatives)) == len(first) and set(representatives) == set(keys)
    for a in arrays:
        assert a[first[inverse]].tobytes() == a.tobytes()


def test_frame_rejects_bad_shapes():
    with pytest.raises(ValueError, match=r"pixels must have length height \* width"):
        Frame(np.zeros(11), 3, 4)
    with pytest.raises(ValueError, match="frame image must be 2-D"):
        Frame.from_image(np.zeros(12))


def test_noise_model_for_params():
    params = ModelParams(
        n_lambda=3,
        s_expected=1,
        p_a=0.0,
        p_r=0.0,
        sigma_l_sq=0.01,
        sigma_u=(0.5, 0.5, 0.0),
        sigma_o_sq=2.5,
    )
    noise = NoiseModel.for_params(params)
    assert noise == NoiseModel(sigma_sq=2.5) and noise.pixel_max == 255.0


# -------------------------------------------- batched ROI and likelihood rows

MOTION_ROWS = st.lists(
    st.tuples(
        st.floats(-30.0, 30.0),  # both valid and off-frame rows for every drawn template
        st.floats(-30.0, 30.0),
        st.floats(0.0, 2.5),
    ),
    min_size=1,
    max_size=6,
)
NOISE_KINDS = {
    "pure-gaussian": NoiseModel(kind="pure-gaussian", sigma_sq=1.5),
    "point-mass": NoiseModel(kind="pure-gaussian", sigma_sq=0.0),
}


def reference_row(frame, motion, coeffs, template, dictionary, noise):
    """ROI indices, validity and log-likelihood of one hypothesis, pixel by
    pixel, and the accuracy ``log_likelihood`` states for that row.

    The bound is the worst-case rounding of ``||y||^2 - 2 c' Phi' y + c' G c``
    (dot products of ``n`` terms err by ``n eps`` of their terms' sizes,
    whence ``|Phi| |c|``) and of the constant terms, with ``n`` the pixels
    plus the coefficients plus two final sums. The point mass is exact: its
    bound is 0.
    """
    u_x, u_y, s = motion
    ci, cj = float(np.mean(template.coord_i)), float(np.mean(template.coord_j))
    rows = round_half_away(u_x + s * (template.coord_i - ci) + ci)
    cols = round_half_away(u_y + s * (template.coord_j - cj) + cj)
    valid = bool(
        np.all((rows >= 0) & (rows < frame.height)) and np.all((cols >= 0) & (cols < frame.width))
    )
    indices = (rows * frame.width + cols).astype(np.intp)
    if not valid:
        return indices, valid, NEG_INF, 0.0
    y = frame.pixels[indices] - template.pixels
    clutter = -(frame.n_pixels - template.n_pixels) * math.log(noise.pixel_max)
    value = diag_gaussian_log_row(y - dictionary.matrix @ coeffs, noise.sigma_sq) + clutter
    if noise.sigma_sq == 0.0:
        return indices, valid, value, 0.0
    spread = (np.linalg.norm(y) + np.linalg.norm(np.abs(dictionary.matrix) @ np.abs(coeffs))) ** 2
    constants = template.n_pixels * abs(math.log(2.0 * math.pi * noise.sigma_sq)) + abs(clutter)
    n = template.n_pixels + len(coeffs) + 2
    return indices, valid, value, n * EPS * (spread / noise.sigma_sq + constants)


def assert_within(value, reference, bound):
    """``value`` is ``reference`` (both -inf, say) or within ``bound`` of it."""
    assert value == reference or abs(value - reference) <= bound


@pytest.mark.parametrize("kind", sorted(NOISE_KINDS))
@settings(max_examples=60, deadline=None)
@given(
    motions=MOTION_ROWS,
    seed=st.integers(0, 2**32 - 1),
    with_truth=st.booleans(),
    shape=st.tuples(st.integers(2, 7), st.integers(2, 7)),  # unequal sides catch axis mix-ups
    origin=st.tuples(st.integers(0, 16), st.integers(2, 17)),  # the truth stays in the frame
)
def test_batched_rows_match_single_hypothesis_reference(
    kind, motions, seed, with_truth, shape, origin
):
    noise = NOISE_KINDS[kind]
    template = small_template(origin=origin, height=shape[0], width=shape[1])
    dictionary = build_dictionary(template, 1)
    rng = np.random.default_rng(seed)
    truth_motion, truth_coeffs = MotionState(1.0, -2.0, 1.0), rng.normal(0.0, 0.1, 3)
    frame = render_frame(
        truth_motion, truth_coeffs, template, dictionary, FRAME_DIMS, noise, rng
    )
    motion = np.array(motions, dtype=float)
    coeffs = rng.normal(0.0, 0.1, (len(motions), 3))
    if with_truth:  # a zero-residual row, the only kind the point mass does not reject
        motion = np.vstack([motion, truth_motion.as_array()])
        coeffs = np.vstack([coeffs, truth_coeffs])

    offsets, cols, valid = grid_rows(motion, template, FRAME_DIMS)
    indices = (offsets[:, :, None] + cols[:, None, :]).reshape(len(motion), -1)
    values = log_likelihood(frame, motion, coeffs, template, dictionary, noise)
    assert indices.shape == (len(motion), template.n_pixels)
    assert values.shape == valid.shape == (len(motion),)
    for k in range(len(motion)):
        ref_indices, ref_valid, ref_value, bound = reference_row(
            frame, motion[k], coeffs[k], template, dictionary, noise
        )
        assert np.array_equal(indices[k], ref_indices)
        roi = compute_roi(MotionState.from_array(motion[k]), template, FRAME_DIMS)
        assert np.array_equal(roi.indices, ref_indices) and roi.valid == ref_valid
        assert valid[k] == ref_valid
        assert_within(values[k], ref_value, bound)  # exact for the point mass
    if with_truth:
        assert values[-1] > NEG_INF


IN_FRAME_OR_OFF = st.lists(
    st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), st.floats(0.5, 1.5))
    | st.just((30.0, 0.0, 1.0)),
    min_size=2,
    max_size=6,
)

# 35 distinct in-frame grids, each used twice, among off-frame rows: more
# grids than one draw of IN_FRAME_OR_OFF holds
MANY_GRIDS = dict(
    bases=[(i, j, 1.0) for i in range(-3, 4) for j in range(-2, 3)]
    + [(30.0, 0.0, 1.0), (0.0, -30.0, 1.0), (0.0, 0.0, 9.0)],
    picks=[*range(37), *range(34, -1, -1), 37],
    nudges=[0.0] * 37 + [0.2] * 35 + [0.0],
    seed=5,
)


@settings(max_examples=80, deadline=None)
@example(**MANY_GRIDS, kind="pure-gaussian")
@example(**MANY_GRIDS, kind="point-mass")
@given(
    bases=IN_FRAME_OR_OFF,
    picks=st.lists(st.integers(0, 5), min_size=4, max_size=12),
    nudges=st.lists(st.sampled_from([0.0, 0.0, 0.2, -0.2, 0.7]), min_size=12, max_size=12),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(sorted(NOISE_KINDS)),
)
def test_shared_grids_match_a_gather_per_row(bases, picks, nudges, seed, kind):
    """Stacks whose rows repeat a grid (the same motion, or a nudge that
    rounds to the same pixels), hold distinct ones and leave the frame:
    each grid is gathered once, yet every row equals its own gather, and
    stacked and lone rows score within the stated bound."""
    noise = NOISE_KINDS[kind]
    template = small_template(height=4, width=5)
    dictionary = build_dictionary(template, 1)
    rng = np.random.default_rng(seed)
    frame = Frame(pixels=rng.uniform(0.0, 255.0, 24 * 24), height=24, width=24)
    motion = np.array(bases)[[p % len(bases) for p in picks]]
    motion[:, 0] += nudges[: len(picks)]
    coeffs = rng.normal(0.0, 0.1, (len(motion), 3))
    pixels, index, valid = mapped_rows(frame, motion, template)
    values = log_likelihood(frame, motion, coeffs, template, dictionary, noise)
    offsets, cols, _ = grid_rows(motion, template, FRAME_DIMS)
    grids = {(o.tobytes(), c.tobytes()) if v else None for o, c, v in zip(offsets, cols, valid)}
    assert len(pixels) == len(grids)  # each grid gathered once (one for all off-frame rows)
    assert sorted(set(index.tolist())) == list(range(len(pixels)))
    for k in range(len(motion)):
        indices = (offsets[k][:, None] + cols[k]).ravel()
        alone = frame.pixels[indices] if valid[k] else np.full(template.n_pixels, frame.pixels[0])
        assert pixels[index[k]].tobytes() == (alone - template.pixels).tobytes()
        row = slice(k, k + 1)
        lone_pixels, lone_index, lone_valid = mapped_rows(frame, motion[row], template)
        assert lone_index.tolist() == [0] and valid[k] == lone_valid[0]
        assert pixels[index[k]].tobytes() == lone_pixels[0].tobytes()
        lone = log_likelihood(frame, motion[row], coeffs[row], template, dictionary, noise)
        *_, reference, bound = reference_row(frame, motion[k], coeffs[k], template, dictionary, noise)
        assert_within(values[k], reference, bound)  # exact for the point mass
        assert_within(lone[0], reference, bound)


@pytest.mark.parametrize("sigma_sq", [1e-6, 1.5, 100.0])
@settings(max_examples=40, deadline=None)
@given(
    motions=MOTION_ROWS,
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(0, 3),
    scale=st.sampled_from([0.1, 30.0]),
)
def test_gram_form_likelihood_within_stated_bound(sigma_sq, motions, seed, d, scale):
    """Rows scored from per-grid sufficient statistics match a pixel-by-pixel
    reference within the accuracy ``log_likelihood`` states: rows that fit a
    noise-free frame exactly (where ``||y||^2``, ``2 c' Phi' y`` and
    ``c' G c`` cancel), rows that miss it and off-frame rows (-inf)."""
    noise = NoiseModel(sigma_sq=sigma_sq)
    template = small_template(origin=(9, 8), height=8, width=7)
    dictionary = build_dictionary(template, d)
    rng = np.random.default_rng(seed)
    truth = MotionState(1.0, -2.0, 1.0)
    truth_coeffs = rng.normal(0.0, scale, dictionary.n_lambda)
    frame = render_frame(truth, truth_coeffs, template, dictionary, FRAME_DIMS, pure_noise(0.0), rng)
    motion = np.vstack([np.array(motions, dtype=float), np.tile(truth.as_array(), (2, 1))])
    coeffs = rng.normal(0.0, scale, (len(motion), dictionary.n_lambda))
    coeffs[-2:] = truth_coeffs
    values = log_likelihood(frame, motion, coeffs, template, dictionary, noise)
    for k in range(len(motion)):
        _, valid, reference, bound = reference_row(
            frame, motion[k], coeffs[k], template, dictionary, noise
        )
        assert np.isfinite(values[k]) == valid
        assert_within(values[k], reference, bound)
