"""Polynomial basis, dictionary construction, least-squares fitting, and
energy-support analysis."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import support_trace_reference
from pafimocs import dictionary as dictionary_module
from pafimocs import fileio, harness
from pafimocs.dictionary import (
    Dictionary,
    TemplatePatch,
    build_basis_image,
    build_dictionary,
    energy_support,
    legendre_eval,
    load_dictionary,
    ml_coeff_fit,
    save_dictionary,
    support_trace,
)
from pafimocs.filters import run_tracker
from pafimocs.models import ModelParams, SupportSet, sample_coeff_transition, sample_support_transition


def bumps_template(height=8, width=8, seed=0):
    rng = np.random.default_rng(seed)
    ii, jj = np.meshgrid(
        np.linspace(0, 1, height), np.linspace(0, 1, width), indexing="ij"
    )
    image = (
        100.0
        + 80.0 * np.exp(-((ii - 0.3) ** 2 + (jj - 0.4) ** 2) / 0.05)
        + 40.0 * ii
        + rng.uniform(0, 5, size=(height, width))
    )
    return TemplatePatch.from_image(image)


# hand-expanded p_0..p_5 for the recurrence cross-check
EXPLICIT = [
    lambda x: np.ones_like(x),
    lambda x: x,
    lambda x: (3 * x**2 - 1) / 2,
    lambda x: (5 * x**3 - 3 * x) / 2,
    lambda x: (35 * x**4 - 30 * x**2 + 3) / 8,
    lambda x: (63 * x**5 - 70 * x**3 + 15 * x) / 8,
]


def test_legendre_point_values():
    assert legendre_eval(0, 0.73) == 1.0
    assert legendre_eval(1, 0.5) == 0.5
    assert legendre_eval(3, 0.5) == pytest.approx(-0.4375, abs=1e-15)


def test_legendre_matches_explicit_polynomials():
    x = np.linspace(-1.0, 1.0, 101)
    for k, poly in enumerate(EXPLICIT):
        assert np.allclose(legendre_eval(k, x), poly(x), atol=1e-12, rtol=0)


def test_legendre_parity():
    x = np.linspace(-1.0, 1.0, 101)
    for k in range(6):
        assert np.allclose(
            legendre_eval(k, -x), (-1.0) ** k * legendre_eval(k, x), atol=1e-12
        )


def test_legendre_domain_error():
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        legendre_eval(2, 1.5)
    with pytest.raises(ValueError):
        legendre_eval(-1, 0.0)


def test_basis_image_layout():
    assert np.array_equal(build_basis_image(0, 3, 3), np.ones((3, 3)))

    # odd index: varies down the rows, constant along columns
    b1 = build_basis_image(1, 3, 5)
    assert np.allclose(b1, np.array([-1.0, 0.0, 1.0])[:, None] * np.ones((1, 5)))

    # even index >= 2: varies along columns, constant down rows
    b2 = build_basis_image(2, 5, 3)
    expected_cols = EXPLICIT[1](np.array([-1.0, 0.0, 1.0]))  # k=2 -> order 1 in j
    assert np.allclose(b2, np.ones((5, 1)) * expected_cols[None, :])
    assert np.allclose(b2[0], b2[4])

    # odd index k=3 carries polynomial order (k+1)/2 = 2 along rows
    b3 = build_basis_image(3, 5, 2)
    xs = np.linspace(-1, 1, 5)
    assert np.allclose(b3[:, 0], EXPLICIT[2](xs), atol=1e-12)

    with pytest.raises(ValueError, match="at least"):
        build_basis_image(0, 1, 3)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: build_basis_image(-1, 3, 3), "basis index must be nonnegative"),
        (lambda: TemplatePatch(np.ones(5), 2, 3), r"pixels must have length height \* width = 6"),
        (lambda: TemplatePatch.from_image(np.ones(4)), "template image must be 2-D"),
        (lambda: Dictionary(np.ones(3), 1), "dictionary matrix must be 2-D"),
        (lambda: Dictionary(np.ones((4, 2)), 1), r"must have 2 \* order \+ 1 columns"),
        (
            lambda: ml_coeff_fit(
                np.ones(15), bumps_template(4, 4), build_dictionary(bumps_template(4, 4), 1)
            ),
            "patch must be a flat vector matching the template size",
        ),
    ],
    ids=["basis-index", "template-length", "template-1d", "dictionary-1d", "legendre-columns",
         "patch-length"],
)
def test_bad_inputs_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_build_dictionary_shapes_and_columns():
    ones = TemplatePatch.from_image(np.ones((4, 4)))
    d0 = build_dictionary(ones, 0)
    assert d0.matrix.shape == (16, 1)
    assert np.array_equal(d0.matrix[:, 0], np.ones(16))

    zero = TemplatePatch.from_image(np.zeros((4, 4)))
    assert np.array_equal(build_dictionary(zero, 2).matrix, np.zeros((16, 5)))

    template = bumps_template(32, 32)
    big = build_dictionary(template, 20)
    assert big.matrix.shape == (1024, 41)
    assert big.n_lambda == 41
    # column k is the template modulated by its basis image
    k = 7
    basis = build_basis_image(k, 32, 32).ravel()
    assert np.array_equal(big.matrix[:, k], template.pixels * basis)


@pytest.mark.parametrize("d", [0, 1, 2, 3, 20])
def test_dictionary_columns_are_the_basis_images_bit_for_bit(d):
    """One recurrence pass per axis gives each column the bits of its own basis image."""
    template = bumps_template(9, 14, seed=3)
    h, w = template.height, template.width
    columns = [(template.image() * build_basis_image(k, h, w)).ravel() for k in range(2 * d + 1)]
    matrix = build_dictionary(template, d).matrix
    assert matrix.flags.c_contiguous
    assert matrix.tobytes() == np.column_stack(columns).tobytes()


@pytest.mark.parametrize("d", [0, 3, 20])
def test_gram_eigh_is_cached_read_only_and_reproduces_the_gram(d):
    dictionary = build_dictionary(bumps_template(32, 32), d)
    values, vectors = dictionary.gram_eigh
    assert dictionary.gram_eigh is dictionary.gram_eigh
    for arr in (values, vectors):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    assert values.shape == (dictionary.n_lambda,) and np.all(np.diff(values) >= 0.0)
    rebuilt = vectors @ np.diag(values) @ vectors.T
    gram = dictionary.gram
    assert np.max(np.abs(rebuilt - gram)) <= 1e-12 * np.max(np.abs(gram))


def test_dictionary_needs_a_two_by_two_grid():
    for image in (np.ones((1, 5)), np.ones((5, 1))):
        with pytest.raises(ValueError, match="2 x 2 grid"):
            build_dictionary(TemplatePatch.from_image(image), 0)


def test_equal_templates_share_one_dictionary():
    template = bumps_template(9, 14, seed=3)
    shared = build_dictionary(template, 3)
    copy = TemplatePatch(pixels=template.pixels.copy(), height=9, width=14, origin_i=5, origin_j=7)
    assert build_dictionary(copy, 3) is shared
    assert build_dictionary(template.with_origin(40, 2), 3) is shared


def test_other_pixels_order_or_shape_get_their_own_dictionary():
    template = bumps_template(9, 14, seed=3)
    shared = build_dictionary(template, 3)
    nudged = template.pixels.copy()
    nudged[17] = np.nextafter(nudged[17], np.inf)  # one ulp
    for other, d in [
        (TemplatePatch(nudged, 9, 14), 3),
        (template, 4),
        (TemplatePatch(template.pixels, 14, 9), 3),  # transposed shape, same bytes
    ]:
        built = build_dictionary(other, d)
        assert built is not shared
        uncached = dictionary_module._legendre_dictionary.__wrapped__(
            other.pixels.tobytes(), other.height, other.width, d
        )
        assert built.matrix.tobytes() == uncached.matrix.tobytes()


def test_shared_dictionaries_still_check_their_arguments():
    template = bumps_template(8, 8)
    build_dictionary(template, 2)
    with pytest.raises(ValueError, match="nonnegative"):
        build_dictionary(template, -1)
    with pytest.raises(ValueError, match="2 x 2 grid"):
        build_dictionary(TemplatePatch.from_image(np.ones((1, 8))), 0)


def test_dictionary_cache_stays_within_its_bound():
    bound = dictionary_module._legendre_dictionary.cache_info().maxsize
    for seed in range(bound + 3):
        build_dictionary(bumps_template(4, 4, seed=seed), 1)
    assert dictionary_module._legendre_dictionary.cache_info().currsize == bound


@pytest.mark.parametrize("label", ["pafimocs", "pf-mt-3"])
def test_tracking_with_a_shared_dictionary_gives_the_same_bytes(label):
    cfg = harness.SimConfig(n_frames=3)
    truth = harness.generate_sequence(cfg, np.random.default_rng(0))
    spec = harness.parse_filter_label(label, cfg.d)
    fcfg = replace(harness.resolve_filter_config(spec, cfg), n_pf=10)

    def track():
        return run_tracker(truth.frames, truth.template, cfg.params, fcfg, truth.states[0], 1)

    dictionary_module._legendre_dictionary.cache_clear()
    cold = track()
    hits = dictionary_module._legendre_dictionary.cache_info().hits
    warm = track()
    assert dictionary_module._legendre_dictionary.cache_info().hits == hits + 1
    for name in ("motion", "coeffs", "ess", "max_log_weight", "support_sizes"):
        assert getattr(cold, name).tobytes() == getattr(warm, name).tobytes()
    assert (cold.lost_at, cold.unconverged_solves) == (warm.lost_at, warm.unconverged_solves)


def test_template_patch_geometry():
    image = np.arange(6.0).reshape(2, 3)
    patch = TemplatePatch.from_image(image, origin=(10, 20))
    assert patch.height == 2 and patch.width == 3
    assert np.array_equal(patch.image(), image)
    assert patch.coord_i[0] == 10 and patch.coord_j[0] == 20
    assert patch.centroid_i == pytest.approx(10.5)
    assert patch.centroid_j == pytest.approx(21.0)
    assert np.array_equal(patch.axis_i, [10.0, 11.0])
    assert np.array_equal(patch.axis_j, [20.0, 21.0, 22.0])


def test_ml_coeff_fit_round_trip():
    template = bumps_template()
    dictionary = build_dictionary(template, 3)
    rng = np.random.default_rng(1)
    lam = rng.standard_normal(7)
    patch = template.pixels + dictionary.matrix @ lam
    fitted = ml_coeff_fit(patch, template, dictionary)
    assert np.linalg.norm(fitted - lam) <= 1e-8 * max(1.0, np.linalg.norm(lam))

    assert np.allclose(ml_coeff_fit(template.pixels, template, dictionary), 0.0, atol=1e-10)


def test_ml_coeff_fit_residual_orthogonality():
    template = bumps_template()
    dictionary = build_dictionary(template, 3)
    rng = np.random.default_rng(2)
    patch = template.pixels + rng.normal(0, 20, size=template.pixels.size)
    fitted = ml_coeff_fit(patch, template, dictionary)
    resid = (patch - template.pixels) - dictionary.matrix @ fitted
    lhs = np.max(np.abs(dictionary.matrix.T @ resid))
    rhs = np.max(np.abs(dictionary.matrix.T @ (patch - template.pixels)))
    assert lhs <= 1e-8 * rhs


def test_ml_coeff_fit_rank_deficient_reports_condition():
    zero = TemplatePatch.from_image(np.zeros((4, 4)))
    dictionary = build_dictionary(zero, 1)
    with pytest.raises(np.linalg.LinAlgError, match="condition"):
        ml_coeff_fit(np.ones(16), zero, dictionary)


def test_energy_support_examples():
    support, alpha = energy_support(np.array([10.0, 0.1, 0.0]), 0.99)
    assert support.indices == (0,)
    assert alpha == 10.0

    support, alpha = energy_support(np.array([1.0, 1.0, 1.0, 1.0]), 0.99)
    assert support.indices == (0, 1, 2, 3)
    assert alpha == 1.0

    support, alpha = energy_support(np.zeros(4), 0.99)
    assert support.indices == () and alpha == 0.0

    with pytest.raises(ValueError, match="fraction"):
        energy_support(np.ones(3), 0.0)


def test_energy_support_tie_break_and_minimality():
    # equal magnitudes: lower index enters first
    support, _ = energy_support(np.array([0.5, -0.5, 0.5, 0.5]), 0.5)
    assert support.indices == (0, 1)

    rng = np.random.default_rng(3)
    for _ in range(50):
        coeffs = rng.standard_normal(8) * rng.integers(0, 2, size=8)
        if not np.any(coeffs):
            continue
        support, _ = energy_support(coeffs, 0.9)
        total = float(coeffs @ coeffs)
        captured = float(np.sum(coeffs[support.as_array()] ** 2))
        assert captured >= 0.9 * total - 1e-12
        if len(support) > 1:
            # dropping the weakest member must fall below the fraction
            weakest = min(support.indices, key=lambda j: (abs(coeffs[j]), -j))
            reduced = captured - coeffs[weakest] ** 2
            assert reduced < 0.9 * total


def test_support_trace_hand_cases():
    const = np.tile(np.array([3.0, 0.0, 1e-6]), (4, 1))
    trace = support_trace(const)
    assert np.all(trace.add_frac[1:] == 0.0) and np.all(trace.del_frac[1:] == 0.0)
    assert math.isnan(trace.add_frac[0])

    disjoint = np.array([[2.0, 2.0, 0.0, 0.0], [0.0, 0.0, 5.0, 5.0]])
    trace = support_trace(disjoint)
    assert trace.add_frac[1] == 1.0 and trace.del_frac[1] == 1.0

    lone = support_trace(np.array([[1.0, 2.0]]))
    assert lone.masks.shape == (1, 2) and math.isnan(lone.add_frac[0])


def test_support_trace_model_sequence_addition_ratio():
    """Addition ratio of a simulated coefficient sequence approaches E|A|/s."""
    params = ModelParams(
        n_lambda=41,
        s_expected=5,
        p_a=0.03,
        p_r=0.216,
        sigma_l_sq=1.0,
        sigma_u=(0.0, 0.0, 0.0),
        sigma_o_sq=1.0,
    )
    rng = np.random.default_rng(5)
    support = SupportSet.from_indices(range(5), 41)
    coeffs = np.zeros(41)
    rows = []
    for _ in range(4000):
        support = sample_support_transition(support, params, rng)
        # large offsets keep every active coordinate above the energy cut
        coeffs = sample_coeff_transition(coeffs, support, params, rng)
        idx = support.as_array()
        boosted = np.zeros(41)
        boosted[idx] = coeffs[idx] + 100.0 * np.sign(coeffs[idx] + 0.5)
        rows.append(boosted)
    trace = support_trace(np.array(rows), fraction=0.999999)
    mean_add = np.nanmean(trace.add_frac[1:])
    # E|A| / s = 36 * 0.03 / 5 = 0.216, Monte Carlo slack
    assert abs(mean_add - 0.216) < 0.02


@st.composite
def coefficient_sequences(draw):
    """Short sequences whose rows tie in magnitude, repeat their predecessor
    or are all zero (an empty support)."""
    n_lambda = draw(st.integers(1, 6))
    value = st.sampled_from([0.0, 0.0, 1.0, -1.0, 2.0, 0.5, -3.0, 1e-3])
    row = st.lists(value, min_size=n_lambda, max_size=n_lambda)
    rows = draw(st.lists(row | st.just([0.0] * n_lambda), min_size=1, max_size=8))
    for t in draw(st.lists(st.integers(1, 7), max_size=3)):
        if t < len(rows):
            rows[t] = rows[t - 1]
    return np.array(rows)


@settings(max_examples=100, deadline=None)
@given(coefficient_sequences(), st.sampled_from([0.5, 0.9, 0.99, 1.0]))
def test_support_trace_matches_per_frame_set_differences(seq, fraction):
    """The mask-row trace equals one built frame by frame from the one-row
    energy support and set differences, bit for bit."""
    trace = support_trace(seq, fraction)
    frames = [energy_support(row, fraction) for row in seq]
    assert trace.masks.dtype == bool
    assert trace.masks.tolist() == [s.mask().tolist() for s, _ in frames]
    expected = support_trace_reference(
        [(s.indices, alpha) for s, alpha in frames], seq.shape[1]
    )
    got = (trace.alphas, trace.supp_frac, trace.add_frac, trace.del_frac)
    for ours, theirs in zip(got, expected):
        assert ours.tobytes() == np.array(theirs).tobytes()
    assert trace.membership_matrix().tolist() == [list(s.mask().astype(int)) for s, _ in frames]


def test_support_trace_csv(tmp_path):
    rows = np.array([[1.0, 0.0, 2.0], [1.0, 1.0, 0.0]])
    trace = support_trace(rows)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "frame,supp_frac,add_frac,del_frac,alpha"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0" and first[2] == "" and first[3] == ""


def test_membership_matrix():
    rows = np.array([[5.0, 0.0, 0.0], [0.0, 5.0, 0.0]])
    trace = support_trace(rows)
    assert np.array_equal(trace.membership_matrix(), [[1, 0, 0], [0, 1, 0]])


def test_dictionary_save_load_round_trip(tmp_path):
    template = bumps_template()
    dictionary = build_dictionary(template, 3)
    path = tmp_path / "dict.mat"
    save_dictionary(dictionary, path)
    back = load_dictionary(path)
    assert back.kind == "legendre"
    assert back.order == 3
    assert np.array_equal(back.matrix, dictionary.matrix)
    fileio.save_matrix(path, dictionary.matrix, (dictionary.n_pixels, 9, 4))
    with pytest.raises(ValueError, match=r"dictionary header \(64, 9\) does not match"):
        load_dictionary(path)
