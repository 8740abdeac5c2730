"""Region-of-interest observation model.

A frame shows the template somewhere: motion (translation plus scale about
the template centroid) maps each template pixel to a frame pixel, the mapped
pixels take the template value plus dictionary illumination plus Gaussian
noise, and every other pixel is independent uniform clutter. Mapped
coordinates are rounded half away from zero; the mapping is a pixel-wise
lookup (duplicate targets are kept), and placements that leave the frame are
marked invalid rather than clamped. The template's coordinates form a grid,
so only its ``height`` row and ``width`` column coordinates are mapped and
rounded; a pixel's index is its row's offset plus its column's.

Hypotheses are evaluated in stacks, one per row (:func:`grid_rows`,
:func:`mapped_rows`, :func:`log_likelihood`); :func:`compute_roi` and
:func:`residual_g` are the one-row case. Rounding sends nearby motions to
one grid, so the pixels form one ROI stack: :func:`mapped_rows` returns
``(pixels, index, valid)``, each distinct grid gathered once
(:func:`distinct_rows`), each row's grid index into it and each row's
validity. :func:`log_likelihood` reads that stack and its ``Phi' y``, formed
once: the mode-tracking move hands it the one its solver read (``filters``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dictionary import Dictionary, TemplatePatch, _freeze
from .models import NEG_INF, ZERO_VAR_ATOL, ModelParams, MotionState

__all__ = [
    "InvalidRoiError",
    "Frame",
    "RoiIndexSet",
    "NoiseModel",
    "round_half_away",
    "grid_rows",
    "mapped_rows",
    "distinct_rows",
    "compute_roi",
    "render_frame",
    "residual_g",
    "log_likelihood",
]


class InvalidRoiError(ValueError):
    """The motion hypothesis places part of the template outside the frame."""


@dataclass(frozen=True, eq=False)
class Frame:
    """One observed image, stored row-major flat."""

    pixels: np.ndarray
    height: int
    width: int

    def __post_init__(self):
        pixels = _freeze(self.pixels)
        if pixels.shape != (self.height * self.width,):
            raise ValueError("pixels must have length height * width")
        if not np.all(np.isfinite(pixels)):
            raise ValueError("frame pixels must be finite")
        object.__setattr__(self, "pixels", pixels)

    @classmethod
    def from_image(cls, image) -> "Frame":
        image = np.asarray(image, dtype=float)
        if image.ndim != 2:
            raise ValueError("frame image must be 2-D")
        return cls(pixels=image.ravel(), height=image.shape[0], width=image.shape[1])

    def image(self) -> np.ndarray:
        return self.pixels.reshape(self.height, self.width)

    @property
    def n_pixels(self) -> int:
        return self.height * self.width


@dataclass(frozen=True, eq=False)
class RoiIndexSet:
    """Flat frame indices the template maps to under one motion hypothesis."""

    indices: np.ndarray
    valid: bool

    def __post_init__(self):
        object.__setattr__(self, "indices", _freeze(self.indices, dtype=np.intp))


@dataclass(frozen=True)
class NoiseModel:
    """Observation noise on mapped pixels plus the clutter value bound.

    ``kind`` is ``pure-gaussian``, the only kind.
    """

    kind: str = "pure-gaussian"
    sigma_sq: float = 1.0
    pixel_max: float = 255.0

    def __post_init__(self):
        if self.kind != "pure-gaussian":
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not 0.0 <= self.sigma_sq < math.inf:  # NaN fails too
            raise ValueError("sigma_sq must be nonnegative and finite")
        if self.sigma_sq == 0.0:  # -0.0 would draw noise with scale sqrt(-0.0) = -0.0
            object.__setattr__(self, "sigma_sq", 0.0)
        if not 0.0 < self.pixel_max < math.inf:
            raise ValueError("pixel_max must be positive and finite")

    @classmethod
    def for_params(cls, params: ModelParams) -> "NoiseModel":
        """The noise of ``params``: variance ``sigma_o_sq``, the default clutter bound."""
        return cls(sigma_sq=params.sigma_o_sq)


def round_half_away(x):
    """Round to nearest integer with halves going away from zero."""
    arr = np.asarray(x, dtype=float)
    return np.sign(arr) * np.floor(np.abs(arr) + 0.5)


def grid_rows(motion: np.ndarray, template: TemplatePatch, frame_dims: tuple[int, int]):
    """Row offsets ``(n, height)``, columns ``(n, width)`` and validity ``(n,)`` of motion rows."""
    height, width = frame_dims
    ci, cj = template.centroid_i, template.centroid_j
    rows = round_half_away(motion[:, 0:1] + motion[:, 2:3] * (template.axis_i - ci) + ci)
    cols = round_half_away(motion[:, 1:2] + motion[:, 2:3] * (template.axis_j - cj) + cj)
    valid = np.all((rows >= 0) & (rows < height), 1) & np.all((cols >= 0) & (cols < width), 1)
    return (rows * width).astype(np.intp), cols.astype(np.intp), valid


def mapped_rows(frame: Frame, motion: np.ndarray, template: TemplatePatch) -> tuple:
    """``(pixels, index, valid)`` of motion rows: ROI pixels minus the template
    once per distinct grid, each row's grid in ``pixels`` and its validity.

    Invalid rows read pixel 0, so ``pixels[index[k]]`` is row ``k``'s gather.
    """
    offsets, cols, valid = grid_rows(motion, template, (frame.height, frame.width))
    offsets[~valid] = cols[~valid] = 0  # invalid rows read pixel 0
    first, index = distinct_rows(offsets, cols)
    grids = frame.pixels[offsets[first, :, None] + cols[first, None, :]]
    return grids.reshape(first.size, template.n_pixels) - template.pixels, index, valid


def distinct_rows(*arrays) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of 2-D ``arrays`` taken side by side, compared byte for byte.

    Returns the index of each distinct row's first occurrence, in order of
    first occurrence, and each row's position in that list.
    """
    keys = np.concatenate([np.ascontiguousarray(a).view(np.uint8) for a in arrays], axis=1)
    seen = {}  # row bytes -> index of their first occurrence
    firsts = np.array([seen.setdefault(k.tobytes(), i) for i, k in enumerate(keys)], dtype=np.intp)
    first = np.flatnonzero(firsts == np.arange(firsts.size))
    return first, np.searchsorted(first, firsts)


def compute_roi(
    motion: MotionState, template: TemplatePatch, frame_dims: tuple[int, int]
) -> RoiIndexSet:
    """Frame pixel indices of each template pixel under ``motion``: its row's
    :func:`grid_rows` offset plus its column; unclamped when the ROI is invalid."""
    offsets, cols, valid = grid_rows(motion.as_array()[None], template, frame_dims)
    return RoiIndexSet(indices=(offsets[0][:, None] + cols[0]).ravel(), valid=bool(valid[0]))


def render_frame(
    motion: MotionState,
    coeffs: np.ndarray,
    template: TemplatePatch,
    dictionary: Dictionary,
    frame_dims: tuple[int, int],
    noise: NoiseModel,
    rng,
) -> Frame:
    """Draw one frame: clutter everywhere, then the illuminated template.

    Draw order is fixed: one uniform per frame pixel for clutter, then one
    Gaussian per template pixel for observation noise. Raises
    ``InvalidRoiError`` when the motion puts the template outside the frame.
    """
    roi = compute_roi(motion, template, frame_dims)
    if not roi.valid:
        raise InvalidRoiError(f"motion {motion} leaves the {frame_dims} frame")
    height, width = frame_dims
    pixels = rng.uniform(0.0, noise.pixel_max, height * width)
    values = (
        template.pixels
        + dictionary.matrix @ np.asarray(coeffs, dtype=float)
        + rng.normal(0.0, math.sqrt(noise.sigma_sq), template.n_pixels)
    )
    pixels[roi.indices] = values
    return Frame(pixels=pixels, height=height, width=width)


def residual_g(
    frame: Frame,
    motion: MotionState,
    coeffs: np.ndarray,
    template: TemplatePatch,
    dictionary: Dictionary,
) -> np.ndarray:
    """Mapped-pixel residual: frame values minus template minus illumination."""
    pixels, _, valid = mapped_rows(frame, motion.as_array()[None], template)
    if not valid[0]:
        raise InvalidRoiError(f"motion {motion} leaves the frame")
    return pixels[0] - dictionary.matrix @ np.asarray(coeffs, dtype=float)


def log_likelihood(
    frame: Frame,
    motion: np.ndarray,
    coeffs: np.ndarray,
    template: TemplatePatch,
    dictionary: Dictionary,
    noise: NoiseModel,
    gathered: tuple | None = None,
) -> np.ndarray:
    """Log-likelihood of the frame under each (motion, coefficients) row.

    ``motion`` is ``(n, 3)`` and ``coeffs`` ``(n, n_lambda)``. The clutter
    block contributes ``(m - n_l) * log(1 / pixel_max)``; invalid placements
    score ``-inf``. ``gathered``, from a caller that has it, is :func:`mapped_rows`
    of these motions with ``pixels @ Phi`` second; it is read, not written.

    With ``sigma_sq > 0`` the squared residual comes from sufficient
    statistics: ``||y||^2`` and ``Phi' y`` once per distinct grid (one matrix
    product over the stack), then ``||y||^2 - 2 c' Phi' y + c' G c`` per row
    with the dictionary's cached Gram matrix ``G``, clamped at 0. Its error
    is absolute, about ``eps * (||y||^2 + ||Phi c||^2) / sigma_sq``, not
    relative to the residual. The point mass (``sigma_sq = 0``) tests the
    explicit residual pixel by pixel, as ``models`` does a zero variance.
    """
    if gathered is None:
        pixels, index, valid = mapped_rows(frame, motion, template)
        gathered = pixels, pixels @ dictionary.matrix, index, valid
    pixels, phity, index, valid = gathered
    coeffs = np.asarray(coeffs, dtype=float)
    clutter = -(frame.n_pixels - template.n_pixels) * math.log(noise.pixel_max)
    if noise.sigma_sq == 0.0:  # point mass: every pixel's residual within ZERO_VAR_ATOL
        r = pixels[index] - coeffs @ dictionary.matrix.T
        out = np.where(np.any(np.abs(r) > ZERO_VAR_ATOL, axis=1), NEG_INF, 0.0) + clutter
    else:  # ||y - Phi c||^2 = ||y||^2 - 2 c'Phi'y + c'Gc, with y's terms once per grid
        norms = np.einsum("ij,ij->i", pixels, pixels)
        cross = 2.0 * phity
        sq = norms[index] + np.einsum("ij,ij->i", coeffs, coeffs @ dictionary.gram - cross[index])
        sq = np.maximum(sq, 0.0) / noise.sigma_sq
        out = -0.5 * (sq + template.n_pixels * math.log(2.0 * np.pi * noise.sigma_sq)) + clutter
    out[~valid] = NEG_INF
    return out
