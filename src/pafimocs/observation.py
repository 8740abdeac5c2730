"""Region-of-interest observation model.

A frame shows the template somewhere: motion (translation plus scale about
the template centroid) maps each template pixel to a frame pixel, the mapped
pixels take the template value plus dictionary illumination plus Gaussian
noise, and every other pixel is independent uniform clutter. Mapped
coordinates are rounded half away from zero; the mapping is a pixel-wise
lookup (duplicate targets are kept), and placements that leave the frame are
marked invalid rather than clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dictionary import Dictionary, TemplatePatch
from .models import NEG_INF, MotionState, diag_gaussian_log_density

__all__ = [
    "InvalidRoiError",
    "Frame",
    "RoiIndexSet",
    "NoiseModel",
    "round_half_away",
    "compute_roi",
    "render_frame",
    "residual_g",
    "log_likelihood",
]


class InvalidRoiError(ValueError):
    """The motion hypothesis places part of the template outside the frame."""


def _freeze(arr: np.ndarray, dtype=float) -> np.ndarray:
    out = np.array(arr, dtype=dtype)
    out.flags.writeable = False
    return out


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

    ``kind`` is ``pure-gaussian`` or ``gaussian-mixture``; the mixture keeps
    a ``p_out`` fraction of pixels at the inflated variance ``sigma_out_sq``.
    """

    kind: str = "pure-gaussian"
    sigma_sq: float = 1.0
    sigma_out_sq: float = 0.0
    p_out: float = 0.0
    pixel_max: float = 255.0

    def __post_init__(self):
        if self.kind not in ("pure-gaussian", "gaussian-mixture"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.sigma_sq < 0.0:
            raise ValueError("sigma_sq must be nonnegative")
        if not 0.0 <= self.p_out < 1.0:
            raise ValueError("p_out must lie in [0, 1)")
        if self.kind == "gaussian-mixture" and self.sigma_out_sq < self.sigma_sq:
            raise ValueError("sigma_out_sq must dominate sigma_sq")
        if self.pixel_max <= 0.0:
            raise ValueError("pixel_max must be positive")


def round_half_away(x):
    """Round to nearest integer with halves going away from zero."""
    arr = np.asarray(x, dtype=float)
    return np.sign(arr) * np.floor(np.abs(arr) + 0.5)


def compute_roi(
    motion: MotionState, template: TemplatePatch, frame_dims: tuple[int, int]
) -> RoiIndexSet:
    """Frame pixel indices of each template pixel under ``motion``.

    Scaling is about the template centroid; translation follows. Rounded
    coordinates outside the frame flip ``valid`` off (indices are still
    returned unclamped).
    """
    height, width = frame_dims
    ci, cj = template.centroid_i, template.centroid_j
    rows = round_half_away(motion.u_x + motion.s * (template.coord_i - ci) + ci)
    cols = round_half_away(motion.u_y + motion.s * (template.coord_j - cj) + cj)
    valid = bool(
        np.all(rows >= 0) and np.all(rows < height) and np.all(cols >= 0) and np.all(cols < width)
    )
    indices = (rows * width + cols).astype(np.intp)
    return RoiIndexSet(indices=indices, valid=valid)


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
    roi = compute_roi(motion, template, (frame.height, frame.width))
    if not roi.valid:
        raise InvalidRoiError(f"motion {motion} leaves the frame")
    return (
        frame.pixels[roi.indices]
        - template.pixels
        - dictionary.matrix @ np.asarray(coeffs, dtype=float)
    )


def log_likelihood(
    frame: Frame,
    motion: MotionState,
    coeffs: np.ndarray,
    template: TemplatePatch,
    dictionary: Dictionary,
    noise: NoiseModel,
    mapped: np.ndarray | None = None,
) -> float:
    """Log-likelihood of the frame under one (motion, coefficients) hypothesis.

    The clutter block contributes ``(m - n_l) * log(1 / pixel_max)``; invalid
    placements return ``-inf``. The ``gaussian-mixture`` kind inflates a
    ``p_out`` fraction of the residuals to variance ``sigma_out_sq``.
    ``mapped`` is the frame's ROI pixels under ``motion`` minus the template,
    for a caller that has already gathered them from a valid placement; the
    ROI is then not computed again.
    """
    if mapped is None:
        roi = compute_roi(motion, template, (frame.height, frame.width))
        if not roi.valid:
            return NEG_INF
        mapped = frame.pixels[roi.indices] - template.pixels
    r = mapped - dictionary.matrix @ np.asarray(coeffs, dtype=float)
    clutter = -(frame.n_pixels - template.n_pixels) * math.log(noise.pixel_max)
    if noise.kind == "pure-gaussian" or noise.p_out == 0.0:
        return diag_gaussian_log_density(r, noise.sigma_sq) + clutter
    if noise.sigma_sq == 0.0:
        raise ValueError("gaussian-mixture likelihood needs positive variances")
    c_in = math.log1p(-noise.p_out) - 0.5 * math.log(2.0 * math.pi * noise.sigma_sq)
    c_out = math.log(noise.p_out) - 0.5 * math.log(2.0 * math.pi * noise.sigma_out_sq)
    per_pixel = np.logaddexp(
        c_in - r * r / (2.0 * noise.sigma_sq),
        c_out - r * r / (2.0 * noise.sigma_out_sq),
    )
    return float(np.sum(per_pixel)) + clutter
