"""Polynomial illumination basis over a template patch.

Illumination change across the patch is modeled as the template multiplied
pixel-wise by low-order Legendre polynomial surfaces. Basis image 0 is
constant; odd-numbered basis images vary along the row axis, even-numbered
ones along the column axis, with polynomial order growing every two images.
An order-``d`` basis therefore has ``2 d + 1`` members, and the dictionary
matrix stacks ``vec(template * basis_k)`` as columns (row-major ``vec``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from . import fileio
from .models import SupportSet

__all__ = [
    "TemplatePatch",
    "Dictionary",
    "SupportTrace",
    "legendre_eval",
    "build_basis_image",
    "build_dictionary",
    "ml_coeff_fit",
    "energy_support",
    "energy_rows",
    "support_trace",
    "save_dictionary",
    "load_dictionary",
]


def legendre_eval(k: int, x):
    """Evaluate the (unnormalized) Legendre polynomial of order ``k`` on [-1, 1].

    Uses the three-term recurrence (k+1) p_{k+1} = (2k+1) x p_k - k p_{k-1}.
    ``x`` may be a scalar or an array; values outside [-1, 1] are a domain
    error.
    """
    if k < 0:
        raise ValueError("polynomial order must be nonnegative")
    arr = np.asarray(x, dtype=float)
    if np.any(np.abs(arr) > 1.0):
        raise ValueError("legendre_eval is defined on [-1, 1]")
    p_k = _legendre_orders(k, arr)[k]
    return p_k if arr.ndim else float(p_k)


def _legendre_orders(k: int, arr: np.ndarray) -> list:
    """``[p_0(arr), ..., p_k(arr)]``, one pass of the three-term recurrence."""
    orders = [np.ones_like(arr), arr.copy()]
    for n in range(1, k):
        orders.append(((2 * n + 1) * arr * orders[n] - n * orders[n - 1]) / (n + 1))
    return orders[: k + 1]


def _axis_coords(n: int) -> np.ndarray:
    # maps pixel index 0..n-1 onto [-1, 1]
    return 2.0 * np.arange(n) / (n - 1) - 1.0


def build_basis_image(k: int, height: int, width: int) -> np.ndarray:
    """Basis image ``k`` on an ``height x width`` grid.

    k = 0 is all ones; odd k varies along rows with order (k+1)/2; even
    k >= 2 varies along columns with order k/2.
    """
    if k < 0:
        raise ValueError("basis index must be nonnegative")
    if height < 2 or width < 2:
        raise ValueError("basis images need at least a 2 x 2 grid")
    if k == 0:
        return np.ones((height, width))
    if k % 2 == 1:
        col = legendre_eval((k + 1) // 2, _axis_coords(height))
        return np.repeat(col[:, None], width, axis=1)
    row = legendre_eval(k // 2, _axis_coords(width))
    return np.repeat(row[None, :], height, axis=0)


def _freeze(arr: np.ndarray, dtype=float) -> np.ndarray:
    out = np.array(arr, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class TemplatePatch:
    """Template pixels placed in a frame.

    ``pixels`` is the row-major flattening of the patch, whose top-left
    pixel sits at frame row ``origin_i`` and column ``origin_j``; so pixel
    ``a * width + b`` sits at ``(axis_i[a], axis_j[b])``, and the patch stays
    anchored when motion is applied. The observation model maps each axis
    once instead of every pixel.
    """

    pixels: np.ndarray
    height: int
    width: int
    origin_i: int = 0
    origin_j: int = 0

    def __post_init__(self):
        n_l = self.height * self.width
        pixels = _freeze(self.pixels)
        if pixels.shape != (n_l,):
            raise ValueError(f"pixels must have length height * width = {n_l}")
        if not np.all(np.isfinite(pixels)):
            raise ValueError("template pixels must be finite")
        object.__setattr__(self, "pixels", pixels)

    @classmethod
    def from_image(cls, image, origin: tuple[int, int] = (0, 0)) -> "TemplatePatch":
        image = np.asarray(image, dtype=float)
        if image.ndim != 2:
            raise ValueError("template image must be 2-D")
        h, w = image.shape
        return cls(pixels=image.ravel(), height=h, width=w, origin_i=origin[0], origin_j=origin[1])

    def with_origin(self, origin_i: int, origin_j: int) -> "TemplatePatch":
        return replace(self, origin_i=origin_i, origin_j=origin_j)

    def image(self) -> np.ndarray:
        return self.pixels.reshape(self.height, self.width)

    @property
    def n_pixels(self) -> int:
        return self.height * self.width

    @cached_property
    def centroid_i(self) -> float:
        return self.origin_i + (self.height - 1) / 2

    @cached_property
    def centroid_j(self) -> float:
        return self.origin_j + (self.width - 1) / 2

    @cached_property
    def axis_i(self) -> np.ndarray:
        """Frame row of each template row, ``(height,)``."""
        return _freeze(np.arange(self.height) + self.origin_i)

    @cached_property
    def axis_j(self) -> np.ndarray:
        """Frame column of each template column, ``(width,)``."""
        return _freeze(np.arange(self.width) + self.origin_j)

    @property
    def coord_i(self) -> np.ndarray:
        """Frame row of each pixel, ``(n_pixels,)``."""
        return np.repeat(self.axis_i, self.width)

    @property
    def coord_j(self) -> np.ndarray:
        """Frame column of each pixel, ``(n_pixels,)``."""
        return np.tile(self.axis_j, self.height)


@dataclass(frozen=True, eq=False)
class Dictionary:
    """Column dictionary mapping coefficient vectors to patch illumination."""

    matrix: np.ndarray
    order: int
    kind: str = "legendre"

    def __post_init__(self):
        matrix = _freeze(self.matrix)
        if matrix.ndim != 2:
            raise ValueError("dictionary matrix must be 2-D")
        if self.kind == "legendre" and matrix.shape[1] != 2 * self.order + 1:
            raise ValueError("legendre dictionary must have 2 * order + 1 columns")
        object.__setattr__(self, "matrix", matrix)

    @property
    def n_pixels(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_lambda(self) -> int:
        return self.matrix.shape[1]

    @cached_property
    def gram(self) -> np.ndarray:
        return _freeze(self.matrix.T @ self.matrix)

    @cached_property
    def gram_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """``(values, vectors)`` of ``gram``, ascending, as ``np.linalg.eigh`` gives them."""
        values, vectors = np.linalg.eigh(self.gram)
        return _freeze(values), _freeze(vectors)


def build_dictionary(template: TemplatePatch, d: int) -> Dictionary:
    """Dictionary with columns vec(template * basis_k), k = 0 .. 2 d.

    Templates with equal pixels, height and width (the origin does not enter
    the basis) and the same order get one shared read-only object, so its
    cached ``gram`` and ``gram_eigh`` are computed once per process; the
    last 8 such dictionaries are kept.
    """
    if d < 0:
        raise ValueError("dictionary order must be nonnegative")
    h, w = template.height, template.width
    if h < 2 or w < 2:
        raise ValueError("basis images need at least a 2 x 2 grid")
    return _legendre_dictionary(template.pixels.tobytes(), h, w, d)


@lru_cache(maxsize=8, typed=True)  # typed: order 3.0 is not served the order-3 dictionary
def _legendre_dictionary(pixels: bytes, h: int, w: int, d: int) -> Dictionary:
    image = np.frombuffer(pixels).reshape(h, w)
    # p_0 .. p_d along the rows, (h, d + 1), and along the columns, (w, d + 1)
    along_i, along_j = (np.stack(_legendre_orders(d, _axis_coords(n)), axis=1) for n in (h, w))
    matrix = np.empty((h, w, 2 * d + 1))  # row-major pixels, one column per basis image
    matrix[:, :, 0::2] = image[:, :, None] * along_j  # k = 0 (p_0 = 1), even k
    matrix[:, :, 1::2] = image[:, :, None] * along_i[:, None, 1:]  # odd k
    return Dictionary(matrix=matrix.reshape(h * w, 2 * d + 1), order=d, kind="legendre")


def ml_coeff_fit(patch: np.ndarray, template: TemplatePatch, dictionary: Dictionary) -> np.ndarray:
    """Least-squares coefficients explaining ``patch - template``.

    Solved through an orthogonal factorization rather than normal equations.
    Raises ``numpy.linalg.LinAlgError`` when the dictionary is rank
    deficient, reporting its condition number.
    """
    patch = np.asarray(patch, dtype=float)
    if patch.shape != (template.n_pixels,):
        raise ValueError("patch must be a flat vector matching the template size")
    target = patch - template.pixels
    coeffs, _, rank, sv = np.linalg.lstsq(dictionary.matrix, target, rcond=None)
    if rank < dictionary.n_lambda:
        cond = math.inf if sv[-1] == 0.0 else float(sv[0] / sv[-1])
        raise np.linalg.LinAlgError(
            f"dictionary is rank deficient (rank {rank} < {dictionary.n_lambda}, "
            f"condition number {cond})"
        )
    return coeffs


def energy_support(coeffs: np.ndarray, fraction: float) -> tuple[SupportSet, float]:
    """Smallest-magnitude-greedy support capturing ``fraction`` of the energy.

    Indices are taken in decreasing magnitude order (ties broken toward the
    lower index) until the captured squared mass reaches
    ``fraction * ||coeffs||^2``. Returns the support and the magnitude of the
    smallest included coefficient; the zero vector gives an empty support and
    threshold 0.0.
    """
    mags = np.abs(np.asarray(coeffs, dtype=float))
    picked = energy_rows(mags[None], fraction)[0]
    alpha = float(np.min(mags[picked])) if np.any(picked) else 0.0
    return SupportSet.from_mask(picked), alpha


def energy_rows(coeffs: np.ndarray, fraction: float) -> np.ndarray:
    """Boolean masks ``(n, k)`` of :func:`energy_support` for coefficient rows ``(n, k)``.

    Per row: a stable sort by decreasing magnitude, the running squared
    mass, and one more index than the count of running sums below
    ``fraction`` of the total, which is where a sorted search would stop.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    mags = np.abs(np.ascontiguousarray(coeffs, dtype=float))  # rows sum as lone vectors
    total = np.sum(mags * mags, axis=1)
    order = np.argsort(-mags, axis=1, kind="stable")
    cum = np.cumsum(np.take_along_axis(mags, order, axis=1) ** 2, axis=1)
    count = np.count_nonzero(cum < fraction * total[:, None], axis=1) + 1
    count = np.where(total == 0.0, 0, np.minimum(count, mags.shape[1]))
    picked = np.zeros(mags.shape, dtype=bool)
    np.put_along_axis(picked, order, np.arange(mags.shape[1]) < count[:, None], axis=1)
    return picked


@dataclass
class SupportTrace:
    """Per-frame support statistics of a coefficient sequence.

    ``masks`` holds the supports as ``(n_frames, n_lambda)`` boolean rows;
    ``add_frac`` / ``del_frac`` are NaN on the first frame (no predecessor);
    frames whose support is empty report 0.0 ratios.
    """

    masks: np.ndarray
    alphas: np.ndarray
    supp_frac: np.ndarray
    add_frac: np.ndarray
    del_frac: np.ndarray

    def write_csv(self, path) -> None:
        """One row per frame; NaN change ratios are left empty."""

        def cell(x):
            return "" if math.isnan(x) else x

        fileio.write_csv(path, [
            ["frame", "supp_frac", "add_frac", "del_frac", "alpha"],
            *(
                [t, supp, cell(add), cell(rem), alpha]
                for t, (supp, add, rem, alpha) in enumerate(
                    zip(self.supp_frac, self.add_frac, self.del_frac, self.alphas)
                )
            ),
        ])

    def membership_matrix(self) -> np.ndarray:
        return self.masks.astype(int)


def support_trace(coeff_sequence: np.ndarray, fraction: float = 0.99) -> SupportTrace:
    """Energy supports (:func:`energy_rows`) and change ratios along a
    coefficient sequence, counted on the mask rows of all frames at once."""
    seq = np.atleast_2d(np.asarray(coeff_sequence, dtype=float))
    masks = energy_rows(seq, fraction)
    sizes = np.count_nonzero(masks, axis=1)
    alphas = np.min(np.abs(seq), axis=1, where=masks, initial=np.inf)
    alphas[sizes == 0] = 0.0
    moves = np.count_nonzero([masks[1:] & ~masks[:-1], masks[:-1] & ~masks[1:]], axis=2)
    ratios = np.zeros((2, len(seq)))  # added and removed over the current support size
    np.divide(moves, sizes[1:], out=ratios[:, 1:], where=sizes[1:] > 0)
    ratios[:, 0] = np.nan
    return SupportTrace(masks, alphas, sizes / seq.shape[1], *ratios)


def save_dictionary(dictionary: Dictionary, path) -> None:
    """Write the dictionary matrix under its (n_pixels, n_lambda, order) header."""
    fileio.save_matrix(
        path, dictionary.matrix, (dictionary.n_pixels, dictionary.n_lambda, dictionary.order)
    )


def load_dictionary(path) -> Dictionary:
    """Read a dictionary file, checking the header against the matrix shape."""
    matrix, (n_pixels, n_lambda, order) = fileio.load_matrix(path)
    if matrix.shape != (n_pixels, n_lambda):
        raise ValueError(
            f"dictionary header ({n_pixels}, {n_lambda}) does not match matrix "
            f"shape {matrix.shape}"
        )
    kind = "legendre" if n_lambda == 2 * order + 1 else "custom"
    return Dictionary(matrix=matrix, order=order, kind=kind)
