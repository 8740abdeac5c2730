"""State types and transition kernels for the tracked system.

The state at each step has three blocks: a motion vector (translation pair
plus scale), a support set over the coefficient axis, and a sparse
coefficient vector that is exactly zero off that support. All three blocks
evolve by simple Markov kernels:

* support: each index outside the previous support enters independently with
  probability ``p_a``; each index inside leaves with probability ``p_r``;
* coefficients: Gaussian random walk with per-coordinate variance
  ``sigma_l_sq`` on the current support, hard zeros elsewhere;
* motion: Gaussian random walk with diagonal covariance ``sigma_u``.

Transition log-densities are normalized (they include the Gaussian dimension
constants) and use ``-inf`` as the zero-probability sentinel. Components with
zero variance are treated as degenerate point masses: their log-density
contribution is 0.0 when the deviation is within ``ZERO_VAR_ATOL`` of zero
and ``-inf`` otherwise, which keeps noise-free configurations usable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .fileio import _read_value

__all__ = [
    "NEG_INF",
    "ZERO_VAR_ATOL",
    "SupportSet",
    "MotionState",
    "FullState",
    "ModelParams",
    "coeffs_on_axis",
    "derive_pr_stationary",
    "sample_support_transition",
    "sample_support_rows",
    "stp_support_log",
    "stp_support_rows",
    "sample_coeff_transition",
    "stp_coeffs_rows",
    "sample_motion_transition",
    "sample_walk_rows",
]

NEG_INF = float("-inf")

# Absolute slack allowed around a zero-variance (point mass) component before
# its log-density snaps to -inf. Covers float rounding in rendered pixels.
ZERO_VAR_ATOL = 1e-6

LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class SupportSet:
    """Sorted set of active indices inside an ambient axis of fixed size."""

    indices: tuple[int, ...]
    ambient_size: int

    def __post_init__(self):
        if self.ambient_size < 1:
            raise ValueError("ambient_size must be >= 1")
        prev = -1
        for idx in self.indices:
            if idx <= prev:
                raise ValueError("indices must be strictly increasing")
            if not 0 <= idx < self.ambient_size:
                raise ValueError(f"index {idx} outside [0, {self.ambient_size})")
            prev = idx

    @classmethod
    def from_indices(cls, indices, ambient_size: int) -> "SupportSet":
        return cls(tuple(sorted(set(int(i) for i in indices))), ambient_size)

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "SupportSet":
        return cls(tuple(np.flatnonzero(mask).tolist()), mask.size)

    def __len__(self) -> int:
        return len(self.indices)

    def as_array(self) -> np.ndarray:
        return np.array(self.indices, dtype=np.intp)

    def mask(self) -> np.ndarray:
        """Boolean membership row; built once per set, read-only and shared."""
        return self._mask

    @cached_property
    def _mask(self) -> np.ndarray:
        m = np.zeros(self.ambient_size, dtype=bool)
        if self.indices:
            m[np.array(self.indices, dtype=np.intp)] = True
        m.flags.writeable = False
        return m

    def complement(self) -> "SupportSet":
        inside = set(self.indices)
        return SupportSet(
            tuple(i for i in range(self.ambient_size) if i not in inside),
            self.ambient_size,
        )


@dataclass(frozen=True)
class MotionState:
    """Translation pair plus scale; the geometric part of the state."""

    u_x: float
    u_y: float
    s: float

    def as_array(self) -> np.ndarray:
        return np.array([self.u_x, self.u_y, self.s], dtype=float)

    @classmethod
    def from_array(cls, arr) -> "MotionState":
        u_x, u_y, s = (float(v) for v in arr)
        return cls(u_x, u_y, s)


@dataclass(frozen=True, eq=False)
class FullState:
    """One complete state: motion block, support set, coefficient vector."""

    motion: MotionState
    support: SupportSet
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.shape != (self.support.ambient_size,):
            raise ValueError(
                f"coeffs shape {coeffs.shape} does not match ambient size "
                f"{self.support.ambient_size}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    def on_axis(self, n_lambda: int) -> "FullState":
        """This state over ``n_lambda`` coefficients (:func:`coeffs_on_axis`);
        support indices past a cut are dropped."""
        kept = tuple(i for i in self.support.indices if i < n_lambda)
        coeffs = coeffs_on_axis(self.coeffs, n_lambda)
        return FullState(self.motion, SupportSet(kept, n_lambda), coeffs)


# Config file keys and their types; the diagonal motion covariance is
# flattened to three keys.
_PARAM_KEYS = {
    "n_lambda": int,
    "s_expected": int,
    "p_a": float,
    "p_r": float,
    "sigma_l_sq": float,
    "sigma_u_xx": float,
    "sigma_u_yy": float,
    "sigma_u_ss": float,
    "sigma_o_sq": float,
}


@dataclass(frozen=True)
class ModelParams:
    """Model constants shared by simulation, likelihoods, and trackers.

    ``sigma_u`` holds the three diagonal entries of the motion walk
    covariance (x translation, y translation, scale).
    """

    n_lambda: int
    s_expected: int
    p_a: float
    p_r: float
    sigma_l_sq: float
    sigma_u: tuple[float, float, float]
    sigma_o_sq: float

    def __post_init__(self):
        if self.n_lambda < 1:
            raise ValueError("n_lambda must be >= 1")
        if not 1 <= self.s_expected <= self.n_lambda:
            raise ValueError("s_expected must lie in [1, n_lambda]")
        if not 0.0 <= self.p_a < 0.5:
            raise ValueError("p_a must lie in [0, 0.5)")
        if not 0.0 <= self.p_r < 0.5:
            raise ValueError("p_r must lie in [0, 0.5)")
        if not all(0.0 <= v < math.inf for v in (self.sigma_l_sq, self.sigma_o_sq)):  # NaN too
            raise ValueError("variances must be nonnegative and finite")
        sigma_u = tuple(float(v) + 0.0 for v in self.sigma_u)  # + 0.0 turns -0.0 into 0.0
        if len(sigma_u) != 3 or not all(0.0 <= v < math.inf for v in sigma_u):
            raise ValueError("sigma_u must be three nonnegative finite diagonal entries")
        object.__setattr__(self, "sigma_u", sigma_u)
        for name in ("sigma_l_sq", "sigma_o_sq"):  # sqrt(-0.0) = -0.0 is no Gaussian scale
            if getattr(self, name) == 0.0:
                object.__setattr__(self, name, 0.0)

    def to_config(self) -> dict:
        values = (self.n_lambda, self.s_expected, self.p_a, self.p_r, self.sigma_l_sq,
                  *self.sigma_u, self.sigma_o_sq)
        return {key: kind(v) for (key, kind), v in zip(_PARAM_KEYS.items(), values)}

    @classmethod
    def from_config(cls, mapping: dict) -> "ModelParams":
        missing = [k for k in _PARAM_KEYS if k not in mapping]
        if missing:
            raise ValueError(f"config missing keys: {', '.join(missing)}")
        values = [_read_value(key, mapping[key], kind) for key, kind in _PARAM_KEYS.items()]
        return cls(*values[:5], sigma_u=tuple(values[5:8]), sigma_o_sq=values[8])

    def on_axis(self, n_lambda: int) -> "ModelParams":
        """The same constants over ``n_lambda`` coefficients, ``s_expected`` capped at it."""
        return replace(self, n_lambda=n_lambda, s_expected=min(self.s_expected, n_lambda))


def coeffs_on_axis(coeffs, n_lambda: int) -> np.ndarray:
    """``coeffs`` cut or zero-padded on its last axis to ``n_lambda`` entries: a
    lower-order Legendre axis is a prefix of a higher-order one."""
    coeffs = np.asarray(coeffs, dtype=float)
    out = np.zeros((*coeffs.shape[:-1], n_lambda))
    keep = min(n_lambda, coeffs.shape[-1])
    out[..., :keep] = coeffs[..., :keep]
    return out


def derive_pr_stationary(p_a: float, s: int, n_lambda: int) -> float:
    """Removal probability that balances expected additions and removals.

    With ``s`` active indices expected, additions arrive at rate
    ``(n_lambda - s) * p_a`` and removals at rate ``s * p_r``; equating the
    two gives ``p_r = (n_lambda - s) / s * p_a``.
    """
    if s <= 0 or s > n_lambda:
        raise ValueError("s must lie in [1, n_lambda]")
    if not 0.0 <= p_a < math.inf:  # NaN fails too
        raise ValueError("p_a must be nonnegative and finite")
    p_r = (n_lambda - s) / s * p_a
    if p_r >= 1.0:
        raise ValueError(f"stationary removal probability {p_r} is not a probability")
    return p_r


def sample_support_transition(prev: SupportSet, params: ModelParams, rng) -> SupportSet:
    """Draw the next support: the one-row case of :func:`sample_support_rows`."""
    return SupportSet.from_mask(sample_support_rows(prev.mask()[None], params, [rng])[0])


def sample_support_rows(masks: np.ndarray, params: ModelParams, rngs) -> np.ndarray:
    """Next support of each boolean mask row: Bernoulli additions then removals.

    Row ``i`` draws from ``rngs[i]`` in a fixed order, by one ``random(out=...)``
    call into row ``i`` of one stacked array, rows in order: one uniform per index
    outside its support (ascending) decides additions, then one uniform per
    index inside it (ascending) decides removals. Same streams, same draws.
    """
    masks = np.asarray(masks, dtype=bool)
    if masks.ndim != 2 or masks.shape[1] != params.n_lambda:
        raise ValueError("support ambient size does not match params.n_lambda")
    # one call draws what consecutive calls would; order: outside, then inside
    u = np.empty(masks.shape)
    for rng, row in zip(rngs, u, strict=True):
        rng.random(out=row)
    order = np.argsort(masks, axis=1, kind="stable")
    inside = np.take_along_axis(masks, order, axis=1)
    out = np.empty_like(masks)
    np.put_along_axis(out, order, np.where(inside, u >= params.p_r, u < params.p_a), axis=1)
    return out


def _count_log_rows(counts: np.ndarray, p: float) -> np.ndarray:
    # counts * log(p) with the 0 * log(0) = 0 convention
    if p == 0.0:
        return np.where(counts == 0, 0.0, NEG_INF)
    return np.where(counts == 0, 0.0, counts * math.log(p))


def stp_support_log(new: SupportSet, prev: SupportSet, params: ModelParams) -> float:
    """Log transition probability of one support move under the add/remove model."""
    return float(stp_support_rows(new.mask()[None], prev.mask()[None], params)[0])


def stp_support_rows(new: np.ndarray, prev: np.ndarray, params: ModelParams) -> np.ndarray:
    """:func:`stp_support_log` of each row of the boolean support masks ``new`` and ``prev``."""
    if new.shape != prev.shape:
        raise ValueError("support sets live in different ambient sizes")
    if new.shape[1] != params.n_lambda:
        raise ValueError("support ambient size does not match params.n_lambda")
    added = np.count_nonzero(new & ~prev, axis=1)
    removed = np.count_nonzero(prev & ~new, axis=1)
    n_prev = np.count_nonzero(prev, axis=1)
    return (
        _count_log_rows(added, params.p_a)
        + _count_log_rows(params.n_lambda - n_prev - added, 1.0 - params.p_a)
        + _count_log_rows(removed, params.p_r)
        + _count_log_rows(n_prev - removed, 1.0 - params.p_r)
    )


def sample_coeff_transition(
    prev: np.ndarray, new_support: SupportSet, params: ModelParams, rng
) -> np.ndarray:
    """Random-walk the coefficients on ``new_support``; exact zeros elsewhere."""
    prev = np.asarray(prev, dtype=float)
    if prev.shape != (params.n_lambda,):
        raise ValueError("prev coefficient vector has wrong length")
    if new_support.ambient_size != params.n_lambda:
        raise ValueError("support ambient size does not match params.n_lambda")
    new = np.zeros(params.n_lambda)
    idx = new_support.as_array()
    new[idx] = sample_walk_rows(prev[idx][None], params.sigma_l_sq, [rng])[0]
    return new


def stp_coeffs_rows(
    new: np.ndarray, prev: np.ndarray, masks: np.ndarray, params: ModelParams
) -> np.ndarray:
    """Log transition density of the on-support coefficient random walk, per row.

    Coefficients are ``(n, n_lambda)``, support masks alike; each row of
    ``new`` must be exactly zero off its support. An empty support gives 0.0
    (the move is the deterministic all-zero vector). One masked sum covers
    every row: the deviations off the support count as zeros.
    """
    shape = (len(new), params.n_lambda)
    if new.shape != shape or prev.shape != shape:
        raise ValueError("coefficient vectors have wrong length")
    if masks.shape != shape:
        raise ValueError("support ambient size does not match params.n_lambda")
    if np.any(new[~masks] != 0.0):
        raise ValueError("new coefficients must be exactly zero off the support")
    dev = np.where(masks, new - prev, 0.0)
    var = params.sigma_l_sq
    if var == 0.0:  # point mass
        return np.where(np.any(np.abs(dev) > ZERO_VAR_ATOL, axis=1), NEG_INF, 0.0)
    sizes = np.count_nonzero(masks, axis=1)
    return -0.5 * (sizes * (LOG_2PI + math.log(var)) + np.einsum("ij,ij->i", dev, dev) / var)


def sample_motion_transition(prev: MotionState, params: ModelParams, rng) -> MotionState:
    """Random-walk the motion block with the diagonal covariance ``sigma_u``."""
    new = sample_walk_rows(prev.as_array()[None], params.sigma_u, [rng])[0]
    return MotionState.from_array(new)


def sample_walk_rows(prev: np.ndarray, variance, rngs) -> np.ndarray:
    """Random walk of each row of ``prev``, with ``variance`` shared or per column.

    One ``rngs[i].standard_normal(out=...)`` call fills row ``i`` of the draws
    ``z``, rows in order, and row ``i`` adds ``scale * z + 0.0``: that is how
    ``Generator.normal(0.0, scale, k)`` computes its draws (``loc + scale *
    z``), so each stream's state and every bit match it, ``-0.0`` included.
    """
    scale = np.sqrt(np.asarray(variance, dtype=float))
    z = np.empty(prev.shape)
    for rng, row in zip(rngs, z, strict=True):
        rng.standard_normal(out=row)
    return prev + (scale * z + 0.0)
