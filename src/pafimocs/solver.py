"""Convex mode tracking of the sparse coefficient vector.

Given the mapped-pixel observation ``y`` (ROI values minus template), the
previous coefficient vector, and a conditioning support ``T``, the tracked
mode minimizes

    ||y - Phi lam||^2 / (2 sigma_o_sq)
    + beta ||(lam - lam_prev)_T||^2 / (2 sigma_l_sq)
    + gamma ||lam_{off T}||_1            [+ gamma_outlier ||o||_1]

optionally jointly with a per-pixel outlier vector ``o`` entering the data
term as ``y - Phi lam - o``.

:func:`solve_rows` solves a stack of such problems over one dictionary, and
:func:`solve` is its one-row case. The same stack gives the same bytes every
time; a stacked row and its lone solve agree within rounding, since products
with the shared dictionary and Gram inverses run as matrix-matrix products.
The search is feature-sign search (Lee, Battle, Raina & Ng 2007).
Starting from the ridge minimizer of the smooth part, each round solves the
smooth-plus-linear system restricted to the current sign pattern, certifies
the candidate, and otherwise moves to the cheapest point on the way to it,
dropping a coordinate whose sign changes or adding the one that violates
optimality most. At image data scales the optimal sign pattern is almost
always that of the ridge solution, so one round usually suffices. That round
runs stacked over the rows, from one cached eigendecomposition of the Gram
matrix and a small system on each row's mask or its complement; the rest
resume from it one row at a time, rows whose system is singular from zero,
whatever the trace setting. With dependent dictionary columns the search may
restart from zero, and it steps along null directions of singular systems
or, where it cannot, takes their minimum-norm least-squares point.
The search prices each step from the row's system and its cost at zero, and
every certificate without outliers (:func:`kkt_residual`) is formed from the
cached Gram matrix and ``Phi' y`` (its rounding bound: :func:`_kkt_gram`).

One search function (:func:`_exact_search`) ends every solve the same way:
a start point that certifies is returned after 0 rounds; otherwise the round
with the smallest KKT residual, flagged ``converged`` only when that residual
meets the tolerance (the trackers count the results without it). The search
and every certificate read the l1 term as one array of weights: ``gamma``
off ``T``, ``gamma_outlier`` on ``o``, zero on the smooth coordinates.

:func:`solve_with_outliers` runs the same search on the joint problem, a
lasso over ``(lam, o)`` with dictionary ``[Phi I]`` (minimizing over ``o``
alone leaves a Huber loss on the residual; She & Owen 2011), from the warm
start with ``o = 0``. Convergence is certified by the subgradient residual
computed from the full dictionary (not the search's cached Gram products).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .dictionary import Dictionary
from .models import SupportSet

__all__ = [
    "ModeTrackingProblem",
    "ModeTrackingRows",
    "SolverConfig",
    "SolverResult",
    "RowSolutions",
    "SscOracleResult",
    "evaluate_cost",
    "smooth_gradient",
    "kkt_residual",
    "solve",
    "solve_rows",
    "solve_with_outliers",
    "brute_force_ssc_oracle",
    "power_iteration_lmax",
]

# enumeration guard for the brute-force support oracle
_ORACLE_MAX_AMBIENT = 12
# eigenvalue ratio below which a Gram system counts as singular
_SINGULAR_RATIO = 1e-12
_EPS = np.finfo(float).eps


def _checked_rows(owner, y, prev, masks, rois=None) -> tuple:
    """The stacks ``y``, ``prev``, ``masks`` and ``rois`` (problem ``i`` reads row
    ``rois[i]`` of ``y``) after validating them and the dictionary and weights of ``owner``."""
    y = np.ascontiguousarray(y, dtype=float)
    prev = np.ascontiguousarray(prev, dtype=float)
    masks = np.ascontiguousarray(masks, dtype=bool)
    index = np.arange(len(y)) if rois is None else np.asarray(rois)
    dictionary = owner.dictionary
    if masks.ndim != 2 or masks.shape[1] != dictionary.n_lambda:
        raise ValueError("cond_support ambient size must match the dictionary columns")
    if y.ndim != 2 or y.shape[1] != dictionary.n_pixels or index.shape != (len(masks),):
        raise ValueError("y_residual_base length must match the dictionary rows")
    if index.dtype.kind not in "iu" or np.any((index < 0) | (index >= len(y))):
        raise ValueError("rois must index rows of y_residual_base")
    if prev.shape != masks.shape:
        raise ValueError("lambda_prev length must match the dictionary columns")
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(prev))):
        raise ValueError("problem data must be finite")
    # written so that NaN fails each check
    if not (0.0 < owner.sigma_o_sq < math.inf and 0.0 < owner.sigma_l_sq < math.inf):
        raise ValueError("sigma_o_sq and sigma_l_sq must be positive and finite")
    if not (0.0 <= owner.beta < math.inf and 0.0 <= owner.gamma < math.inf):
        raise ValueError("beta and gamma must be nonnegative and finite")
    return y, prev, masks, index


@dataclass(eq=False)
class ModeTrackingProblem:
    """One mode-tracking instance; see the module docstring for the cost."""

    y_residual_base: np.ndarray
    dictionary: Dictionary
    lambda_prev: np.ndarray
    cond_support: SupportSet
    sigma_o_sq: float
    sigma_l_sq: float
    beta: float = 1.0
    gamma: float = 0.7
    gamma_outlier: float | None = None

    def __post_init__(self):
        y, prev, _, _ = _checked_rows(
            self,
            np.asarray(self.y_residual_base, dtype=float)[None],
            np.asarray(self.lambda_prev, dtype=float)[None],
            self.cond_support.mask()[None],
        )
        if self.gamma_outlier is not None and not 0.0 <= self.gamma_outlier < math.inf:
            raise ValueError("gamma_outlier must be nonnegative and finite")
        object.__setattr__(self, "y_residual_base", y[0])
        object.__setattr__(self, "lambda_prev", prev[0])


@dataclass(eq=False)
class ModeTrackingRows:
    """Mode-tracking problems sharing one dictionary and one set of cost weights.

    Problem ``i`` (:meth:`problem`) is row ``i`` of ``lambda_prev`` and
    ``masks`` (the conditioning supports as boolean rows) with row
    ``rois[i]`` of ``y_residual_base`` (``rois`` given as None is ``arange(n)``),
    so problems on one ROI share its row. The data are validated once per stack.
    """

    y_residual_base: np.ndarray  # (n_rois, n_pixels)
    dictionary: Dictionary
    lambda_prev: np.ndarray  # (n, n_lambda)
    masks: np.ndarray  # (n, n_lambda) bool
    sigma_o_sq: float
    sigma_l_sq: float
    beta: float = 1.0
    gamma: float = 0.7
    rois: np.ndarray | None = None  # (n,) ints; None is one row each

    def __post_init__(self):
        self.y_residual_base, self.lambda_prev, self.masks, self.rois = _checked_rows(
            self, self.y_residual_base, self.lambda_prev, self.masks, self.rois
        )

    @functools.cached_property
    def phity(self) -> np.ndarray:
        """``Phi' y`` per ROI, formed once; the solve and the likelihood read it."""
        return self.y_residual_base @ self.dictionary.matrix

    def problem(self, i: int) -> ModeTrackingProblem:
        return ModeTrackingProblem(
            y_residual_base=self.y_residual_base[self.rois[i]],
            dictionary=self.dictionary,
            lambda_prev=self.lambda_prev[i],
            cond_support=SupportSet.from_mask(self.masks[i]),
            sigma_o_sq=self.sigma_o_sq,
            sigma_l_sq=self.sigma_l_sq,
            beta=self.beta,
            gamma=self.gamma,
        )


@dataclass
class SolverConfig:
    kkt_tolerance: float = 1e-6
    warm_start: np.ndarray | None = None
    record_trace: bool = False

    def __post_init__(self):
        if not 0.0 < self.kkt_tolerance < math.inf:  # NaN fails too
            raise ValueError("kkt_tolerance must be positive and finite")


class RowSolutions(NamedTuple):
    """Results of :func:`solve_rows`, row ``i`` for problem ``i``."""

    lambda_opt: np.ndarray  # (n, n_lambda)
    kkt_residual: np.ndarray  # (n,)
    iterations: np.ndarray  # (n,)
    converged: np.ndarray  # (n,) bool
    traces: list | None  # one per row when the config records traces


@dataclass
class SolverResult:
    lambda_opt: np.ndarray
    outlier_opt: np.ndarray | None
    objective: float
    kkt_residual: float
    iterations: int
    converged: bool
    trace: list | None = None


@dataclass
class SscOracleResult:
    lambda_opt: np.ndarray
    added: SupportSet
    removed: SupportSet
    objective: float


def power_iteration_lmax(mat: np.ndarray, iters: int = 20) -> float:
    """Largest-eigenvalue estimate of a symmetric PSD matrix (20 matvecs)."""
    n = mat.shape[0]
    v = np.linspace(1.0, 2.0, n)  # deterministic start, no zero pattern
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = mat @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
    return float(v @ (mat @ v))


def _checked_point(problem: ModeTrackingProblem, lam, outlier) -> tuple:
    """``lam`` and ``outlier`` as float arrays after checking them against ``problem``."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (problem.dictionary.n_lambda,):
        raise ValueError("lam length must match the dictionary columns")
    if outlier is not None:
        if problem.gamma_outlier is None:
            raise ValueError("outlier vector given but gamma_outlier is unset")
        outlier = np.asarray(outlier, dtype=float)
        if outlier.shape != (problem.dictionary.n_pixels,):
            raise ValueError("outlier length must match the dictionary rows")
    return lam, outlier


def evaluate_cost(problem: ModeTrackingProblem, lam, outlier=None) -> float:
    """Cost functional evaluated directly from its definition."""
    lam, outlier = _checked_point(problem, lam, outlier)
    r = problem.y_residual_base - problem.dictionary.matrix @ lam
    total = 0.0
    if outlier is not None:
        r = r - outlier
        total += problem.gamma_outlier * float(np.sum(np.abs(outlier)))
    total += float(r @ r) / (2.0 * problem.sigma_o_sq)
    mask = problem.cond_support.mask()
    d_on = lam[mask] - problem.lambda_prev[mask]
    total += problem.beta * float(d_on @ d_on) / (2.0 * problem.sigma_l_sq)
    total += problem.gamma * float(np.sum(np.abs(lam[~mask])))
    return total


def _gram_cost(const, gram_big, rhs, weights, x) -> float:
    """The cost at ``x`` from its system: ``const + x' gram_big x / 2 - rhs' x
    + sum(weights |x|)``, where ``const`` is the cost at zero."""
    return float(const + x @ (0.5 * (gram_big @ x) - rhs) + weights @ np.abs(x))


def _kkt_rows(grad: np.ndarray, x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Max-norm subgradient residual of each row under the l1 weights
    ``weights``, zero on the smooth coordinates."""
    residual = np.where(
        x == 0.0,
        np.maximum(np.abs(grad) - weights, 0.0),
        np.abs(grad + weights * np.sign(x)),
    )
    return np.max(residual, axis=1, initial=0.0)


def smooth_gradient(problem: ModeTrackingProblem, lam, outlier=None):
    """Gradient of the smooth part at (lam, outlier) from the data residual on
    the full dictionary; outlier grad is None when no outlier vector is passed."""
    lam, outlier = _checked_point(problem, lam, outlier)
    phi = problem.dictionary.matrix
    resid = lam[None] @ phi.T - problem.y_residual_base[None]
    if outlier is not None:
        resid = resid + outlier[None]
    g_lam = (resid @ phi)[0] / problem.sigma_o_sq
    prior = problem.beta / problem.sigma_l_sq * (lam - problem.lambda_prev)
    g_lam = np.where(problem.cond_support.mask(), g_lam + prior, g_lam)
    return g_lam, None if outlier is None else resid[0] / problem.sigma_o_sq


def _kkt_gram(owner, phity, prev, masks, weights, x) -> np.ndarray:
    """KKT residual of each row of ``x`` under the l1 ``weights``, with the
    variances, ``beta`` and dictionary of ``owner`` (a problem or a stack), from
    the cached Gram matrix ``G`` and the rows ``phity`` of ``Phi' y``: the
    gradient is ``c_data (G x - Phi' y) + c_prior (x - prev)`` on ``masks``.
    Its rounding error is about ``eps c_data max_j (|Phi|' (|Phi| |x| +
    |y|))_j`` plus the prior term's."""
    c_data, c_prior = 1.0 / owner.sigma_o_sq, owner.beta / owner.sigma_l_sq
    grad = c_data * (x @ owner.dictionary.gram.T - phity) + c_prior * (masks * (x - prev))
    return _kkt_rows(grad, x, weights)


def kkt_residual(problem: ModeTrackingProblem, lam, outlier=None) -> float:
    """Max-norm subgradient residual; 0 exactly at a minimizer. Without an
    outlier vector it is computed in coefficient space (:func:`_kkt_gram`),
    with one on the full dictionary (:func:`smooth_gradient`)."""
    lam, outlier = _checked_point(problem, lam, outlier)
    mask = problem.cond_support.mask()
    weights = problem.gamma * ~mask
    if outlier is None:
        phity = problem.y_residual_base[None] @ problem.dictionary.matrix
        return float(_kkt_gram(problem, phity, problem.lambda_prev, mask, weights, lam[None])[0])
    grad = np.concatenate(smooth_gradient(problem, lam, outlier))
    weights = np.concatenate([weights, np.full(outlier.size, problem.gamma_outlier)])
    return float(_kkt_rows(grad[None], np.concatenate([lam, outlier])[None], weights)[0])


def _pattern_candidate(pattern, weights, gram_big, rhs, mask, singular=False):
    """Exact solve of the smooth(+linear) system on the current sign pattern;
    with ``singular``, its minimum-norm least-squares point."""
    idx = np.flatnonzero(mask | (pattern != 0.0))
    sub = gram_big[np.ix_(idx, idx)]
    target = rhs[idx] - weights[idx] * np.sign(pattern[idx])
    if singular and idx.size:
        v = _range_solve(*np.linalg.eigh(sub), target)
    else:
        try:
            v = np.linalg.solve(sub, target)
        except np.linalg.LinAlgError:
            v, *_ = np.linalg.lstsq(sub, target, rcond=None)
    cand = np.zeros_like(pattern)
    cand[idx] = v
    return cand


def _range_solve(values, vectors, target):
    """Minimum-norm least-squares solution of a symmetric system from its
    ``eigh`` ``(values, vectors)``: the system on its range, spanned by the
    eigenvalues above ``_SINGULAR_RATIO`` times the largest."""
    keep = values > _SINGULAR_RATIO * values[-1]
    return vectors[:, keep] @ ((target @ vectors[:, keep]) / values[keep])


def _null_descent(point, pattern, weights, gram_big, rhs, mask):
    """``(moved, least_squares)`` of the pattern's singular system: where the
    cost, falling along a null direction of the system, first zeroes an l1
    coordinate of ``point``, and the system's minimum-norm least-squares point.

    Along such a direction the smooth part is flat and the l1 part linear,
    so the cost falls until a sign changes; ``moved`` is None when it does
    not fall that way. Both are None when the system is regular.
    """
    off = ~mask
    idx = np.flatnonzero(mask | (pattern != 0.0))
    values, vectors = np.linalg.eigh(gram_big[np.ix_(idx, idx)])
    if values[0] > _SINGULAR_RATIO * values[-1]:
        return None, None
    least_squares = np.zeros_like(point)
    target = rhs[idx] - weights[idx] * np.sign(pattern[idx])
    least_squares[idx] = _range_solve(values, vectors, target)
    direction = np.zeros_like(point)
    direction[idx] = vectors[:, 0]
    # directional derivative of the cost: the terms linear in the direction,
    # which fix its orientation, then the l1 growth of coordinates now zero
    rate = float((gram_big @ point - rhs + weights * np.sign(point)) @ direction)
    if rate > 0.0:
        direction, rate = -direction, -rate
    at_zero = off & (point == 0.0)
    rate += float(np.sum(weights[at_zero] * np.abs(direction[at_zero])))
    hits = np.flatnonzero(off & (point * direction < 0.0))
    if not rate < 0.0 or hits.size == 0:
        return None, least_squares
    ratios = -point[hits] / direction[hits]
    j = int(np.argmin(ratios))
    moved = point + ratios[j] * direction
    moved[hits[j]] = 0.0
    return moved, least_squares


def _exact_search(
    start, origin, weights, gram_big, rhs, mask, cost, certify, tol, singular=False, first=None
):
    """Feature-sign search (Lee, Battle, Raina & Ng 2007) and the exit policy
    of every solve: ``(point, kkt residual, rounds, converged, path)``.

    The objective is ``x' gram_big x / 2 - rhs' x + sum(weights |x|)``
    with ``weights`` zero on ``mask``; the coordinates off ``mask`` are the
    l1 ones. ``cost`` evaluates it (up to a constant) from its definition and
    ``certify`` returns the KKT residual of a point. ``start``, a point and
    the caller's certificate of it, is returned after 0 rounds if it
    certifies; else the search runs from ``origin`` (a ridge minimizer or
    warm start from the caller), or from zero when round 1 fails
    and zero costs less. Each round solves the system on the current sign
    pattern (by its minimum-norm least-squares point when ``singular``, as
    ``gram_big`` may then have singular principal blocks, where
    ``np.linalg.solve`` can return a point of size 1e15) and certifies the
    candidate (round 1 is ``first``, the caller's
    ``(candidate, kkt)`` on that pattern, when given). The search moves to the
    cheapest of the candidate and the points on the way to it where an l1
    coordinate changes sign (that coordinate set to zero). A candidate whose
    signs match the pattern that produced it and that is stationary on it
    (within ``tol`` or the rounding level of the pattern's system, whichever
    is larger) is optimal there, so the zero l1 coordinate with the largest
    subgradient violation joins the next pattern. Otherwise, when the cost
    does not fall, the pattern's system is singular and the search moves
    along its null direction (:func:`_null_descent`); where no such move
    lowers the cost, the search ends with one more round, the system's
    minimum-norm least-squares point (the cost is flat along the null
    space, so every solution of the system costs the same). Stops at the
    first certified candidate, when no move lowers the cost, or after
    ``2 n + 3`` rounds for ``n`` unknowns, and returns the round with the
    smallest KKT residual. The path holds ``(point, kkt)`` of the start and
    of each round's candidate, which a trace prices.
    """
    off = ~mask
    magnitude = np.abs(gram_big)  # for the rounding level of each pattern's system
    point = pattern = origin
    point_cost = None
    rounds = []
    for _ in range(0 if start[1] <= tol else 2 * rhs.size + 3):
        if first is None:
            cand = _pattern_candidate(pattern, weights, gram_big, rhs, mask, singular)
            first = cand, certify(cand)
        rounds.append(first)
        (cand, kkt), first = first, None
        if kkt <= tol:
            break
        if point_cost is None:
            point_cost = cost(point)
            zero = np.zeros_like(rhs)
            zero_cost = cost(zero)
            if zero_cost < point_cost:
                # e.g. the ridge solution of a singular system: restart at zero
                point = pattern = zero
                point_cost = zero_cost
                continue
        best, best_cost = cand, cost(cand)
        for i in np.flatnonzero(off & (point * cand < 0.0)):
            step = point + point[i] / (point[i] - cand[i]) * (cand - point)
            step[i] = 0.0
            step_cost = cost(step)
            if step_cost < best_cost:
                best, best_cost = step, step_cost
        consistent = best is cand and np.array_equal(np.sign(cand[off]), np.sign(pattern[off]))
        # a candidate optimal on the pattern of the point costs no more than
        # it, up to rounding; so does a step that zeroes a coordinate left at
        # rounding level (two coordinates that cross zero together)
        tied = consistent or best is not cand
        if best_cost < point_cost or (tied and best_cost <= point_cost * (1.0 + 1e-12)):
            point, point_cost, pattern = best, best_cost, best
            if not consistent:
                continue
            grad = gram_big @ cand - rhs
            at_zero = off & (cand == 0.0)
            violation = np.where(at_zero, np.abs(grad) - weights, 0.0)
            k = int(np.argmax(violation))
            stationary = np.abs(grad + weights * np.sign(cand))
            # the pattern system is solved only to the rounding level of its terms
            rounding = 64.0 * _EPS * (magnitude @ np.abs(cand) + np.abs(rhs) + weights)
            if violation[k] > 0.0 and np.all((stationary <= np.maximum(tol, rounding))[~at_zero]):
                pattern = cand.copy()
                pattern[k] = -np.sign(grad[k])
                continue
        # the cost did not fall, or the candidate is not stationary on its
        # pattern, or it is optimal yet uncertified: take the pattern's
        # system as singular
        moved, least_squares = _null_descent(point, pattern, weights, gram_big, rhs, mask)
        moved_cost = math.inf if moved is None else cost(moved)
        if not moved_cost < point_cost:
            if least_squares is not None:  # a singular system the search cannot leave
                rounds.append((least_squares, certify(least_squares)))
            break
        point = pattern = moved
        point_cost = moved_cost
    point, kkt = min(rounds, key=lambda r: r[1], default=start)
    return point, kkt, len(rounds), kkt <= tol, [start, *rounds]


def _warm_start(config: SolverConfig, shape: tuple) -> np.ndarray:
    if config.warm_start is None:
        return np.zeros(shape)
    x = np.array(config.warm_start, dtype=float, order="C")
    if x.shape != shape:
        raise ValueError("warm_start has wrong shape")
    return x


def solve(problem: ModeTrackingProblem, config: SolverConfig | None = None) -> SolverResult:
    """Minimize the coefficient-only mode-tracking cost: the one-row case of
    :func:`solve_rows`.

    A warm start that already certifies is returned with ``iterations`` 0.
    Otherwise feature-sign search runs from the ridge minimizer (see the
    module docstring) and ``iterations`` counts its rounds; the trace holds
    the warm start (row 0) and each round's candidate. When no round
    certifies, the candidate with the smallest KKT residual is returned
    with ``converged = False``. Every result carries exactly
    :func:`kkt_residual` of its point.
    """
    if config is None:
        config = SolverConfig()
    rows = ModeTrackingRows(
        y_residual_base=problem.y_residual_base[None],
        dictionary=problem.dictionary,
        lambda_prev=problem.lambda_prev[None],
        masks=problem.cond_support.mask()[None],
        sigma_o_sq=problem.sigma_o_sq,
        sigma_l_sq=problem.sigma_l_sq,
        beta=problem.beta,
        gamma=problem.gamma,
    )
    warm = _warm_start(config, (problem.dictionary.n_lambda,))
    out = solve_rows(rows, replace(config, warm_start=warm[None]))
    x = out.lambda_opt[0]
    return SolverResult(
        x,
        None,
        evaluate_cost(problem, x),
        float(out.kkt_residual[0]),
        int(out.iterations[0]),
        bool(out.converged[0]),
        None if out.traces is None else out.traces[0],
    )


def solve_rows(rows: ModeTrackingRows, config: SolverConfig | None = None) -> RowSolutions:
    """Solve each row's problem as :func:`solve` would, up to rounding.

    ``config.warm_start`` is ``(n, n_lambda)``, zeros when None. ``Phi' y`` is
    ``rows.phity``, once per ROI, which the likelihood reads too. The l1
    weights ``gamma`` off each mask are formed once, and the candidates'
    target, both stacked certificates and each searched row read them. The warm
    starts' and the first sign-pattern candidates' certificates (from the Gram
    matrix, as :func:`kkt_residual` forms them) run over the whole stack, as do
    the ridge points and then the candidates, each one solve of every row's
    system (:func:`_mask_systems`), and a searched row does not certify its
    warm start again. A row whose candidate certifies is done in one round. A
    row is searched alone (:func:`_exact_search`) when its warm start
    certifies, its candidate does not, or it has no stacked round 1, as its
    base or small system is singular (then from zero) or its ridge point has an
    exact zero off the support (a smaller first pattern); else it resumes from
    that round. With a singular Gram matrix a searched row solves each sign
    pattern by its minimum-norm least-squares point. The search prices and
    certifies in coefficient space; only a trace reads :func:`evaluate_cost`,
    so traces only record. ``Phi' y`` and
    the products with the Gram matrix and the shared bases are matrix-matrix
    products over the stack. So a row's bits can differ from its lone solve's
    by rounding, and near a tie its search may take another round; each result
    still carries its own KKT residual, and the same stack gives the same
    bytes.
    """
    if config is None:
        config = SolverConfig()
    warm = _warm_start(config, rows.lambda_prev.shape)
    n = len(warm)
    tol, prev, masks = config.kkt_tolerance, rows.lambda_prev, rows.masks
    weights = rows.gamma * ~masks
    c_data = 1.0 / rows.sigma_o_sq
    c_prior = rows.beta / rows.sigma_l_sq
    gram_data = c_data * rows.dictionary.gram
    phity = rows.phity[rows.rois]
    rhs = c_data * phity + c_prior * (prev * masks)
    kkt_warm = _kkt_gram(rows, phity, prev, masks, weights, warm)
    systems = _mask_systems(rows.dictionary, c_data, c_prior, masks)
    values = rows.dictionary.gram_eigh[0]  # a singular G can make a row's patterns singular
    singular = not values[0] > _SINGULAR_RATIO * values[-1]
    ridge, solved = _solve_systems(systems, rhs)
    target = rhs - weights * np.sign(ridge)
    cand = _solve_systems(systems, target)[0]
    stacked = solved & ~np.any(~masks & (ridge == 0.0), axis=1)  # rows with a stacked round 1
    traces = [None] * n if config.record_trace else None
    kkt_cand = _kkt_gram(rows, phity, prev, masks, weights, cand)
    out = RowSolutions(cand, kkt_cand, np.ones(n, dtype=int), np.ones(n, dtype=bool), traces)
    searched = (kkt_warm <= tol) | ~stacked | ~(out.kkt_residual <= tol)
    for i in np.flatnonzero(searched | config.record_trace):
        one = slice(i, i + 1)
        path = [(warm[i], kkt_warm[i]), (cand[i].copy(), out.kkt_residual[i])]
        if searched[i]:
            w, gram_big = weights[i], gram_data + np.diag(c_prior * masks[i])
            y, on = rows.y_residual_base[rows.rois[i]], prev[i, masks[i]]
            at_zero = 0.5 * (c_data * (y @ y) + c_prior * (on @ on))
            cost = functools.partial(_gram_cost, at_zero, gram_big, rhs[i], w)
            lam, out.kkt_residual[i], out.iterations[i], out.converged[i], path = _exact_search(
                path[0], ridge[i], w, gram_big, rhs[i], masks[i], cost,
                lambda x: float(_kkt_gram(rows, phity[one], prev[one], masks[one], w, x[None])[0]),
                tol, singular, path[1] if stacked[i] else None,
            )
            out.lambda_opt[i] = lam
        if out.traces is not None:
            price = functools.partial(evaluate_cost, rows.problem(i))
            out.traces[i] = [(r, price(x), float(res)) for r, (x, res) in enumerate(path)]
    return out


def _mask_systems(dictionary, c_data, c_prior, masks) -> list:
    """Every row's system ``(c_data G + c_prior diag(mask)) x = t`` from the
    cached ``eigh(G)``: on ``H = inv(c_data G)``, ``c = c_prior``, ``S`` = the
    mask if it holds at most half the coordinates, else on ``H = inv(c_data G
    + c_prior I)``, ``c = -c_prior``, ``S`` = the rest. ``(rows, H, c, pos,
    live, small)`` per regular base (``_SINGULAR_RATIO``): ``pos`` puts each
    row's ``S`` first (``live``), ``small`` is ``I + c H[S, S]`` padded by the
    identity (all three None if no ``S``); rows with a singular system left out."""
    values, vectors = dictionary.gram_eigh
    low = 2 * np.sum(masks, axis=1) <= masks.shape[1]
    systems = []
    for group, shift, c, sets in ((low, 0.0, c_prior, masks), (~low, c_prior, -c_prior, ~masks)):
        w = c_data * values + shift
        if np.any(group) and w[0] > _SINGULAR_RATIO * w[-1]:
            rows, h = np.flatnonzero(group), (vectors / w) @ vectors.T
            size = np.sum(sets[rows], axis=1)
            pos = live = small = None
            if size.any():
                pos = np.argsort(~sets[rows], axis=1, kind="stable")[:, : size.max()]
                live = np.arange(pos.shape[1]) < size[:, None]
                pairs = live[:, :, None] & live[:, None, :]
                small = np.eye(pos.shape[1]) + c * h[pos[:, :, None], pos[:, None, :]] * pairs
                if shift and not values[0] > _SINGULAR_RATIO * values[-1]:  # G singular:
                    keep = np.linalg.eigvalsh(small)[:, 0] > _SINGULAR_RATIO  # so are some rows'
                    rows, pos, live, small = rows[keep], pos[keep], live[keep], small[keep]
            systems.append((rows, h, c, pos, live, small))
    return systems


def _solve_systems(systems, targets):
    """Each row's ``x = H (t - c x_S)`` with ``(I + c H[S, S]) x_S = (H t)_S``
    (the inverse-update identity, Hager 1989) from :func:`_mask_systems`, so
    a row with empty ``S`` costs one product, and whether it was solved: a
    row whose base or small system is singular is left at zero."""
    x, solved = np.zeros(targets.shape), np.zeros(len(targets), dtype=bool)
    for rows, h, c, pos, live, small in systems:
        t = targets[rows]
        solved[rows] = True
        if pos is None:
            x[rows] = t @ h.T
            continue
        rhs = np.take_along_axis(t @ h.T, pos, axis=1) * live
        try:
            xs = np.linalg.solve(small, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:  # one singular row fails the stacked solve
            xs = np.zeros_like(rhs)
            for j, i in enumerate(rows):
                try:
                    xs[j] = np.linalg.solve(small[j], rhs[j])
                except np.linalg.LinAlgError:
                    solved[i] = False
        shift = np.zeros_like(t)
        np.put_along_axis(shift, pos, c * xs, axis=1)
        x[rows] = (t - shift) @ h.T
    x[~solved] = 0.0
    return x, solved


def solve_with_outliers(
    problem: ModeTrackingProblem, config: SolverConfig | None = None
) -> SolverResult:
    """Joint minimization over coefficients and a sparse per-pixel outlier vector.

    The joint cost is a lasso over ``z = (lam, o)`` with dictionary
    ``[Phi I]``: the Gram matrix is ``[[G, Phi'], [Phi, I]] / sigma_o_sq``
    plus the prior on ``T``, and the l1 weights are ``gamma`` off ``T`` and
    ``gamma_outlier`` on ``o``. Feature-sign search solves it exactly from
    ``(warm start or 0, o = 0)``; the ridge point would start it from an
    ``o`` that is dense at rounding level. ``iterations`` counts its rounds
    (0 when the start already certifies) and the trace holds the start and
    each round's candidate. When no round certifies, the candidate with the
    smallest KKT residual is returned with ``converged = False``, as in
    :func:`solve`.
    """
    if problem.gamma_outlier is None:
        raise ValueError("solve_with_outliers requires gamma_outlier")
    if config is None:
        config = SolverConfig()
    phi = problem.dictionary.matrix
    y = problem.y_residual_base
    n, m = problem.dictionary.n_lambda, problem.dictionary.n_pixels
    on = problem.cond_support.mask()
    mask = np.concatenate([on, np.zeros(m, dtype=bool)])
    c_data = 1.0 / problem.sigma_o_sq
    c_prior = problem.beta / problem.sigma_l_sq

    gram_big = c_data * np.block([[problem.dictionary.gram, phi.T], [phi, np.eye(m)]])
    gram_big += np.diag(c_prior * mask)
    rhs = c_data * np.concatenate([phi.T @ y, y])
    rhs[:n] += c_prior * (problem.lambda_prev * on)
    weights = np.concatenate([problem.gamma * ~on, np.full(m, problem.gamma_outlier)])
    start = np.concatenate([_warm_start(config, (n,)), np.zeros(m)])

    def cost(point):
        return evaluate_cost(problem, point[:n], point[n:])

    def certify(point):
        return kkt_residual(problem, point[:n], point[n:])

    z, kkt, rounds, converged, path = _exact_search(
        (start, certify(start)), start, weights, gram_big, rhs, mask, cost, certify,
        config.kkt_tolerance,
    )
    trace = [(r, cost(p), k) for r, (p, k) in enumerate(path)] if config.record_trace else None
    return SolverResult(z[:n], z[n:], cost(z), kkt, rounds, converged, trace)


def _log_odds(p: float) -> float:
    return math.log(p / (1.0 - p))


def brute_force_ssc_oracle(
    problem: ModeTrackingProblem, p_a: float, p_r: float, max_total_change: int
) -> SscOracleResult:
    """Exhaustive support-change search for small instances.

    Enumerates additions A (from off-support) and removals R (from support)
    with ``|A| + |R| <= max_total_change``; for each candidate support the
    smooth part is minimized exactly with off-support coordinates pinned at
    zero (at the minimum-norm minimizer when the support's system is
    singular, :func:`_range_solve`), and the combinatorial penalty ``-|A| log(p_a / (1 - p_a))
    - |R| log(p_r / (1 - p_r))`` is added. Refuses ambient sizes above 12.
    """
    n = problem.dictionary.n_lambda
    if n > _ORACLE_MAX_AMBIENT:
        raise ValueError(f"oracle enumeration is limited to n_lambda <= {_ORACLE_MAX_AMBIENT}")
    if not (0.0 <= p_a < 1.0 and 0.0 <= p_r < 1.0):
        raise ValueError("p_a and p_r must lie in [0, 1)")
    if max_total_change < 0:
        raise ValueError("max_total_change must be nonnegative")

    prev_support = problem.cond_support
    prev_idx = list(prev_support.indices)
    comp_idx = list(prev_support.complement().indices)
    mask_prev = prev_support.mask()
    phi = problem.dictionary.matrix
    y = problem.y_residual_base
    c_data = 1.0 / problem.sigma_o_sq
    c_prior = problem.beta / problem.sigma_l_sq
    gram_big = c_data * problem.dictionary.gram + np.diag(c_prior * mask_prev)
    rhs = c_data * (phi.T @ y) + c_prior * mask_prev * problem.lambda_prev
    add_odds = None if p_a == 0.0 else _log_odds(p_a)
    rem_odds = None if p_r == 0.0 else _log_odds(p_r)

    best = None
    for n_add in range(0, max_total_change + 1):
        if n_add > 0 and add_odds is None:
            break
        for added in itertools.combinations(comp_idx, n_add):
            for n_rem in range(0, max_total_change - n_add + 1):
                if n_rem > 0 and rem_odds is None:
                    break
                for removed in itertools.combinations(prev_idx, n_rem):
                    support = mask_prev.copy()
                    support[list(added)] = True
                    support[list(removed)] = False
                    idx = np.flatnonzero(support)
                    lam = np.zeros(n)
                    if idx.size:
                        sub = np.linalg.eigh(gram_big[np.ix_(idx, idx)])
                        lam[idx] = _range_solve(*sub, rhs[idx])
                    r = y - phi @ lam
                    d_prev = (lam - problem.lambda_prev)[mask_prev]
                    value = 0.5 * c_data * float(r @ r) + 0.5 * c_prior * float(d_prev @ d_prev)
                    penalty = 0.0
                    if n_add:
                        penalty -= n_add * add_odds
                    if n_rem:
                        penalty -= n_rem * rem_odds
                    objective = value + penalty
                    if best is None or objective < best[0]:
                        best = (objective, lam, added, removed)
    objective, lam, added, removed = best
    return SscOracleResult(
        lambda_opt=lam,
        added=SupportSet.from_indices(added, n),
        removed=SupportSet.from_indices(removed, n),
        objective=objective,
    )
