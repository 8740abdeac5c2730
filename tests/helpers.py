"""Independent reference implementations used as test oracles.

Everything here is written from the textbook definitions, deliberately not
sharing code paths with the package, so that agreement is evidence and not
tautology.
"""

import itertools
import math

import numpy as np

from pafimocs.models import ZERO_VAR_ATOL


def gaussian_log_density(dev, var):
    """Log of a diagonal multivariate Gaussian density at deviation ``dev``."""
    dev = np.atleast_1d(np.asarray(dev, dtype=float))
    var = np.atleast_1d(np.asarray(var, dtype=float))
    if var.size == 1:
        var = np.full(dev.shape, float(var[0]))
    if np.any(var <= 0.0):
        raise ValueError("oracle handles strictly positive variances only")
    k = dev.size
    return (
        -0.5 * k * math.log(2.0 * math.pi)
        - 0.5 * float(np.sum(np.log(var)))
        - 0.5 * float(np.sum(dev * dev / var))
    )


def diag_gaussian_log_row(dev, var):
    """Log of a diagonal Gaussian density at one deviation row, summed term
    by term; a zero variance is a point mass, 0.0 within ``ZERO_VAR_ATOL``
    of zero and -inf beyond it."""
    dev = np.asarray(dev, dtype=float)
    var = np.broadcast_to(np.asarray(var, dtype=float), dev.shape)
    point = var == 0.0
    if np.any(np.abs(dev[point]) > ZERO_VAR_ATOL):
        return -math.inf
    live = ~point
    return float(-0.5 * np.sum(np.log(2.0 * np.pi * var[live]) + dev[live] ** 2 / var[live]))


def cost_direct(phi, y, lam_prev, on_mask, sigma_o_sq, sigma_l_sq, beta, gamma, lam):
    """Mode-tracking cost evaluated straight from its definition."""
    r = y - phi @ lam
    on = on_mask.astype(bool)
    d = lam[on] - lam_prev[on]
    return (
        0.5 * float(r @ r) / sigma_o_sq
        + 0.5 * beta * float(d @ d) / sigma_l_sq
        + gamma * float(np.sum(np.abs(lam[~on])))
    )


def ridge_closed_form(phi, y, lam_prev, sigma_o_sq, sigma_l_sq, beta):
    """Full-support minimizer from the normal equations."""
    n = phi.shape[1]
    lhs = phi.T @ phi / sigma_o_sq + beta / sigma_l_sq * np.eye(n)
    rhs = phi.T @ y / sigma_o_sq + beta / sigma_l_sq * lam_prev
    return np.linalg.solve(lhs, rhs)


def sign_pattern_minimum(phi, y, lam_prev, on_mask, sigma_o_sq, sigma_l_sq, beta, gamma):
    """Global minimum of the mode-tracking cost by sign-pattern enumeration.

    For every subset S of the l1 coordinates and every sign vector on S, the
    candidate solves the stationarity system of the smooth part plus
    gamma * sign on S (coordinates outside T and S pinned at zero). The true
    optimum appears among the candidates with its own support and signs, so
    the minimum of the direct cost over all candidates is the global minimum.
    """
    n = phi.shape[1]
    on = np.flatnonzero(on_mask)
    l1 = np.flatnonzero(~on_mask.astype(bool))
    best = math.inf
    best_lam = np.zeros(n)
    hess = phi.T @ phi / sigma_o_sq
    prior_diag = np.zeros(n)
    prior_diag[on] = beta / sigma_l_sq
    base_rhs = phi.T @ y / sigma_o_sq + prior_diag * lam_prev
    for r in range(len(l1) + 1):
        for subset in itertools.combinations(l1, r):
            active = np.concatenate([on, np.array(subset, dtype=int)]).astype(int)
            if active.size == 0:
                lam = np.zeros(n)
                c = cost_direct(
                    phi, y, lam_prev, on_mask, sigma_o_sq, sigma_l_sq, beta, gamma, lam
                )
                if c < best:
                    best, best_lam = c, lam
                continue
            sub_h = hess[np.ix_(active, active)] + np.diag(prior_diag[active])
            for signs in itertools.product((-1.0, 1.0), repeat=r):
                rhs = base_rhs[active].copy()
                for pos, idx in enumerate(subset):
                    rhs[np.flatnonzero(active == idx)[0]] -= gamma * signs[pos]
                try:
                    v = np.linalg.solve(sub_h, rhs)
                except np.linalg.LinAlgError:
                    continue
                lam = np.zeros(n)
                lam[active] = v
                c = cost_direct(
                    phi, y, lam_prev, on_mask, sigma_o_sq, sigma_l_sq, beta, gamma, lam
                )
                if c < best:
                    best, best_lam = c, lam
    return best_lam, best


def weighted_mean_reference(states, weights):
    """Plain dot-product posterior mean, for cross-checking estimates."""
    weights = np.asarray(weights, dtype=float)
    motion = np.array([s.motion.as_array() for s in states])
    coeffs = np.array([s.coeffs for s in states])
    return weights @ motion, weights @ coeffs


def support_trace_reference(frames, n_lambda):
    """Support statistics of a sequence from each frame's ``(indices,
    alpha)`` support, by plain set differences: ``(alphas, supp_frac,
    add_frac, del_frac)``. Change ratios are NaN on the first frame and 0.0
    on frames whose support is empty."""
    alphas, supp_frac, add_frac, del_frac = [], [], [], []
    prev = None
    for indices, alpha in frames:
        cur = set(indices)
        alphas.append(alpha)
        supp_frac.append(len(cur) / n_lambda)
        if prev is None:
            add, removed = math.nan, math.nan
        elif not cur:
            add, removed = 0.0, 0.0
        else:
            add, removed = len(cur - prev) / len(cur), len(prev - cur) / len(cur)
        add_frac.append(add)
        del_frac.append(removed)
        prev = cur
    return alphas, supp_frac, add_frac, del_frac
