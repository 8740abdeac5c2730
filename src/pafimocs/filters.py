"""Particle filter variants over the motion + support + coefficients state.

Every tracker runs one skeleton (:func:`filter_step`): each particle slot
importance-samples its motion from the random walk, moves its coefficient
block, and is weighted; :func:`_finish_step` then normalizes, records the
step's diagnostics and resamples. The variants need only two moves:

* prior move (``pf-gordon``, ``aux-pf``): coefficients sampled from their
  dense random walk, weight is the observation likelihood. ``aux-pf`` first
  selects ancestors by the likelihood of their zero-noise propagation (the
  previous states), so its weights carry the likelihood ratio.
* mode-tracking move (``pafimocs``, ``pafimocs-ssc``, ``pf-mt``): the
  coefficients are replaced by the mode of the observation-plus-walk cost,
  solved conditioned on a support: one sampled from the add/remove kernel
  (``pafimocs``), the previous one (``pafimocs-ssc``) or the full one
  (``pf-mt``, whose mode is the dense ridge solution). Except for ``pf-mt``
  the support is then re-thresholded from the solution and coefficients off
  it are zeroed, so states stay exactly sparse. Weights are likelihood times
  coefficient transition density, and for ``pafimocs-ssc`` also the support
  transition probability.

RNG stream rule: ``ParticleSet.initialize`` spawns ``n_pf + 1`` child
streams from one seed; child ``i`` is pinned to particle slot ``i`` for the
whole run (streams follow slots, not ancestry) and the last child drives
resampling. Zero-variance model parameters are replaced by 1.0 inside the
mode-tracking cost only; with exact observations the minimizer is unchanged,
which keeps noise-free configurations exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .dictionary import Dictionary, TemplatePatch, build_dictionary, energy_support
from .models import (
    NEG_INF,
    FullState,
    ModelParams,
    SupportSet,
    sample_coeff_transition,
    sample_motion_transition,
    sample_support_transition,
    stp_coeffs_log,
    stp_support_log,
)
from .observation import Frame, NoiseModel, compute_roi, log_likelihood
from .solver import ModeTrackingProblem, SolverConfig, power_iteration_lmax, solve

__all__ = [
    "TrackerLostError",
    "Particle",
    "StepStats",
    "ParticleSet",
    "FilterConfig",
    "TrackResult",
    "RunConstants",
    "threshold_support",
    "systematic_resample",
    "filter_step",
    "run_tracker",
]

VARIANTS = ("pf-gordon", "aux-pf", "pf-mt", "pafimocs", "pafimocs-ssc")
_PRIOR_MOVE = ("pf-gordon", "aux-pf")  # the rest run the mode-tracking move


class TrackerLostError(RuntimeError):
    """Every particle reached zero posterior weight."""


@dataclass
class Particle:
    state: FullState
    log_weight: float


@dataclass
class StepStats:
    """Pre-resampling diagnostics of one filter step."""

    ess: float
    max_log_weight: float
    motion_mean: np.ndarray
    coeff_mean: np.ndarray
    support_sizes: np.ndarray
    unconverged_solves: int = 0


@dataclass(eq=False)
class ParticleSet:
    particles: list
    streams: list
    resample_rng: np.random.Generator
    step: int = 0
    last_stats: StepStats | None = None

    @classmethod
    def initialize(cls, state: FullState, n_pf: int, seed) -> "ParticleSet":
        """All particles at ``state`` with equal weights.

        ``seed`` is an int or ``numpy.random.SeedSequence``; it spawns
        ``n_pf + 1`` children, one per particle slot plus one for resampling.
        """
        if n_pf < 1:
            raise ValueError("n_pf must be >= 1")
        ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        children = ss.spawn(n_pf + 1)
        log_w = -math.log(n_pf)
        return cls(
            particles=[Particle(state, log_w) for _ in range(n_pf)],
            streams=[np.random.default_rng(c) for c in children[:n_pf]],
            resample_rng=np.random.default_rng(children[n_pf]),
        )

    @property
    def n_pf(self) -> int:
        return len(self.particles)


@dataclass
class FilterConfig:
    """Per-tracker settings; ``gamma`` / ``beta`` are the solver multipliers."""

    variant: str
    n_pf: int
    d: int
    gamma: float = 0.7
    beta: float = 1.0
    support_threshold: str = "energy-99"  # or "fixed-alpha"
    alpha: float = 0.0
    resample: str = "every-step"  # or "ess-below"
    ess_fraction: float = 0.5
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown filter variant {self.variant!r}")
        if self.n_pf < 1:
            raise ValueError("n_pf must be >= 1")
        if self.d < 0:
            raise ValueError("d must be nonnegative")
        if self.support_threshold not in ("energy-99", "fixed-alpha"):
            raise ValueError(f"unknown support threshold rule {self.support_threshold!r}")
        if self.resample not in ("every-step", "ess-below"):
            raise ValueError(f"unknown resample rule {self.resample!r}")
        if not 0.0 < self.ess_fraction <= 1.0:
            raise ValueError("ess_fraction must lie in (0, 1]")


def threshold_support(coeffs: np.ndarray, rule: str = "energy-99", alpha: float = 0.0) -> SupportSet:
    """Support extraction from a solved coefficient vector."""
    coeffs = np.asarray(coeffs, dtype=float)
    if rule == "energy-99":
        return energy_support(coeffs, 0.99)[0]
    if rule == "fixed-alpha":
        return SupportSet.from_indices(np.flatnonzero(np.abs(coeffs) > alpha), coeffs.size)
    raise ValueError(f"unknown support threshold rule {rule!r}")


def systematic_resample(weights: np.ndarray, rng) -> np.ndarray:
    """Systematic resampling: one uniform offset, stride 1/n over the CDF."""
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0.0) or abs(float(np.sum(w)) - 1.0) > 1e-9:
        raise ValueError("weights must be nonnegative and sum to 1")
    n = w.size
    positions = rng.uniform(0.0, 1.0 / n) + np.arange(n) / n
    cum = np.cumsum(w)
    cum[-1] = 1.0  # guard the last bin against rounding
    return np.minimum(np.searchsorted(cum, positions, side="left"), n - 1).astype(np.intp)


def _normalize_log_weights(log_ws: np.ndarray) -> np.ndarray:
    top = float(np.max(log_ws))
    if top == NEG_INF or math.isnan(top):
        raise TrackerLostError("all particle weights vanished")
    shifted = log_ws - top
    lse = top + math.log(float(np.sum(np.exp(shifted))))
    return log_ws - lse


def _finish_step(
    pset: ParticleSet, proposed: list, cfg: FilterConfig, unconverged_solves: int = 0
) -> ParticleSet:
    """Normalize, record diagnostics, resample per the configured rule."""
    log_ws = _normalize_log_weights(np.array([p.log_weight for p in proposed]))
    w = np.exp(log_ws)
    n = len(proposed)
    motion = np.zeros(3)
    coeffs = np.zeros_like(proposed[0].state.coeffs)
    for weight, particle in zip(w, proposed):
        motion += weight * particle.state.motion.as_array()
        coeffs += weight * particle.state.coeffs
    stats = StepStats(
        ess=float(1.0 / np.sum(w * w)),
        max_log_weight=float(np.max(log_ws)),
        motion_mean=motion,
        coeff_mean=coeffs,
        support_sizes=np.array([len(p.state.support) for p in proposed]),
        unconverged_solves=unconverged_solves,
    )
    if cfg.resample == "every-step" or stats.ess < cfg.ess_fraction * n:
        order = systematic_resample(w, pset.resample_rng)
        log_uniform = -math.log(n)
        particles = [Particle(proposed[i].state, log_uniform) for i in order]
    else:
        particles = [Particle(p.state, lw) for p, lw in zip(proposed, log_ws)]
    return ParticleSet(
        particles=particles,
        streams=pset.streams,
        resample_rng=pset.resample_rng,
        step=pset.step + 1,
        last_stats=stats,
    )


class RunConstants(NamedTuple):
    """What every step of one tracker run shares."""

    noise: NoiseModel
    full: SupportSet
    lmax: float | None  # spectral bound of the Gram matrix; mode-tracking variants only

    @classmethod
    def for_run(
        cls, dictionary: Dictionary, params: ModelParams, cfg: FilterConfig
    ) -> "RunConstants":
        n_lambda = dictionary.n_lambda
        return cls(
            noise=NoiseModel(
                kind="pure-gaussian", sigma_sq=params.sigma_o_sq, pixel_max=params.pixel_max
            ),
            full=SupportSet(tuple(range(n_lambda)), n_lambda),
            lmax=None if cfg.variant in _PRIOR_MOVE else power_iteration_lmax(dictionary.gram),
        )


def _solver_sigmas(params: ModelParams) -> tuple[float, float]:
    # zero-variance parameters degenerate the cost weights; substitute 1.0
    sig_o = params.sigma_o_sq if params.sigma_o_sq > 0.0 else 1.0
    sig_l = params.sigma_l_sq if params.sigma_l_sq > 0.0 else 1.0
    return sig_o, sig_l


def filter_step(
    pset: ParticleSet,
    frame: Frame,
    template: TemplatePatch,
    dictionary: Dictionary,
    params: ModelParams,
    cfg: FilterConfig,
    run: RunConstants,
) -> ParticleSet:
    """One propose, weight, resample step of the variant ``cfg.variant``.

    ``aux-pf`` first picks each slot's ancestor by the likelihood of its
    zero-noise propagation and starts the slot's log weight at minus that
    likelihood; the other variants start from the particle's own log weight.
    Each slot then draws its motion and runs the variant's move on its own
    stream (see the module docstring). ``run`` holds the per-run constants
    from :meth:`RunConstants.for_run`.
    """
    parents = pset.particles
    bases = [p.log_weight for p in parents]
    if cfg.variant == "aux-pf":
        mean_ll = np.array(
            [
                log_likelihood(
                    frame, p.state.motion, p.state.coeffs, template, dictionary, run.noise
                )
                for p in parents
            ]
        )
        stage_one = _normalize_log_weights(np.array(bases) + mean_ll)
        ancestors = systematic_resample(np.exp(stage_one), pset.resample_rng)
        parents = [parents[a] for a in ancestors]
        bases = [-mean_ll[a] for a in ancestors]
    sig_o, sig_l = _solver_sigmas(params)

    def prior_move(prev, motion, log_w, rng):
        coeffs = sample_coeff_transition(prev.coeffs, run.full, params, rng)
        log_w = log_w + log_likelihood(frame, motion, coeffs, template, dictionary, run.noise)
        return FullState(motion, run.full, coeffs), log_w, True

    def mode_tracking_move(prev, motion, log_w, rng):
        if cfg.variant == "pafimocs":
            cond = sample_support_transition(prev.support, params, rng)
        else:
            cond = prev.support if cfg.variant == "pafimocs-ssc" else run.full
        roi = compute_roi(motion, template, (frame.height, frame.width))
        if not roi.valid:
            return FullState(motion, cond, prev.coeffs), NEG_INF, True
        mapped = frame.pixels[roi.indices] - template.pixels
        problem = ModeTrackingProblem(
            y_residual_base=mapped,
            dictionary=dictionary,
            lambda_prev=prev.coeffs,
            cond_support=cond,
            sigma_o_sq=sig_o,
            sigma_l_sq=sig_l,
            beta=cfg.beta,
            gamma=cfg.gamma,
            gram_lmax=run.lmax,
        )
        result = solve(problem, replace(cfg.solver, warm_start=prev.coeffs, record_trace=False))
        lam, support = result.lambda_opt, run.full
        if cfg.variant != "pf-mt":
            support = threshold_support(lam, cfg.support_threshold, cfg.alpha)
            lam = lam * support.mask()  # states stay exactly sparse
        log_w = (
            log_w
            + log_likelihood(frame, motion, lam, template, dictionary, run.noise, mapped)
            + stp_coeffs_log(lam, prev.coeffs, support, params)
        )
        if cfg.variant == "pafimocs-ssc":
            log_w = log_w + stp_support_log(support, prev.support, params)
        return FullState(motion, support, lam), log_w, result.converged

    move = prior_move if cfg.variant in _PRIOR_MOVE else mode_tracking_move
    proposed = []
    unconverged = 0
    for parent, base, rng in zip(parents, bases, pset.streams):
        motion = sample_motion_transition(parent.state.motion, params, rng)
        state, log_w, converged = move(parent.state, motion, base, rng)
        proposed.append(Particle(state, log_w))
        unconverged += not converged
    return _finish_step(pset, proposed, cfg, unconverged)


@dataclass
class TrackResult:
    """Per-frame posterior estimates and diagnostics of one tracker run."""

    motion: np.ndarray  # (n_steps + 1, 3), row 0 is the initial state
    coeffs: np.ndarray  # (n_steps + 1, n_lambda)
    ess: np.ndarray
    max_log_weight: np.ndarray
    support_sizes: np.ndarray  # (n_steps + 1, n_pf)
    lost_at: int | None
    unconverged_solves: int = 0  # mode-tracking solves used without a KKT certificate


def _coerce_state(state: FullState, n_lambda: int) -> FullState:
    """Project a state onto a tracker's own coefficient length."""
    if state.support.ambient_size == n_lambda:
        return state
    coeffs = np.zeros(n_lambda)
    keep = min(n_lambda, state.coeffs.size)
    coeffs[:keep] = state.coeffs[:keep]
    support = SupportSet.from_indices(
        [i for i in state.support.indices if i < n_lambda], n_lambda
    )
    return FullState(state.motion, support, coeffs)


def run_tracker(
    frames: list,
    template: TemplatePatch,
    params: ModelParams,
    cfg: FilterConfig,
    init_state: FullState,
    seed,
) -> TrackResult:
    """Drive one filter over ``frames[1:]`` from a known initial state.

    On total weight loss the tracker freezes its last estimate for the
    remaining frames and reports the step in ``lost_at``.
    """
    dictionary = build_dictionary(template, cfg.d)
    init = _coerce_state(init_state, dictionary.n_lambda)
    pset = ParticleSet.initialize(init, cfg.n_pf, seed)
    tracker_params = (
        params
        if params.n_lambda == dictionary.n_lambda
        else replace_params_ambient(params, dictionary.n_lambda)
    )
    run = RunConstants.for_run(dictionary, tracker_params, cfg)

    n_steps = len(frames) - 1
    motion = np.zeros((n_steps + 1, 3))
    coeffs = np.zeros((n_steps + 1, dictionary.n_lambda))
    ess = np.zeros(n_steps + 1)
    max_lw = np.zeros(n_steps + 1)
    sizes = np.zeros((n_steps + 1, cfg.n_pf), dtype=int)
    motion[0] = init.motion.as_array()
    coeffs[0] = init.coeffs
    ess[0] = cfg.n_pf
    sizes[0] = len(init.support)
    lost_at = None
    unconverged = 0
    for t in range(1, n_steps + 1):
        try:
            pset = filter_step(pset, frames[t], template, dictionary, tracker_params, cfg, run)
        except TrackerLostError:
            lost_at = t
            motion[t:] = motion[t - 1]
            coeffs[t:] = coeffs[t - 1]
            ess[t:] = 0.0
            max_lw[t:] = NEG_INF
            sizes[t:] = sizes[t - 1]
            break
        stats = pset.last_stats
        motion[t] = stats.motion_mean
        coeffs[t] = stats.coeff_mean
        ess[t] = stats.ess
        max_lw[t] = stats.max_log_weight
        sizes[t] = stats.support_sizes
        unconverged += stats.unconverged_solves
    return TrackResult(motion, coeffs, ess, max_lw, sizes, lost_at, unconverged)


def replace_params_ambient(params: ModelParams, n_lambda: int) -> ModelParams:
    """Same model constants over a different coefficient axis length."""
    s = min(params.s_expected, n_lambda)
    return ModelParams(
        n_lambda=n_lambda,
        s_expected=s,
        p_a=params.p_a,
        p_r=params.p_r,
        sigma_l_sq=params.sigma_l_sq,
        sigma_u=params.sigma_u,
        sigma_o_sq=params.sigma_o_sq,
        pixel_max=params.pixel_max,
    )
