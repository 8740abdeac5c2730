"""Particle filter variants over the motion + support + coefficients state.

A :class:`ParticleSet` holds arrays with one row per slot: motions,
coefficients, supports (as boolean mask rows) and log weights. Every tracker
runs one skeleton, ``filter_step(pset, frame, template, dictionary, params,
cfg)``, which reads its noise model and cost variances from ``params``: each
slot importance-samples its motion from the random walk, moves its
coefficient block, and is weighted, with the observation model run once over
all slots; :func:`_finish_step` then normalizes, records diagnostics and
resamples, at every step (as PF-MT does), so each step starts from equal
weights. The moves are:

* prior move (``pf-gordon``, ``aux-pf``): motion and coefficients sampled in
  one dense random walk, weight is the observation likelihood. ``aux-pf`` first
  selects ancestors by the likelihood of their zero-noise propagation (the
  previous states), so its weights carry the likelihood ratio. That first
  stage scores every slot in one ``log_likelihood`` call: in its sufficient
  statistics form a row costs less than a key to find duplicate rows by.
* mode-tracking move (``pafimocs``, ``pafimocs-ssc``, ``pf-mt``): the
  coefficients are replaced by the mode of the observation-plus-walk cost,
  solved conditioned on a support: one sampled from the add/remove kernel
  (``pafimocs``), the previous one (``pafimocs-ssc``) or the full one
  (``pf-mt``, whose mode is the dense ridge solution). Except for ``pf-mt``
  the support is then re-thresholded from the solution and coefficients off
  it are zeroed, so states stay exactly sparse. Weights are likelihood times
  coefficient transition density, and for ``pafimocs-ssc`` also the support
  transition probability.

The mode-tracking move works per distinct (ROI, parent coefficients,
conditioning support) row of the slots with a valid ROI, compared byte for
byte: the ROI is rounded to whole pixels and resampling leaves few
ancestors, so on the default scene only about 15% of the slots of
``pafimocs-ssc`` and ``pf-mt`` hold a distinct row (``pafimocs``, which
draws a support per slot, nearly all, but only about 16% of its ROIs).
The move runs on one ROI stack: :func:`mapped_rows` returns ``(pixels,
index, valid)``, each distinct grid gathered once (an off-frame slot adds
one unused pixel-0 row) and projected once (``ModeTrackingRows.phity``,
``Phi' y``): the solver (``rois``) and ``log_likelihood`` (``gathered``) read both.
Each distinct row is solved (one :func:`solve_rows` call), thresholded
(:func:`threshold_rows`) and weighed (``log_likelihood``,
``stp_coeffs_rows``, ``stp_support_rows``) once, stacked, and the results
are copied to every slot that shares it. ``pafimocs`` draws every slot's
support at once (:func:`sample_support_rows`), each row from its slot's
stream.

RNG stream rule: ``ParticleSet.initialize`` seeds ``n_pf + 1`` streams from
one seed in one pass, bit for bit the ``default_rng`` of each child of
``seed.spawn(n_pf + 1)``, without spawning from or advancing the seed; child
``i`` is pinned to particle slot ``i`` for the whole run (streams follow
slots, not ancestry) and the last child drives resampling.
Each slot's stream draws its motion, then its move, each draw one call that
fills the slot's row of a stacked array (the prior move walks ``[motion |
coeffs]`` in one call): a generator draws in sequence, so batching changes no
draw. Weighted means add rows left to right from zeros. The same seed gives
the same bytes; a slot's solve and weight agree with a slot-by-slot step
within rounding, as ``solver`` and ``observation`` state. Zero-variance model
parameters are replaced by 1.0 inside the mode-tracking cost only; with exact
observations the minimizer is unchanged, which keeps noise-free configurations exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .dictionary import Dictionary, TemplatePatch, build_dictionary, energy_rows
from .models import (
    NEG_INF,
    FullState,
    ModelParams,
    SupportSet,
    sample_support_rows,
    sample_support_transition,  # noqa: F401  perfbench binds it (ROADMAP 1)
    sample_walk_rows,
    stp_coeffs_rows,
    stp_support_rows,
)
from .observation import Frame, NoiseModel, distinct_rows, log_likelihood, mapped_rows
from .solver import ModeTrackingRows, SolverConfig, solve_rows
from .solver import power_iteration_lmax, solve  # noqa: F401  perfbench binds both (ROADMAP 1)

__all__ = [
    "TrackerLostError",
    "StepStats",
    "ParticleSet",
    "FilterConfig",
    "TrackResult",
    "threshold_support",
    "threshold_rows",
    "systematic_resample",
    "filter_step",
    "run_tracker",
]

VARIANTS = ("pf-gordon", "aux-pf", "pf-mt", "pafimocs", "pafimocs-ssc")
_PRIOR_MOVE = ("pf-gordon", "aux-pf")  # the rest run the mode-tracking move


class TrackerLostError(RuntimeError):
    """Every particle reached zero posterior weight."""


@dataclass
class StepStats:
    """Pre-resampling diagnostics of one filter step."""

    ess: float
    max_log_weight: float
    motion_mean: np.ndarray
    coeff_mean: np.ndarray
    support_sizes: np.ndarray
    unconverged_solves: int = 0


# numpy's SeedSequence hash constants (``numpy/random/bit_generator.pyx``)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hash_consts(init: int, mult: int, start: int, count: int) -> tuple:
    """The xor and multiplier ``uint32`` constants of SeedSequence hashes
    ``start`` to ``start + count - 1``: hash ``k`` xors ``init·multᵏ`` and
    multiplies by ``init·multᵏ⁺¹`` (mod 2³²), whatever words it hashes."""
    consts = [init * pow(mult, k, 2**32) & _MASK32 for k in range(start, start + count + 1)]
    consts = np.array(consts, dtype=np.uint32)
    return consts[:-1], consts[1:]


def _hash(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ value >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = _MIX_MULT_L * x - _MIX_MULT_R * y
    return value ^ value >> 16


_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 0, 8)


def _uint32_words(value) -> list:
    """SeedSequence's 32-bit words of an entropy or spawn key value: an int
    least significant word first (0 is one word), a sequence its items' words."""
    if isinstance(value, (int, np.integer)) and value >= 0:
        value = int(value)
        return [value >> shift & _MASK32 for shift in range(0, value.bit_length() or 1, 32)]
    if isinstance(value, (list, tuple, range, np.ndarray)):
        return [word for item in value for word in _uint32_words(item)]
    raise TypeError(f"cannot read seed entropy {value!r} as integer words")


def _spawn_seed_words(ss: np.random.SeedSequence, n: int) -> np.ndarray:
    """``(n, 4)`` uint64 rows: row ``i`` is ``ss.spawn(n)[i].generate_state(4,
    np.uint64)``, computed without spawning (``ss`` is not advanced).

    Child ``i`` mixes the run entropy, zero-padded to ``pool_size``, then
    ``spawn_key``, then its own key ``n_children_spawned + i``, the last
    word. So every child's pool is the pool of a ``SeedSequence`` of the
    shared words, mixed once, with the key then hashed into each pool word
    by constants fixed by position: one ``(n, pool_size)`` step. A key past
    one word would assemble differently, and is refused.
    """
    first, pool_size = ss.n_children_spawned, ss.pool_size
    if first + n > 2**32:
        raise ValueError(f"child spawn key {first + n - 1} passes 2**32 - 1: one pass seeds one-word keys")
    run = _uint32_words(ss.entropy)
    words = run + [0] * (pool_size - len(run)) + _uint32_words(ss.spawn_key)
    shared = np.random.SeedSequence(words, pool_size=pool_size).pool
    keys = np.arange(first, first + n, dtype=np.uint32)[:, None]
    # mixing the pool takes pool_size hashes per word
    key_consts = _hash_consts(_INIT_A, _MULT_A, pool_size * len(words), pool_size)
    pools = _mix(shared, _hash(keys, *key_consts))
    # generate_state(4, np.uint64): 8 words hashed from the pool cycled
    state = _hash(pools[:, np.arange(8) % pool_size], *_STATE_CONSTS)
    return state.astype("<u4", order="C").view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """A child's seed words, handed to ``PCG64``, which seeds from them."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("holds the 4 uint64 words of a PCG64 seed only")
        return self.words


@dataclass(eq=False)
class ParticleSet:
    """Particle slots as arrays: row ``i`` of each array belongs to slot ``i``."""

    motion: np.ndarray  # (n_pf, 3): u_x, u_y, s
    coeffs: np.ndarray  # (n_pf, n_lambda)
    supports: np.ndarray  # (n_pf, n_lambda) bool
    log_weights: np.ndarray  # (n_pf,)
    streams: list
    resample_rng: np.random.Generator
    last_stats: StepStats | None = None

    @classmethod
    def initialize(cls, state: FullState, n_pf: int, seed) -> "ParticleSet":
        """All particles at ``state`` with equal weights.

        ``seed`` is an int or ``numpy.random.SeedSequence``. Slot ``i``'s
        stream, and the resampling stream after the last slot, are bit for
        bit ``default_rng(c)`` of the children ``c`` of ``seed.spawn(n_pf +
        1)``, but ``seed`` is not spawned from: its ``n_children_spawned`` is
        not advanced, so the same sequence gives the same streams again. A
        stream's ``bit_generator.seed_seq`` holds its child's PCG64 seed
        words (:func:`_spawn_seed_words`), not a ``SeedSequence``.
        """
        if n_pf < 1:
            raise ValueError("n_pf must be >= 1")
        ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        words = _spawn_seed_words(ss, n_pf + 1)
        streams = [np.random.Generator(np.random.PCG64(_SeedWords(w))) for w in words]
        return cls(
            motion=np.tile(state.motion.as_array(), (n_pf, 1)),
            coeffs=np.tile(state.coeffs, (n_pf, 1)),
            supports=np.tile(state.support.mask(), (n_pf, 1)),
            log_weights=np.full(n_pf, -math.log(n_pf)),
            streams=streams[:n_pf],
            resample_rng=streams[n_pf],
        )

    @property
    def n_pf(self) -> int:
        return self.log_weights.size

    def select(self, slots) -> "ParticleSet":
        """The particles of ``slots``, in that order, over the same streams."""
        names = ("motion", "coeffs", "supports", "log_weights")
        return replace(self, **{name: getattr(self, name)[slots] for name in names})


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

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown filter variant {self.variant!r}")
        if self.n_pf < 1:
            raise ValueError("n_pf must be >= 1")
        if self.d < 0:
            raise ValueError("d must be nonnegative")
        if self.support_threshold not in ("energy-99", "fixed-alpha"):
            raise ValueError(f"unknown support threshold rule {self.support_threshold!r}")
        rule = "gamma, beta and alpha must be nonnegative and finite"  # NaN fails the check
        if not all(0.0 <= x < math.inf for x in (self.gamma, self.beta, self.alpha)):
            raise ValueError(f"{self.variant}: {rule}")


def threshold_support(coeffs: np.ndarray, rule: str = "energy-99", alpha: float = 0.0) -> SupportSet:
    """Support extraction from a solved coefficient vector."""
    coeffs = np.asarray(coeffs, dtype=float)
    return SupportSet.from_mask(threshold_rows(coeffs[None], rule, alpha)[0])


def threshold_rows(coeffs: np.ndarray, rule: str = "energy-99", alpha: float = 0.0) -> np.ndarray:
    """Boolean support masks of coefficient rows ``(n, n_lambda)``, one
    :func:`threshold_support` per row."""
    if rule == "energy-99":
        return energy_rows(coeffs, 0.99)
    if rule == "fixed-alpha":
        return np.abs(coeffs) > alpha
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
    shifted = log_ws - top  # exact for the top weights however far below zero they lie
    return shifted - math.log(float(np.sum(np.exp(shifted))))


def _weighted_sum(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
    terms = w[:, None] * rows
    terms[0] += 0.0  # the sum starts from zeros, so a leading -0.0 becomes 0.0
    return np.add.accumulate(terms)[-1]  # rows added left to right


def _finish_step(proposed: ParticleSet, unconverged: int = 0) -> ParticleSet:
    """Normalize ``proposed``'s log weights, record diagnostics and resample.

    Every step resamples, as PF-MT does, so the returned set has equal weights.
    """
    log_ws = _normalize_log_weights(proposed.log_weights)
    w = np.exp(log_ws)
    n = w.size
    stats = StepStats(
        ess=float(1.0 / np.sum(w * w)),
        max_log_weight=float(np.max(log_ws)),
        motion_mean=_weighted_sum(w, proposed.motion),
        coeff_mean=_weighted_sum(w, proposed.coeffs),
        support_sizes=np.count_nonzero(proposed.supports, axis=1),
        unconverged_solves=unconverged,
    )
    order = systematic_resample(w, proposed.resample_rng)
    return replace(proposed.select(order), log_weights=np.full(n, -math.log(n)), last_stats=stats)


def filter_step(
    pset: ParticleSet,
    frame: Frame,
    template: TemplatePatch,
    dictionary: Dictionary,
    params: ModelParams,
    cfg: FilterConfig,
) -> ParticleSet:
    """One propose, weight, resample step of the variant ``cfg.variant``.

    ``aux-pf`` first picks each slot's ancestor by the likelihood of its
    zero-noise propagation and starts the slot's log weight at minus that
    likelihood; the other variants start from the particle's own log weight.
    Each slot's stream then draws its motion and its move (the prior move: one
    walk over ``[motion | coeffs]``). ``params`` gives the noise model
    (:meth:`NoiseModel.for_params`) and the mode-tracking cost variances.
    """
    noise = NoiseModel.for_params(params)
    parents = pset
    if cfg.variant == "aux-pf":
        mean_ll = log_likelihood(frame, pset.motion, pset.coeffs, template, dictionary, noise)
        stage_one = _normalize_log_weights(pset.log_weights + mean_ll)
        ancestors = systematic_resample(np.exp(stage_one), pset.resample_rng)
        parents = replace(pset.select(ancestors), log_weights=-mean_ll[ancestors])
    if cfg.variant not in _PRIOR_MOVE:
        motion = sample_walk_rows(parents.motion, params.sigma_u, pset.streams)
        moved = replace(parents, motion=motion)
        proposed, unconverged = _mode_track(moved, frame, template, dictionary, params, cfg, noise)
        return _finish_step(proposed, unconverged)
    variance = np.concatenate([params.sigma_u, np.full(params.n_lambda, params.sigma_l_sq)])
    walked = sample_walk_rows(np.hstack([parents.motion, parents.coeffs]), variance, pset.streams)
    motion, coeffs = walked[:, :3], walked[:, 3:]
    ll = log_likelihood(frame, motion, coeffs, template, dictionary, noise)
    proposed = replace(parents, motion=motion, coeffs=coeffs, log_weights=parents.log_weights + ll,
                       supports=np.ones_like(parents.supports))
    return _finish_step(proposed)


def _mode_track(moved, frame, template, dictionary, params, cfg, noise):
    """Mode-tracking move of ``moved`` (new motions, parents' states and base weights).

    Slots with a valid ROI are keyed on their ROI grid, parent coefficients
    and conditioning mask. The ROI stack of :func:`mapped_rows` (each
    distinct grid gathered once) and its one ``Phi' y`` feed the solve and
    the likelihood; the solve, threshold, likelihood and transition densities
    run stacked, once per distinct key, and are scattered back to the slots.
    Returns the proposed set and the number of slots whose solve is uncertified;
    off-frame slots get weight 0.
    """
    if cfg.variant == "pafimocs":
        conds = sample_support_rows(moved.supports, params, moved.streams)
    elif cfg.variant == "pafimocs-ssc":
        conds = moved.supports
    else:
        conds = np.ones(moved.supports.shape, dtype=bool)
    pixels, grid, valid = mapped_rows(frame, moved.motion, template)
    live = np.flatnonzero(valid)
    first, inverse = distinct_rows(grid[live, None], moved.coeffs[live], conds[live])
    slots = live[first]
    prev = moved.coeffs[slots]
    rows = ModeTrackingRows(
        y_residual_base=pixels,
        dictionary=dictionary,
        lambda_prev=prev,
        masks=conds[slots],
        sigma_o_sq=params.sigma_o_sq or 1.0,  # a zero variance's cost weight degenerates
        sigma_l_sq=params.sigma_l_sq or 1.0,
        beta=cfg.beta,
        gamma=cfg.gamma,
        rois=grid[slots],
    )
    solved = solve_rows(rows, SolverConfig(warm_start=prev))
    lam, masks = solved.lambda_opt, rows.masks  # pf-mt keeps its full supports
    if cfg.variant != "pf-mt":
        masks = threshold_rows(lam, cfg.support_threshold, cfg.alpha)
        lam = lam * masks  # states stay exactly sparse
    supports = conds.copy()
    supports[live] = masks[inverse]
    coeffs = moved.coeffs.copy()
    coeffs[live] = lam[inverse]
    ll = np.full(moved.n_pf, NEG_INF)
    gathered = (pixels, rows.phity, rows.rois, valid[slots])
    ll[live] = log_likelihood(
        frame, moved.motion[slots], lam, template, dictionary, noise, gathered
    )[inverse]
    log_w = moved.log_weights + ll
    log_w[live] += stp_coeffs_rows(lam, prev, masks, params)[inverse]
    if cfg.variant == "pafimocs-ssc":
        log_w[live] += stp_support_rows(masks, rows.masks, params)[inverse]
    proposed = replace(moved, coeffs=coeffs, supports=supports, log_weights=log_w)
    return proposed, int(np.count_nonzero(~solved.converged[inverse]))


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
    init = init_state.on_axis(dictionary.n_lambda)
    pset = ParticleSet.initialize(init, cfg.n_pf, seed)
    tracker_params = params.on_axis(dictionary.n_lambda)

    sizes = np.full(cfg.n_pf, len(init.support))
    steps = [StepStats(float(cfg.n_pf), 0.0, init.motion.as_array(), init.coeffs, sizes)]  # row 0
    lost_at = None
    for t in range(1, len(frames)):
        try:
            pset = filter_step(pset, frames[t], template, dictionary, tracker_params, cfg)
        except TrackerLostError:
            lost_at = t
            frozen = replace(steps[-1], ess=0.0, max_log_weight=NEG_INF, unconverged_solves=0)
            steps += [frozen] * (len(frames) - t)
            break
        steps.append(pset.last_stats)
    return TrackResult(
        motion=np.array([s.motion_mean for s in steps]),
        coeffs=np.array([s.coeff_mean for s in steps]),
        ess=np.array([s.ess for s in steps]),
        max_log_weight=np.array([s.max_log_weight for s in steps]),
        support_sizes=np.array([s.support_sizes for s in steps]),
        lost_at=lost_at,
        unconverged_solves=sum(s.unconverged_solves for s in steps),
    )

