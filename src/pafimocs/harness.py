"""Simulation protocol, metrics, and the Monte Carlo experiment driver.

A simulated sequence starts from motion (0, 0, 1), a uniformly drawn initial
support, and zero coefficients; the motion walks every frame, the support
moves through its add/remove kernel only on frames divisible by
``support_change_period``, and the coefficients walk on the current support.
Frames are rendered with uniform clutter outside the mapped template.

The experiment driver runs several tracker configurations over independent
Monte Carlo replications. Seeding is hierarchical and documented: the master
``SeedSequence(cfg.seed)`` spawns one child per run; each run child spawns
``1 + n_filters`` grandchildren, the first feeding sequence generation and
the rest one tracker each (inside a tracker the per-particle rule of
``ParticleSet.initialize`` applies). Aggregation is keyed by run index, so
results are identical however runs are scheduled.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from . import fileio
from .dictionary import (
    Dictionary,
    SupportTrace,
    TemplatePatch,
    build_dictionary,
    ml_coeff_fit,
    support_trace,
)
from .fileio import _read_value
from .filters import VARIANTS, FilterConfig, TrackResult, run_tracker
from .models import (
    FullState,
    ModelParams,
    MotionState,
    SupportSet,
    coeffs_on_axis,
    sample_coeff_transition,
    sample_motion_transition,
    sample_support_transition,
)
from .observation import NoiseModel, render_frame

__all__ = [
    "FilterSpec",
    "SimConfig",
    "GroundTruth",
    "FilterRun",
    "MetricSeries",
    "ExperimentResult",
    "default_params",
    "default_filters",
    "make_template",
    "generate_sequence",
    "nmse",
    "nmse_components",
    "location_error",
    "parse_filter_label",
    "parse_filter_labels",
    "select_filters",
    "resolve_filter_config",
    "track_truth",
    "run_experiment",
    "analyze_support",
    "write_membership_csv",
    "sim_config_to_kv",
    "sim_config_from_kv",
]

CSV_SCHEMA = "pafimocs-csv-v1"

# the simulation protocol's (gamma, beta) for the sparse mode-tracking variants;
# every other variant takes FilterConfig's defaults
_VARIANT_MULTIPLIERS = {
    "pafimocs": {"gamma": 0.7, "beta": 0.4},
    "pafimocs-ssc": {"gamma": 0.5, "beta": 0.4},
}


def default_params() -> ModelParams:
    """The simulation protocol's model constants."""
    return ModelParams(
        n_lambda=41,
        s_expected=5,
        p_a=0.03,
        p_r=0.216,
        sigma_l_sq=0.01,
        sigma_u=(0.5, 0.5, 0.0),
        sigma_o_sq=1.0,
    )


@dataclass(frozen=True)
class FilterSpec:
    """One tracker entry of an experiment; None multipliers take the variant's defaults."""

    label: str
    variant: str
    d: int
    gamma: float | None = None
    beta: float | None = None


def default_filters(d: int = 20) -> tuple:
    """The paper's eight trackers; at ``d = 3`` the order-3 and order-``d``
    entries coincide and are listed once."""
    specs = (
        FilterSpec("pafimocs", "pafimocs", d),
        FilterSpec("pafimocs-ssc", "pafimocs-ssc", d),
        FilterSpec("pf-mt-3", "pf-mt", 3),
        FilterSpec(f"pf-mt-{d}", "pf-mt", d),
        FilterSpec("pf-gordon-3", "pf-gordon", 3),
        FilterSpec(f"pf-gordon-{d}", "pf-gordon", d),
        FilterSpec("aux-pf-3", "aux-pf", 3),
        FilterSpec(f"aux-pf-{d}", "aux-pf", d),
    )
    return tuple(dict.fromkeys(specs))


@dataclass
class SimConfig:
    """Everything one experiment needs; ``n_frames`` counts tracked steps
    after the known initial frame."""

    seed: int = 0
    n_frames: int = 50
    frame_height: int = 96
    frame_width: int = 96
    template_height: int = 32
    template_width: int = 32
    template_seed: int = 0
    d: int = 20
    n_pf: int = 100
    params: ModelParams = field(default_factory=default_params)
    support_change_period: int = 5
    initial_support_size: int = 5
    filters: tuple = field(default_factory=default_filters)
    n_monte_carlo: int = 20
    n_jobs: int = 1  # outputs do not depend on it

    def __post_init__(self):
        if self.n_frames < 1:
            raise ValueError("n_frames must be >= 1")
        if self.support_change_period < 1:
            raise ValueError("support_change_period must be >= 1")
        if not 0 <= self.initial_support_size <= self.params.n_lambda:
            raise ValueError("initial_support_size must lie in [0, n_lambda]")
        if (
            self.template_height > self.frame_height
            or self.template_width > self.frame_width
        ):
            raise ValueError("template must fit inside the frame")
        if self.params.n_lambda != 2 * self.d + 1:
            raise ValueError("params.n_lambda must equal 2 * d + 1")
        if self.n_monte_carlo < 1 or self.n_jobs < 1:
            raise ValueError("n_monte_carlo and n_jobs must be >= 1")
        if not self.filters:
            raise ValueError("filters must name at least one tracker")
        labels = [spec.label for spec in self.filters]
        duplicated = sorted({label for label in labels if labels.count(label) > 1})
        if duplicated:
            raise ValueError(f"duplicate filter labels: {', '.join(duplicated)}")
        for spec in self.filters:  # a bad multiplier fails here, not at a run's first solve
            resolve_filter_config(spec, self)


# SimConfig's int settings and their defaults; ``params`` and ``filters`` come
# from factories and are written their own way.
_INT_FIELDS = {f.name: f.default for f in fields(SimConfig) if f.default is not MISSING}


@dataclass(eq=False)
class GroundTruth:
    states: list
    frames: list
    template: TemplatePatch


def make_template(pattern: str, height: int, width: int, seed: int) -> TemplatePatch:
    """Deterministic synthetic template at origin (0, 0).

    ``bumps``, the one pattern, is two off-center Gaussian bumps plus a
    linear ramp, rescaled to the pixel range [40, 220].
    """
    if height < 4 or width < 4:
        raise ValueError("template must be at least 4 x 4")
    if pattern != "bumps":
        raise ValueError(f"unknown template pattern {pattern!r}")
    rng = np.random.default_rng(seed)
    ii, jj = np.meshgrid(
        np.linspace(0.0, 1.0, height), np.linspace(0.0, 1.0, width), indexing="ij"
    )

    def bump(center_i, center_j, width_n, amp):
        return amp * np.exp(
            -((ii - center_i) ** 2 + (jj - center_j) ** 2) / (2.0 * width_n**2)
        )

    jit = rng.uniform(-0.05, 0.05, size=6)
    raw = (
        bump(0.35 + jit[0], 0.30 + jit[1], 0.16 * (1.0 + jit[4]), 1.0)
        + bump(0.62 + jit[2], 0.70 + jit[3], 0.22 * (1.0 + jit[5]), 0.8)
        + 0.45 * (0.6 * ii + 0.4 * jj)
    )
    low, high = float(np.min(raw)), float(np.max(raw))
    image = 40.0 + 180.0 * (raw - low) / (high - low)
    return TemplatePatch.from_image(image)


def _anchored_template(cfg: SimConfig) -> TemplatePatch:
    base = make_template("bumps", cfg.template_height, cfg.template_width, cfg.template_seed)
    origin_i = (cfg.frame_height - cfg.template_height) // 2
    origin_j = (cfg.frame_width - cfg.template_width) // 2
    return base.with_origin(origin_i, origin_j)


def generate_sequence(cfg: SimConfig, rng) -> GroundTruth:
    """Draw one ground-truth sequence with its rendered frames.

    Per-frame draw order: motion noise, support moves (only on frames
    divisible by the period), coefficient noise, then the frame's clutter
    and pixel noise.
    """
    template = _anchored_template(cfg)
    dictionary = build_dictionary(template, cfg.d)
    params = cfg.params
    noise = NoiseModel.for_params(params)
    frame_dims = (cfg.frame_height, cfg.frame_width)

    support = SupportSet.from_indices(
        rng.choice(params.n_lambda, size=cfg.initial_support_size, replace=False),
        params.n_lambda,
    )
    state = FullState(MotionState(0.0, 0.0, 1.0), support, np.zeros(params.n_lambda))
    states = [state]
    frames = [
        render_frame(state.motion, state.coeffs, template, dictionary, frame_dims, noise, rng)
    ]
    for t in range(1, cfg.n_frames + 1):
        motion = sample_motion_transition(state.motion, params, rng)
        support = (
            sample_support_transition(state.support, params, rng)
            if t % cfg.support_change_period == 0
            else state.support
        )
        coeffs = sample_coeff_transition(state.coeffs, support, params, rng)
        state = FullState(motion, support, coeffs)
        states.append(state)
        frames.append(
            render_frame(motion, coeffs, template, dictionary, frame_dims, noise, rng)
        )
    return GroundTruth(states=states, frames=frames, template=template)


def _truth_arrays(truth: GroundTruth) -> tuple[np.ndarray, np.ndarray]:
    motion = np.stack([s.motion.as_array() for s in truth.states])
    coeffs = np.stack([s.coeffs for s in truth.states])
    return motion, coeffs


def nmse_components(
    truth: GroundTruth, motion_est: np.ndarray, coeff_est: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame squared error and squared reference mass of one run."""
    t_motion, t_coeffs = _truth_arrays(truth)
    coeff_est = coeffs_on_axis(coeff_est, t_coeffs.shape[1])
    motion_est = np.asarray(motion_est, dtype=float)
    if motion_est.shape != t_motion.shape or coeff_est.shape != t_coeffs.shape:
        raise ValueError("estimate arrays do not match the truth length")
    err = np.sum((t_motion - motion_est) ** 2, axis=1) + np.sum(
        (t_coeffs - coeff_est) ** 2, axis=1
    )
    ref = np.sum(t_motion**2, axis=1) + np.sum(t_coeffs**2, axis=1)
    return err, ref


def _ratio(err: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """``err / ref``, NaN where the reference mass is zero."""
    out = np.full(err.shape, np.nan)
    np.divide(err, ref, out=out, where=ref > 0.0)
    return out


def nmse(truth: GroundTruth, motion_est: np.ndarray, coeff_est: np.ndarray) -> np.ndarray:
    """Per-frame normalized squared error of a single run (NaN where the
    reference mass is zero)."""
    return _ratio(*nmse_components(truth, motion_est, coeff_est))


def location_error(truth_motion, est_motion) -> np.ndarray:
    """Euclidean distance between true and estimated translations."""
    t = np.atleast_2d(np.asarray(truth_motion, dtype=float))
    e = np.atleast_2d(np.asarray(est_motion, dtype=float))
    if t.shape != e.shape:
        raise ValueError("motion arrays must have matching shapes")
    return np.hypot(t[:, 0] - e[:, 0], t[:, 1] - e[:, 1])


def resolve_filter_config(spec: FilterSpec, cfg: SimConfig) -> FilterConfig:
    """Fill a tracker's multipliers from its variant's defaults where unset."""
    multipliers = dict(_VARIANT_MULTIPLIERS.get(spec.variant, {}))
    if spec.gamma is not None:
        multipliers["gamma"] = spec.gamma
    if spec.beta is not None:
        multipliers["beta"] = spec.beta
    return FilterConfig(variant=spec.variant, n_pf=cfg.n_pf, d=spec.d, **multipliers)


@dataclass
class FilterRun:
    """One tracker's run over a ground-truth sequence, scored against it."""

    result: TrackResult
    coeffs: np.ndarray      # (n_frames + 1, n_lambda), cut or zero-padded to the truth's width
    err_sq: np.ndarray      # per frame, as nmse_components
    ref_sq: np.ndarray
    le: np.ndarray          # per-frame location error

    @property
    def nmse(self) -> np.ndarray:
        """Per-frame ``err_sq / ref_sq``, NaN where the reference mass is zero."""
        return _ratio(self.err_sq, self.ref_sq)


def track_truth(cfg: SimConfig, truth: GroundTruth, seeds) -> dict:
    """Run each of ``cfg.filters`` over ``truth`` from its first state and
    score it; the k-th tracker is seeded by ``seeds[k]``. Returns
    ``{label: FilterRun}`` in filter order."""
    t_motion, _ = _truth_arrays(truth)
    runs = {}
    for spec, seed in zip(cfg.filters, seeds, strict=True):
        fcfg = resolve_filter_config(spec, cfg)
        result = run_tracker(
            truth.frames, truth.template, cfg.params, fcfg, truth.states[0], seed
        )
        coeffs = coeffs_on_axis(result.coeffs, cfg.params.n_lambda)
        err, ref = nmse_components(truth, result.motion, coeffs)
        runs[spec.label] = FilterRun(
            result, coeffs, err, ref, location_error(t_motion, result.motion)
        )
    return runs


@dataclass
class MetricSeries:
    """Aggregated metrics of one tracker across Monte Carlo runs."""

    label: str
    nmse: np.ndarray        # ratio of run-averaged error to run-averaged reference
    le_mean: np.ndarray
    le_stderr: np.ndarray
    err_sq: np.ndarray      # (n_runs, n_frames + 1)
    ref_sq: np.ndarray
    le: np.ndarray
    lost: np.ndarray        # (n_runs,) bool


@dataclass
class ExperimentResult:
    metrics: dict
    n_runs: int


def _run_one(cfg: SimConfig, run_ss: np.random.SeedSequence) -> dict:
    """One Monte Carlo replication: ``{label: FilterRun}`` over a fresh scene."""
    children = run_ss.spawn(1 + len(cfg.filters))
    truth = generate_sequence(cfg, np.random.default_rng(children[0]))
    return track_truth(cfg, truth, children[1:])


def _spawn_run_seeds(cfg: SimConfig) -> list:
    # runs are seeded by independent spawned sequences of the master seed;
    # the child objects themselves are passed around (their .entropy alone
    # would collapse every run onto the parent seed)
    return np.random.SeedSequence(cfg.seed).spawn(cfg.n_monte_carlo)


def run_experiment(cfg: SimConfig, out_dir) -> ExperimentResult:
    """Run the full Monte Carlo comparison and write the CSV/JSON artifacts.

    Emits ``runs.csv`` (per run, filter, frame), ``aggregate.csv`` (per
    filter, frame), and ``summary.json``. Byte-identical outputs for
    identical (config, seed) regardless of ``n_jobs``.
    """
    os.makedirs(out_dir, exist_ok=True)
    run_seeds = _spawn_run_seeds(cfg)
    if cfg.n_jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.n_jobs) as pool:
            filter_runs = list(pool.map(_run_one, [cfg] * len(run_seeds), run_seeds))
    else:
        filter_runs = [_run_one(cfg, run_ss) for run_ss in run_seeds]

    metrics = {}
    for spec in cfg.filters:
        runs = [rows[spec.label] for rows in filter_runs]
        err = np.stack([run.err_sq for run in runs])
        ref = np.stack([run.ref_sq for run in runs])
        le = np.stack([run.le for run in runs])
        lost = np.array([run.result.lost_at is not None for run in runs], dtype=bool)
        le_stderr = (
            np.std(le, axis=0, ddof=1) / math.sqrt(cfg.n_monte_carlo)
            if cfg.n_monte_carlo > 1
            else np.zeros(cfg.n_frames + 1)
        )
        metrics[spec.label] = MetricSeries(
            label=spec.label,
            nmse=_ratio(np.mean(err, axis=0), np.mean(ref, axis=0)),
            le_mean=np.mean(le, axis=0),
            le_stderr=le_stderr,
            err_sq=err,
            ref_sq=ref,
            le=le,
            lost=lost,
        )

    _write_runs_csv(os.path.join(out_dir, "runs.csv"), filter_runs)
    _write_aggregate_csv(os.path.join(out_dir, "aggregate.csv"), cfg, metrics)
    _write_summary_json(os.path.join(out_dir, "summary.json"), cfg, metrics)
    return ExperimentResult(metrics=metrics, n_runs=cfg.n_monte_carlo)


def _write_runs_csv(path, filter_runs) -> None:
    fileio.write_csv(path, [
        [f"# {CSV_SCHEMA} runs"],
        ["run", "filter", "frame", "err_sq", "ref_sq", "loc_err", "lost"],
        *(
            [r, label, t, err, ref, le, int(run.result.lost_at is not None)]
            for r, runs in enumerate(filter_runs)
            for label, run in runs.items()
            for t, (err, ref, le) in enumerate(zip(run.err_sq, run.ref_sq, run.le))
        ),
    ])


def _write_aggregate_csv(path, cfg: SimConfig, metrics) -> None:
    fileio.write_csv(path, [
        [f"# {CSV_SCHEMA} aggregate"],
        ["filter", "frame", "nmse", "le_mean", "le_stderr", "n_runs"],
        *(
            [label, t, ratio, le_mean, le_stderr, cfg.n_monte_carlo]
            for label, series in metrics.items()
            for t, (ratio, le_mean, le_stderr) in enumerate(
                zip(series.nmse, series.le_mean, series.le_stderr)
            )
        ),
    ])


def _write_summary_json(path, cfg: SimConfig, metrics) -> None:
    summary = {
        "schema": f"{CSV_SCHEMA} summary",
        # the config.cfg form, less n_jobs, which changes no output
        "config": {k: v for k, v in sim_config_to_kv(cfg).items() if k != "n_jobs"},
        "filters": {
            label: {
                "final_nmse": float(series.nmse[-1]),
                "final_le_mean": float(series.le_mean[-1]),
                "lost_runs": int(np.sum(series.lost)),
            }
            for label, series in metrics.items()
        },
    }
    fileio.write_json(path, summary)


def analyze_support(
    source: np.ndarray,
    dictionary: Dictionary,
    template: TemplatePatch | None = None,
    fraction: float = 0.99,
) -> SupportTrace:
    """Energy-support statistics of a patch or coefficient sequence.

    ``source`` rows are either aligned patches (length matching the
    dictionary rows; a template is then required and each frame is fitted by
    least squares) or ready coefficient vectors (length matching the
    dictionary columns). A dictionary with as many columns as pixels is
    refused: its rows read both ways, and no fit of such a Legendre dictionary
    (rank at most h + w - 1) succeeds.
    """
    source = np.atleast_2d(np.asarray(source, dtype=float))
    patches = source.shape[1] == dictionary.n_pixels
    if patches == (source.shape[1] == dictionary.n_lambda):
        raise ValueError(
            "source rows must match exactly one of the dictionary rows (patches) "
            "and columns (coefficients)"
        )
    coeffs = source
    if patches:
        if template is None:
            raise ValueError("fitting patches requires the template")
        coeffs = np.stack([ml_coeff_fit(row, template, dictionary) for row in source])
    return support_trace(coeffs, fraction)


def write_membership_csv(trace: SupportTrace, path) -> None:
    """0/1 matrix of support membership, frames down, indices across."""
    fileio.write_csv(path, [
        ["frame", *(f"idx_{k}" for k in range(trace.masks.shape[1]))],
        *([t, *row] for t, row in enumerate(trace.membership_matrix().tolist())),
    ])


def parse_filter_label(label: str, default_d: int) -> FilterSpec:
    """A label is a variant name with an optional ``-<d>`` order suffix."""
    head, _, tail = label.rpartition("-")
    if head and tail.isdigit():
        variant, d = head, int(tail)
    else:
        variant, d = label, default_d
    if variant not in VARIANTS:
        raise ValueError(f"unknown filter label {label!r}")
    return FilterSpec(label=label, variant=variant, d=d)


def parse_filter_labels(text: str, default_d: int) -> tuple:
    """The filter specs of comma-separated labels; blank entries are skipped."""
    labels = (label.strip() for label in text.split(","))
    return tuple(parse_filter_label(label, default_d) for label in labels if label)


def select_filters(cfg: SimConfig, text: str | None) -> SimConfig:
    """``cfg`` running the comma-separated filter labels of ``text`` (all of
    its own when None); a label ``cfg`` already has keeps its spec, per-label
    multiplier overrides included."""
    if text is None:
        return cfg
    known = {spec.label: spec for spec in cfg.filters}
    specs = parse_filter_labels(text, cfg.d)
    return replace(cfg, filters=tuple(known.get(spec.label, spec) for spec in specs))


def sim_config_to_kv(cfg: SimConfig) -> dict:
    """Flatten a simulation config for the key-value file format."""
    kv = dict(cfg.params.to_config())
    kv.update({name: getattr(cfg, name) for name in _INT_FIELDS})
    kv["filters"] = ",".join(spec.label for spec in cfg.filters)
    for spec in cfg.filters:
        if spec.gamma is not None:
            kv[f"{spec.label}.gamma"] = spec.gamma
        if spec.beta is not None:
            kv[f"{spec.label}.beta"] = spec.beta
    return kv


def sim_config_from_kv(kv: dict) -> SimConfig:
    """Rebuild a simulation config from a flat key-value mapping.

    Missing keys take the dataclass defaults, except ``n_lambda``, which
    follows ``d`` as ``2 d + 1``, and ``s_expected`` and
    ``initial_support_size``, which are capped at that ``n_lambda``; unknown
    keys (beyond the per-filter ``<label>.gamma`` / ``<label>.beta``
    overrides) are an error.
    """
    kv = dict(kv)
    scalars = {name: _read_value(name, kv.pop(name), int) for name in _INT_FIELDS if name in kv}
    n_lambda = 2 * scalars.get("d", _INT_FIELDS["d"]) + 1
    initial_size = min(_INT_FIELDS["initial_support_size"], n_lambda)
    scalars.setdefault("initial_support_size", initial_size)
    defaults = default_params().on_axis(n_lambda).to_config()
    params = ModelParams.from_config({key: kv.pop(key, value) for key, value in defaults.items()})
    cfg = SimConfig(params=params, **scalars)  # the filter labels need its d
    specs = []
    for spec in parse_filter_labels(str(kv.pop("filters", "")), cfg.d) or default_filters(cfg.d):
        overrides = {
            name: _read_value(key, kv.pop(key), float)
            for name in ("gamma", "beta")
            if (key := f"{spec.label}.{name}") in kv
        }
        specs.append(replace(spec, **overrides))
    if kv:
        raise ValueError(f"unknown config keys: {sorted(kv)}")
    return replace(cfg, filters=tuple(specs))
