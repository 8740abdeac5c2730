"""Command line entry points.

Five subcommands cover the full workflow:

- ``simulate``: draw a ground-truth sequence and write it to a directory
  (config echo, template, per-frame matrices and PGM previews, states.csv).
- ``track``: run one or more trackers over a simulated directory and write
  estimates, metrics against the stored truth, and a step log.
- ``experiment``: the full Monte Carlo comparison (runs.csv, aggregate.csv,
  summary.json).
- ``analyze-support``: energy-support statistics of a coefficient or patch
  matrix.
- ``solve``: one mode-tracking solve from a problem directory.

All failures exit nonzero with a single JSON line on stderr:
``{"error": "<message>", "type": "<exception class>"}``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import fileio
from .dictionary import TemplatePatch, build_dictionary, load_dictionary
from .fileio import _read_value
from .harness import (
    GroundTruth,
    SimConfig,
    analyze_support,
    generate_sequence,
    run_experiment,
    select_filters,
    sim_config_from_kv,
    sim_config_to_kv,
    track_truth,
    write_membership_csv,
)
from .models import FullState, MotionState, SupportSet
from .observation import Frame
from .solver import ModeTrackingProblem, SolverConfig, solve, solve_with_outliers

__all__ = ["cmd_simulate", "cmd_track", "cmd_experiment", "cmd_analyze_support", "cmd_solve",
           "build_parser", "main"]

# the CLI options that set config keys, each stored under its key
_OPTION_KEYS = ("seed", "n_frames", "n_monte_carlo", "n_jobs", "n_pf", "d")


def _load_sim_config(args) -> SimConfig:
    """The config of the file's keys and the CLI options, an option overriding its key;
    ``--d`` overrides the file's ``n_lambda`` too, which then follows it."""
    kv = fileio.read_kv(args.config) if args.config else {}
    if getattr(args, "d", None) is not None:
        kv.pop("n_lambda", None)
    for key in _OPTION_KEYS:
        if getattr(args, key, None) is not None:
            kv[key] = getattr(args, key)
    return select_filters(sim_config_from_kv(kv), getattr(args, "filters", None))


def _write_template_dir(out_dir, template: TemplatePatch) -> None:
    fileio.write_kv(
        os.path.join(out_dir, "template.cfg"),
        {
            "height": template.height,
            "width": template.width,
            "origin_i": template.origin_i,
            "origin_j": template.origin_j,
        },
    )
    fileio.save_matrix(
        os.path.join(out_dir, "template.mat"),
        template.image(),
        (template.height, template.width, 0),
    )


def _read_template_dir(sim_dir) -> TemplatePatch:
    meta = fileio.read_kv(os.path.join(sim_dir, "template.cfg"))
    image, _ = fileio.load_matrix(os.path.join(sim_dir, "template.mat"))
    return TemplatePatch.from_image(
        image, origin=(int(meta["origin_i"]), int(meta["origin_j"]))
    )


def _lam_columns(cfg: SimConfig) -> list:
    return [f"lam_{k}" for k in range(cfg.params.n_lambda)]


def _support_field(support: SupportSet) -> str:
    return "|".join(str(i) for i in support.indices)


def _parse_support_field(text: str, n_lambda: int) -> SupportSet:
    indices = [int(tok) for tok in text.split("|") if tok]
    return SupportSet.from_indices(indices, n_lambda)


def cmd_simulate(args) -> int:
    cfg = _load_sim_config(args)
    os.makedirs(args.out, exist_ok=True)
    fileio.write_kv(os.path.join(args.out, "config.cfg"), sim_config_to_kv(cfg))
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    truth = generate_sequence(cfg, rng)
    _write_template_dir(args.out, truth.template)

    fileio.write_csv(os.path.join(args.out, "states.csv"), [
        ["frame", "u_x", "u_y", "s", "support", *_lam_columns(cfg)],
        *(
            [t, *s.motion.as_array().tolist(), _support_field(s.support), *s.coeffs.tolist()]
            for t, s in enumerate(truth.states)
        ),
    ])
    for t, frame in enumerate(truth.frames):
        image = frame.image()
        fileio.save_matrix(
            os.path.join(args.out, f"frame_{t:04d}.mat"),
            image,
            (frame.height, frame.width, t),
        )
        fileio.write_pgm(os.path.join(args.out, f"frame_{t:04d}.pgm"), image)
    print(f"wrote {len(truth.frames)} frames to {args.out}")
    return 0


def _read_states_csv(path, n_lambda: int) -> list:
    states = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header[:5] != ["frame", "u_x", "u_y", "s", "support"]:
            raise ValueError(f"{path}: unexpected states header")
        for line in fh:
            parts = line.rstrip("\n").split(",")
            motion = MotionState(float(parts[1]), float(parts[2]), float(parts[3]))
            support = _parse_support_field(parts[4], n_lambda)
            coeffs = np.array([float(v) for v in parts[5 : 5 + n_lambda]])
            states.append(FullState(motion, support, coeffs))
    return states


def cmd_track(args) -> int:
    sim_dir = args.sim
    cfg = select_filters(
        sim_config_from_kv(fileio.read_kv(os.path.join(sim_dir, "config.cfg"))), args.filters
    )
    template = _read_template_dir(sim_dir)
    states = _read_states_csv(os.path.join(sim_dir, "states.csv"), cfg.params.n_lambda)
    frames = []
    for t in range(len(states)):
        image, _ = fileio.load_matrix(os.path.join(sim_dir, f"frame_{t:04d}.mat"))
        frames.append(Frame.from_image(image))
    truth = GroundTruth(states=states, frames=frames, template=template)

    os.makedirs(args.out, exist_ok=True)
    seed = cfg.seed if args.seed is None else args.seed
    # one spawned seed per tracker, in filter order
    runs = track_truth(cfg, truth, np.random.SeedSequence(seed).spawn(len(cfg.filters)))
    fileio.write_csv(os.path.join(args.out, "estimates.csv"), [
        ["filter", "frame", "u_x", "u_y", "s", *_lam_columns(cfg)],
        *(
            [label, t, *motion, *coeffs]
            for label, run in runs.items()
            for t, (motion, coeffs) in enumerate(
                zip(run.result.motion.tolist(), run.coeffs.tolist())
            )
        ),
    ])
    fileio.write_csv(os.path.join(args.out, "metrics.csv"), [
        ["filter", "frame", "err_sq", "ref_sq", "nmse", "loc_err"],
        *(
            [label, t, *row]
            for label, run in runs.items()
            for t, row in enumerate(zip(run.err_sq, run.ref_sq, run.nmse, run.le))
        ),
    ])
    fileio.write_csv(os.path.join(args.out, "tracker_log.csv"), [
        ["filter", "frame", "ess", "max_log_weight", "mean_support_size"],
        *(
            [label, t, *row]
            for label, run in runs.items()
            for t, row in enumerate(
                zip(run.result.ess, run.result.max_log_weight, np.mean(run.result.support_sizes, 1))
            )
        ),
    ])
    fileio.write_json(os.path.join(args.out, "track_summary.json"), {
        label: {
            "final_nmse": float(run.nmse[-1]) if run.ref_sq[-1] > 0 else None,
            "final_loc_err": float(run.le[-1]),
            "lost_at": run.result.lost_at,
        }
        for label, run in runs.items()
    })
    print(f"tracked {len(cfg.filters)} filters over {len(frames)} frames")
    return 0


def cmd_experiment(args) -> int:
    cfg = _load_sim_config(args)
    result = run_experiment(cfg, args.out)
    finals = {
        label: float(series.nmse[-1]) for label, series in result.metrics.items()
    }
    print(json.dumps({"final_nmse": finals, "n_runs": result.n_runs}, sort_keys=True))
    return 0


def cmd_analyze_support(args) -> int:
    source, _ = fileio.load_matrix(args.input)
    image, _ = fileio.load_matrix(args.template)
    template = TemplatePatch.from_image(image)
    dictionary = build_dictionary(template, args.d)
    trace = analyze_support(source, dictionary, template, fraction=args.fraction)
    trace.write_csv(args.out)
    if args.membership:
        write_membership_csv(trace, args.membership)
    print(f"analyzed {len(trace.masks)} frames")
    return 0


# problem.cfg keys besides ``cond_support``; a key left out takes the field's default
_PROBLEM_KEYS = ("sigma_o_sq", "sigma_l_sq", "beta", "gamma", "gamma_outlier")
_SOLVER_KEYS = ("kkt_tolerance",)


def _load_problem_dir(problem_dir):
    kv = fileio.read_kv(os.path.join(problem_dir, "problem.cfg"))
    unknown = set(kv) - {"cond_support", *_PROBLEM_KEYS, *_SOLVER_KEYS}
    if unknown:
        raise ValueError(f"unknown problem keys: {sorted(unknown)}")
    y, _ = fileio.load_matrix(os.path.join(problem_dir, "y.mat"))
    lam_prev, _ = fileio.load_matrix(os.path.join(problem_dir, "lambda_prev.mat"))
    dictionary = load_dictionary(os.path.join(problem_dir, "phi.mat"))
    support = _parse_support_field(kv.get("cond_support", ""), dictionary.n_lambda)
    problem = ModeTrackingProblem(
        y_residual_base=y.ravel(),
        dictionary=dictionary,
        lambda_prev=lam_prev.ravel(),
        cond_support=support,
        **{key: _read_value(key, kv[key], float) for key in _PROBLEM_KEYS if key in kv},
    )
    config = SolverConfig(
        **{key: _read_value(key, kv[key], float) for key in _SOLVER_KEYS if key in kv}
    )
    return problem, config


def cmd_solve(args) -> int:
    problem, config = _load_problem_dir(args.problem)
    if args.trace:
        config = dataclasses.replace(config, record_trace=True)
    os.makedirs(args.out, exist_ok=True)
    if problem.gamma_outlier is not None:
        result = solve_with_outliers(problem, config)
        fileio.save_matrix(
            os.path.join(args.out, "outliers.mat"),
            result.outlier_opt.reshape(1, -1),
            (1, result.outlier_opt.size, 0),
        )
    else:
        result = solve(problem, config)
    fileio.save_matrix(
        os.path.join(args.out, "solution.mat"),
        result.lambda_opt.reshape(1, -1),
        (1, result.lambda_opt.size, 0),
    )
    payload = {
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
        "kkt_residual": float(result.kkt_residual),
        "objective": float(result.objective),
    }
    fileio.write_json(os.path.join(args.out, "result.json"), payload)
    if args.trace and result.trace is not None:
        fileio.write_csv(
            os.path.join(args.out, "trace.csv"),
            [["iteration", "objective", "kkt_residual"], *result.trace],
        )
    print(json.dumps(payload, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pafimocs",
        description="Particle-filtered template tracking with sparse coefficient changes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="draw and store a ground-truth sequence")
    p_sim.add_argument("--config", help="key-value config file (defaults when omitted)")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--seed", type=int, help="override the config seed")
    p_sim.add_argument("--n-frames", type=int, dest="n_frames")
    p_sim.set_defaults(func=cmd_simulate)

    p_trk = sub.add_parser("track", help="run trackers over a simulated directory")
    p_trk.add_argument("--sim", required=True, help="directory written by simulate")
    p_trk.add_argument("--out", required=True)
    p_trk.add_argument("--filters", help="comma-separated filter labels")
    p_trk.add_argument("--seed", type=int, help="tracker seed (defaults to config seed)")
    p_trk.set_defaults(func=cmd_track)

    p_exp = sub.add_parser("experiment", help="Monte Carlo tracker comparison")
    p_exp.add_argument("--config", help="key-value config file (defaults when omitted)")
    p_exp.add_argument("--out", required=True)
    p_exp.add_argument("--seed", type=int)
    p_exp.add_argument("--n-frames", type=int, dest="n_frames")
    p_exp.add_argument("--n-runs", type=int, dest="n_monte_carlo")
    p_exp.add_argument("--n-jobs", type=int, dest="n_jobs")
    p_exp.add_argument("--n-pf", type=int, dest="n_pf", help="particles per tracker")
    p_exp.add_argument(
        "--d", type=int, help="dictionary order (n_lambda = 2 d + 1, whatever the config sets)"
    )
    p_exp.add_argument("--filters", help="comma-separated filter labels")
    p_exp.set_defaults(func=cmd_experiment)

    p_sup = sub.add_parser(
        "analyze-support", help="energy-support statistics of a matrix of frames"
    )
    p_sup.add_argument("--input", required=True, help="matrix of coefficient or patch rows")
    p_sup.add_argument("--template", required=True, help="template matrix file")
    p_sup.add_argument("--d", type=int, required=True, help="dictionary order")
    p_sup.add_argument("--fraction", type=float, default=0.99)
    p_sup.add_argument("--out", required=True, help="trace CSV path")
    p_sup.add_argument("--membership", help="optional membership CSV path")
    p_sup.set_defaults(func=cmd_analyze_support)

    p_sol = sub.add_parser("solve", help="one mode-tracking solve from a problem directory")
    p_sol.add_argument("--problem", required=True)
    p_sol.add_argument("--out", required=True)
    p_sol.add_argument("--trace", action="store_true", help="also write trace.csv")
    p_sol.set_defaults(func=cmd_solve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # argparse errors exit earlier with code 2
        line = json.dumps({"error": str(exc), "type": type(exc).__name__})
        print(line, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))
