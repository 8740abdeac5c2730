"""Print the sha256 of every artifact of a fixed set of seeded runs.

Two checkouts whose outputs print the same lines write byte-identical
artifacts. The runs are:

- ``experiment``: ``run_experiment(SimConfig(n_frames=10, n_monte_carlo=2))``
  (``runs.csv``, ``aggregate.csv``, ``summary.json``);
- ``experiment-seed-202``: the held-out seed,
  ``run_experiment(SimConfig(n_frames=6, n_monte_carlo=1, seed=202, n_pf=30))``;
- ``experiment-d1``: the low-order dictionary (orders 0 and 1) over the
  default filters, configured as ``pafimocs experiment --d 1 --n-runs 1
  --n-frames 6 --n-pf 30`` configures it, through ``sim_config_from_kv``;
- ``simulate``: ``pafimocs simulate --n-frames 10`` (every file it writes);
- ``track-config-seed`` and ``track-seed-7``: ``pafimocs track`` over the
  default eight filters on that simulated directory, with the config seed
  and with ``--seed 7``;
- ``simulate-config`` and ``experiment-config``: a config file that sets
  ``pafimocs.beta = 1.0`` and ``pafimocs-ssc.beta = 1.0`` (the multipliers
  of real video), ``pafimocs.gamma`` and ``pf-mt-3.beta``, read by
  ``pafimocs simulate --config ... --n-frames 2`` (only the ``config.cfg``
  it writes) and by ``pafimocs experiment --config ... --n-runs 1
  --n-frames 2 --n-pf 10`` (only ``summary.json``, which echoes the config);
- ``solve`` and ``solve-outliers``: ``pafimocs solve`` (without ``--trace``)
  on one fixed problem, the 32 x 32 ``bumps`` template with the d = 20
  dictionary and 20 spiked pixels, without and with ``gamma_outlier``
  (``result.json``, ``solution.mat``, ``outliers.mat``);
- ``solve-trace`` and ``solve-outliers-trace``: the same two solves with
  ``--trace``, which adds ``trace.csv`` and changes no other byte: every run
  exits 1 when a file of ``solve`` or ``solve-outliers`` differs from its
  copy in the traced directory (with ``--compare``, in this tree's
  artifacts);
- ``analyze-support-coeffs`` and ``analyze-support-patches``: ``pafimocs
  analyze-support`` at d = 3 on the 16 x 16 ``bumps`` template, over a
  coefficient matrix of 12 sparse rows (some of them zero) and over the
  noisy patches those rows illuminate (trace and membership CSVs).

Usage, from the root of a checkout (``--src`` picks the package tree to
import, by default this checkout's ``src``)::

    python scripts/artifact_digest.py > digest.txt
    python scripts/artifact_digest.py --src ../other-checkout/src > other.txt
    diff digest.txt other.txt

``--compare OTHER_SRC`` writes the artifacts of both trees (each in its own
process) and, for each file whose bytes differ, prints the largest absolute
and relative difference over its numeric tokens. It exits 1 when a file
differs in anything other than numbers (text, token count, a binary file,
a file present in one tree only), so a change within rounding is one
command. It also prints the line count of each tree's ``pafimocs/*.py``::

    python scripts/artifact_digest.py --compare ../other-checkout/src
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import io
import math
import multiprocessing
import os
import re
import shutil
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# a decimal or exponent number, or a non-finite one as repr or json writes it
NUMBER = re.compile(
    r"((?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf|NaN|Infinity)(?![\w.]))"
)


def sha256_lines(base: str) -> list[str]:
    """``<sha256>  <path relative to base>`` for every file under ``base``."""
    lines = []
    for dirpath, _, names in os.walk(base):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append(f"{digest}  {os.path.relpath(path, base)}")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


def write_problem(pdir: str) -> dict:
    """Write the fixed solve problem's matrices; returns its ``problem.cfg`` keys."""
    from pafimocs import fileio
    from pafimocs.dictionary import build_dictionary, save_dictionary
    from pafimocs.harness import make_template

    dictionary = build_dictionary(make_template("bumps", 32, 32, seed=0), 20)
    n, m = dictionary.n_lambda, dictionary.n_pixels
    rng = np.random.default_rng(0)
    support = np.sort(rng.choice(n, size=6, replace=False))
    lam_prev = np.zeros(n)
    lam_prev[support] = rng.normal(0.0, 0.1, support.size)
    y = dictionary.matrix @ lam_prev + rng.normal(0.0, 1.0, m)
    y[rng.choice(m, size=20, replace=False)] += 200.0 * rng.choice([-1.0, 1.0], size=20)
    os.makedirs(pdir)
    save_dictionary(dictionary, os.path.join(pdir, "phi.mat"))
    fileio.save_matrix(os.path.join(pdir, "y.mat"), y.reshape(1, -1), (1, m, 0))
    fileio.save_matrix(os.path.join(pdir, "lambda_prev.mat"), lam_prev.reshape(1, -1), (1, n, 0))
    return {
        "sigma_o_sq": 1.0,
        "sigma_l_sq": 0.01,
        "beta": 0.4,
        "gamma": 0.7,
        "cond_support": "|".join(str(k) for k in support),
    }


def write_artifacts(out: str, inputs: str) -> None:
    from pafimocs import cli, fileio
    from pafimocs.harness import SimConfig, run_experiment, sim_config_from_kv

    run_experiment(SimConfig(n_frames=10, n_monte_carlo=2), os.path.join(out, "experiment"))
    run_experiment(
        SimConfig(n_frames=6, n_monte_carlo=1, seed=202, n_pf=30),
        os.path.join(out, "experiment-seed-202"),
    )
    low_order = {"d": 1, "n_monte_carlo": 1, "n_frames": 6, "n_pf": 30}
    run_experiment(sim_config_from_kv(low_order), os.path.join(out, "experiment-d1"))
    sim = os.path.join(out, "simulate")
    runs = (
        ["simulate", "--out", sim, "--n-frames", "10"],
        ["track", "--sim", sim, "--out", os.path.join(out, "track-config-seed")],
        ["track", "--sim", sim, "--out", os.path.join(out, "track-seed-7"), "--seed", "7"],
    )
    for argv in runs:
        run_cli(cli, argv)
    write_config_runs(cli, fileio, out, inputs)
    pdir = os.path.join(inputs, "problem")  # not digested
    kv = write_problem(pdir)
    for name, extra in (("solve", {}), ("solve-outliers", {"gamma_outlier": 20.0})):
        fileio.write_kv(os.path.join(pdir, "problem.cfg"), {**kv, **extra})
        run_cli(cli, ["solve", "--problem", pdir, "--out", os.path.join(out, name)])
        trace_dir = os.path.join(out, f"{name}-trace")
        run_cli(cli, ["solve", "--problem", pdir, "--out", trace_dir, "--trace"])
    write_support_runs(cli, fileio, out, inputs)


def write_support_runs(cli, fileio, out: str, inputs: str) -> None:
    """Digest ``analyze-support`` over coefficient rows and over patch rows."""
    from pafimocs.dictionary import build_dictionary
    from pafimocs.harness import make_template

    template = make_template("bumps", 16, 16, seed=1)
    dictionary = build_dictionary(template, 3)
    rng = np.random.default_rng(3)
    coeffs = rng.normal(0.0, 0.05, (12, dictionary.n_lambda))
    coeffs *= rng.random(coeffs.shape) < 0.3
    coeffs[[0, 5]] = 0.0  # frames with an empty support
    patches = template.pixels + coeffs @ dictionary.matrix.T + rng.normal(0.0, 1.0, (12, 256))
    template_path = os.path.join(inputs, "template.mat")
    fileio.save_matrix(template_path, template.image(), (16, 16, 0))
    for name, rows in (("coeffs", coeffs), ("patches", patches)):
        source = os.path.join(inputs, f"{name}.mat")
        fileio.save_matrix(source, rows, (*rows.shape, 0))
        run_dir = os.path.join(out, f"analyze-support-{name}")
        os.makedirs(run_dir)
        argv = ["analyze-support", "--input", source, "--template", template_path, "--d", "3"]
        argv += ["--out", os.path.join(run_dir, "trace.csv")]
        run_cli(cli, argv + ["--membership", os.path.join(run_dir, "membership.csv")])


def write_config_runs(cli, fileio, out: str, inputs: str) -> None:
    """Digest what ``simulate`` and ``experiment`` echo of a non-default config."""
    config = os.path.join(inputs, "config.cfg")
    fileio.write_kv(config, {
        "pafimocs.beta": 1.0, "pafimocs-ssc.beta": 1.0, "pafimocs.gamma": 0.55, "pf-mt-3.beta": 0.25,
    })
    runs = (
        ("simulate", "config.cfg", ["--n-frames", "2"]),
        ("experiment", "summary.json", ["--n-runs", "1", "--n-frames", "2", "--n-pf", "10"]),
    )
    for command, keep, extra in runs:
        run_dir = os.path.join(inputs, command)  # not digested but for ``keep``
        run_cli(cli, [command, "--config", config, "--out", run_dir, *extra])
        os.makedirs(os.path.join(out, f"{command}-config"))
        shutil.copy(os.path.join(run_dir, keep), os.path.join(out, f"{command}-config", keep))


def run_cli(cli, argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"pafimocs {argv[0]} exited with {code}")


def numeric_difference(text: bytes, other: bytes) -> tuple[float, float, int, int] | None:
    """``(max abs, max rel, numbers that differ, numbers)`` between two files
    that differ only in their numeric tokens; None when anything else
    differs. The relative difference of two numbers is over the larger
    magnitude; two NaNs are equal."""
    try:
        parts, other_parts = (NUMBER.split(t.decode("utf-8")) for t in (text, other))
    except UnicodeDecodeError:
        return None
    if len(parts) != len(other_parts) or parts[::2] != other_parts[::2]:
        return None
    max_abs = max_rel = 0.0
    changed = 0
    for a, b in zip(map(float, parts[1::2]), map(float, other_parts[1::2])):
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        changed += 1
        diff = abs(a - b)
        if not math.isfinite(diff):  # a non-finite number against another number
            max_abs = max_rel = math.inf
            continue
        max_abs = max(max_abs, diff)
        max_rel = max(max_rel, diff / max(abs(a), abs(b)))
    return max_abs, max_rel, changed, len(parts) // 2


def read_bytes(path: str) -> bytes | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()


def check_trace_invariant(out: str) -> int:
    """1 when a traced solve wrote bytes other than its untraced run, naming
    each such file on stderr; 0 otherwise."""
    bad = [
        f"{name}-trace/{rel}"
        for name in ("solve", "solve-outliers")
        for rel in sorted(os.listdir(os.path.join(out, name)))
        if read_bytes(os.path.join(out, name, rel))
        != read_bytes(os.path.join(out, f"{name}-trace", rel))
    ]
    for rel in bad:
        print(f"{rel} differs from the untraced solve's", file=sys.stderr)
    return int(bool(bad))


def package_lines(src: str) -> int:
    """Lines of the package modules ``<src>/pafimocs/*.py``, as ``wc -l`` counts them."""
    total = 0
    for path in glob.glob(os.path.join(src, "pafimocs", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def write_tree(src: str, out: str, inputs: str) -> None:
    """Write the artifacts of the package tree ``src``; run in a fresh process."""
    sys.path.insert(0, os.path.abspath(src))
    os.makedirs(inputs)
    write_artifacts(out, inputs)


def compare(src: str, other_src: str) -> int:
    """Print how the artifacts of ``src`` and ``other_src`` differ; 1 when
    any file differs in more than its numbers or ``src``'s traced solves
    break :func:`check_trace_invariant`."""
    spawn = multiprocessing.get_context("spawn")
    with tempfile.TemporaryDirectory() as base:
        outs = []
        for name, tree in (("this", src), ("other", other_src)):
            out = os.path.join(base, name)
            proc = spawn.Process(target=write_tree, args=(tree, out, out + "-inputs"))
            proc.start()
            proc.join()
            if proc.exitcode != 0:
                raise SystemExit(f"writing the artifacts of {tree} failed")
            outs.append(out)
        files = [{line.split("  ", 1)[1] for line in sha256_lines(out)} for out in outs]
        status = differ = 0
        for rel in sorted(files[0] | files[1]):
            texts = [read_bytes(os.path.join(out, rel)) for out in outs]
            if texts[0] == texts[1]:
                continue
            differ += 1
            found = None if None in texts else numeric_difference(*texts)
            if found is None:
                status = 1
                print(f"{rel}  differs in more than its numbers")
            else:
                max_abs, max_rel, changed, count = found
                print(f"{rel}  max abs {max_abs:.3g}  max rel {max_rel:.3g}"
                      f"  ({changed} of {count} numbers)")
        print(f"{differ} of {len(files[0] | files[1])} files differ")
        print(f"pafimocs/*.py: {package_lines(src)} lines in {src}, "
              f"{package_lines(other_src)} in {other_src}")
        return status | check_trace_invariant(outs[0])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="package tree to import")
    parser.add_argument("--compare", metavar="OTHER_SRC", help="package tree to compare with")
    args = parser.parse_args(argv)
    if args.compare is not None:
        return compare(args.src, args.compare)
    sys.path.insert(0, os.path.abspath(args.src))
    with tempfile.TemporaryDirectory() as out, tempfile.TemporaryDirectory() as inputs:
        write_artifacts(out, inputs)
        print("\n".join(sha256_lines(out)))
        return check_trace_invariant(out)


if __name__ == "__main__":
    sys.exit(main())
