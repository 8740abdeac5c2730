"""Print the sha256 of every artifact of a fixed set of seeded runs.

Two checkouts whose outputs print the same lines write byte-identical
artifacts. The runs are:

- ``experiment``: ``run_experiment(SimConfig(n_frames=10, n_monte_carlo=2))``
  (``runs.csv``, ``aggregate.csv``, ``summary.json``);
- ``simulate``: ``pafimocs simulate --n-frames 10`` (every file it writes);
- ``track-config-seed`` and ``track-seed-7``: ``pafimocs track`` over the
  default eight filters on that simulated directory, with the config seed
  and with ``--seed 7``.

Usage, from the root of a checkout (``--src`` picks the package tree to
import, by default this checkout's ``src``)::

    python scripts/artifact_digest.py > digest.txt
    python scripts/artifact_digest.py --src ../other-checkout/src > other.txt
    diff digest.txt other.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


def write_artifacts(out: str) -> None:
    from pafimocs import cli
    from pafimocs.harness import SimConfig, run_experiment

    run_experiment(SimConfig(n_frames=10, n_monte_carlo=2), os.path.join(out, "experiment"))
    sim = os.path.join(out, "simulate")
    runs = (
        ["simulate", "--out", sim, "--n-frames", "10"],
        ["track", "--sim", sim, "--out", os.path.join(out, "track-config-seed")],
        ["track", "--sim", sim, "--out", os.path.join(out, "track-seed-7"), "--seed", "7"],
    )
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"pafimocs {argv[0]} exited with {code}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="package tree to import")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    with tempfile.TemporaryDirectory() as out:
        write_artifacts(out)
        print("\n".join(sha256_lines(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
