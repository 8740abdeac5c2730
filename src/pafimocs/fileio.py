"""Small file formats shared across the package.

Five formats live here: flat key-value config text, a plain text matrix
format with a 3-integer header line, 8-bit binary PGM previews (written for
people, never read back), and the two artifact writers every command uses:
``write_csv`` (comma-separated rows; a one-cell row such as
``# pafimocs-csv-v1 runs`` is written as is) and ``write_json`` (indent 2,
sorted keys, final newline). All float emission goes through ``fmt_float``
(shortest round-trip repr of a builtin float) so that repeated runs write
byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = [
    "fmt_float",
    "write_csv",
    "write_json",
    "read_kv",
    "write_kv",
    "load_matrix",
    "save_matrix",
    "write_pgm",
]


def fmt_float(x) -> str:
    """Shortest round-trip decimal form of a float64 value."""
    return repr(float(x))


def _cell(x) -> str:
    return fmt_float(x) if isinstance(x, float) else str(x)


def write_csv(path, rows) -> None:
    """Write rows of cells, comma-separated: floats (``np.float64`` too)
    through ``fmt_float``, every other cell through ``str``."""
    with open(path, "w") as fh:
        fh.writelines(",".join(map(_cell, row)) + "\n" for row in rows)


def write_json(path, payload) -> None:
    """Write a JSON document with indent 2, sorted keys and a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_kv(path, mapping: dict) -> None:
    """Write a flat key-value config file, keys sorted, one `key = value` per line."""
    with open(path, "w") as fh:
        fh.writelines(f"{key} = {_cell(mapping[key])}\n" for key in sorted(mapping))


def _read_value(key: str, value, kind):
    """``kind(value)`` for config ``key``; a value that does not convert is an error naming it."""
    try:
        return kind(value)
    except ValueError:
        raise ValueError(f"{key}: cannot read '{value}' as {kind.__name__}") from None


def read_kv(path) -> dict:
    """Read a flat key-value config file into a str -> str dict; a key may appear once."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if not key:
                raise ValueError(f"{path}:{lineno}: empty key")
            if key in out:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = value.strip()
    return out


def save_matrix(path, matrix: np.ndarray, header: tuple[int, int, int]) -> None:
    """Write a 2-D float matrix as text under a 3-integer header line.

    The header carries format-specific metadata (e.g. dictionary files store
    (n_l, n_lambda, d)); the body is one row per line, full precision.
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    if matrix.ndim != 2:
        raise ValueError("save_matrix expects a 2-D array")
    h0, h1, h2 = (int(v) for v in header)
    with open(path, "w") as fh:
        fh.write(f"{h0} {h1} {h2}\n")
        # tolist() yields builtin floats, whose repr is fmt_float
        fh.writelines(" ".join(map(repr, row)) + "\n" for row in matrix.tolist())


def load_matrix(path) -> tuple[np.ndarray, tuple[int, int, int]]:
    """Read a matrix written by :func:`save_matrix`; returns (matrix, header)."""
    with open(path) as fh:
        head = fh.readline().split()
        if len(head) != 3:
            raise ValueError(f"{path}: expected a 3-integer header line")
        header = tuple(int(v) for v in head)
        rows = [list(map(float, fields)) for fields in map(str.split, fh) if fields]
    if rows:
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError(f"{path}: ragged rows")
    matrix = np.array(rows, dtype=float)
    return matrix, header  # type: ignore[return-value]


def write_pgm(path, image: np.ndarray) -> None:
    """Write a 2-D array as binary 8-bit PGM, clamping and rounding to 0..255."""
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError("write_pgm expects a 2-D array")
    pix = np.clip(np.rint(image), 0, 255).astype(np.uint8)
    h, w = pix.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pix.tobytes())

