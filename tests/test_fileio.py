import math

import numpy as np
import pytest

from pafimocs import fileio


def test_fmt_float_round_trips():
    values = [0.0, -0.0, 1.5, 0.1, 1e-300, 1e300, -2.5e-8, 0.216]
    for v in values:
        assert float(fileio.fmt_float(v)) == v
    # numpy scalars must not leak their repr wrapper
    assert fileio.fmt_float(np.float64(0.25)) == "0.25"


def test_kv_round_trip(tmp_path):
    path = tmp_path / "a.cfg"
    fileio.write_kv(path, {"b": 2, "a": 0.1, "name": "hello"})
    text = path.read_text()
    assert text.splitlines() == ["a = 0.1", "b = 2", "name = hello"]
    back = fileio.read_kv(path)
    assert back == {"a": "0.1", "b": "2", "name": "hello"}


def test_kv_comments_and_errors(tmp_path):
    path = tmp_path / "b.cfg"
    path.write_text("# comment\n\nkey = 1\n")
    assert fileio.read_kv(path) == {"key": "1"}
    path.write_text("no separator\n")
    with pytest.raises(ValueError, match="key = value"):
        fileio.read_kv(path)
    path.write_text(" = 3\n")
    with pytest.raises(ValueError, match="empty key"):
        fileio.read_kv(path)
    path.write_text("seed = 1\nn_pf = 4\nseed = 2\n")
    with pytest.raises(ValueError) as exc:
        fileio.read_kv(path)
    assert str(exc.value) == f"{path}:3: duplicate key 'seed'"


def test_write_csv_cells(tmp_path):
    path = tmp_path / "t.csv"
    fileio.write_csv(
        path,
        [
            ["# pafimocs-csv-v1 runs"],
            ("label", "value"),
            [0.1, np.float64(1e-05), 3, np.int64(-4)],
            ["pf-mt-3", math.nan, np.float64(math.nan), 1.0, ""],
        ],
    )
    assert path.read_text().splitlines() == [
        "# pafimocs-csv-v1 runs",
        "label,value",
        f"{fileio.fmt_float(0.1)},{fileio.fmt_float(1e-05)},3,-4",
        "pf-mt-3,nan,nan,1.0,",
    ]


def test_write_json_layout(tmp_path):
    path = tmp_path / "s.json"
    fileio.write_json(path, {"b": {"y": 1, "x": None}, "a": [1.5]})
    assert path.read_text() == (
        '{\n  "a": [\n    1.5\n  ],\n  "b": {\n    "x": null,\n    "y": 1\n  }\n}\n'
    )


def test_matrix_round_trip(tmp_path):
    path = tmp_path / "m.mat"
    rng = np.random.default_rng(3)
    mat = rng.standard_normal((4, 3))
    fileio.save_matrix(path, mat, (4, 3, 7))
    back, header = fileio.load_matrix(path)
    assert header == (4, 3, 7)
    assert np.array_equal(back, mat)


def test_matrix_text_is_fmt_float(tmp_path):
    path = tmp_path / "f.mat"
    values = [-0.0, 5e-324, 1e16, 1e-05, math.inf, -math.inf, math.nan]
    mat = np.array([values, values[::-1]])
    fileio.save_matrix(path, mat, (2, 7, 0))
    rows = ["2 7 0"] + [" ".join(fileio.fmt_float(v) for v in row) for row in mat]
    assert path.read_bytes() == "".join(f"{line}\n" for line in rows).encode()
    back, header = fileio.load_matrix(path)
    assert header == (2, 7, 0)
    assert back.tobytes() == mat.tobytes()


def test_matrix_skips_blank_lines_and_reads_header_only(tmp_path):
    path = tmp_path / "b.mat"
    path.write_text("2 2 0\n\n1.0 2.0\n  \t\n3.0 -0.0\n\n")
    back, header = fileio.load_matrix(path)
    assert header == (2, 2, 0)
    assert back.tobytes() == np.array([[1.0, 2.0], [3.0, -0.0]]).tobytes()
    path.write_text("0 0 0\n")
    back, header = fileio.load_matrix(path)
    assert header == (0, 0, 0) and back.shape == (0,)


def test_matrix_ragged_rejected(tmp_path):
    path = tmp_path / "r.mat"
    path.write_text("2 2 0\n1.0 2.0\n3.0\n")
    with pytest.raises(ValueError, match="ragged"):
        fileio.load_matrix(path)


def test_malformed_matrices_rejected(tmp_path):
    path = tmp_path / "m.mat"
    with pytest.raises(ValueError, match="save_matrix expects a 2-D array"):
        fileio.save_matrix(path, np.zeros((2, 2, 2)), (2, 2, 0))
    path.write_text("2 2\n1.0 2.0\n3.0 4.0\n")
    with pytest.raises(ValueError, match="expected a 3-integer header line"):
        fileio.load_matrix(path)


def test_pgm_bytes(tmp_path):
    # header "P5\n<w> <h>\n255\n", then one byte per pixel, row-major,
    # clamped to 0..255 and rounded half to even
    path = tmp_path / "img.pgm"
    image = np.array([[-5.0, 300.0, 12.4], [12.5, 12.6, 13.5]])
    fileio.write_pgm(path, image)
    assert path.read_bytes() == b"P5\n3 2\n255\n" + bytes([0, 255, 12, 12, 13, 14])
    rng = np.random.default_rng(5)
    pixels = rng.integers(0, 256, size=(6, 9))
    fileio.write_pgm(path, pixels.astype(float))
    assert path.read_bytes() == b"P5\n9 6\n255\n" + pixels.astype(np.uint8).tobytes()
    with pytest.raises(ValueError, match="2-D"):
        fileio.write_pgm(path, np.zeros(4))
