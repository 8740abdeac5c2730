"""The numeric comparison of ``scripts/artifact_digest.py --compare``."""

import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts"))

from artifact_digest import (  # noqa: E402
    check_trace_invariant,
    numeric_difference,
    package_lines,
)


def test_files_differing_only_in_numbers_report_their_largest_differences():
    this = b"label,nmse\npf-mt-20,0.0029000000001\npafimocs,1e-05,nan\n"
    other = b"label,nmse\npf-mt-20,0.0029\npafimocs,1.5e-05,nan\n"
    max_abs, max_rel, changed, count = numeric_difference(this, other)
    assert (changed, count) == (2, 4)  # the 20 of a label and a NaN count too
    assert math.isclose(max_abs, 5e-06) and math.isclose(max_rel, 5e-06 / 1.5e-05)


def test_any_other_difference_is_not_numeric():
    base = b'{"kkt": 1e-09, "converged": true}'
    assert numeric_difference(base, base.replace(b"true", b"false")) is None
    assert numeric_difference(base, base.replace(b"1e-09", b"1e-09, 2")) is None
    assert numeric_difference(b"P5\n2 1\n255\n\xff\x00", b"P5\n2 1\n255\n\xfe\x00") is None
    assert numeric_difference(b"[Infinity]", b"[1.0]")[:2] == (math.inf, math.inf)


def test_a_traced_solve_may_only_add_its_trace(tmp_path, capsys):
    for name in ("solve", "solve-outliers"):
        for run in (name, f"{name}-trace"):
            (tmp_path / run).mkdir()
            (tmp_path / run / "result.json").write_text('{"kkt_residual": 1e-09}\n')
        (tmp_path / f"{name}-trace" / "trace.csv").write_text("iteration\n0\n")
    assert check_trace_invariant(str(tmp_path)) == 0
    (tmp_path / "solve-outliers-trace" / "result.json").write_text('{"kkt_residual": 2e-09}\n')
    assert check_trace_invariant(str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err == "solve-outliers-trace/result.json differs from the untraced solve's\n"


def test_package_lines_count_the_package_modules_only(tmp_path):
    package = tmp_path / "pafimocs"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text("import os\n\nx = 1\n")
    (package / "b.py").write_text("y = 2\nz = 3")  # no newline at the end, as wc -l counts
    (package / "notes.txt").write_text("not\ncode\n")
    (package / "sub" / "c.py").write_text("w = 4\n")
    (tmp_path / "d.py").write_text("v = 5\n")
    assert package_lines(str(tmp_path)) == 4
