"""tools/output_sweep.py: the numeric moves it reports for CSV and JSON
artifacts."""

import importlib.util
from fractions import Fraction
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "output_sweep.py"
_SPEC = importlib.util.spec_from_file_location("output_sweep", _PATH)
output_sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_sweep)


def _write(path, text):
    path.write_text(text)
    return path


def test_csv_moves_per_column_over_every_row_and_the_last(tmp_path):
    base = _write(tmp_path / "b.csv", "s,gamma,err\n0.5,1.0,-0.0\n1.0,2.0,1e-12\n")
    head = _write(tmp_path / "h.csv", "s,gamma,err\n0.5,1.25,0.0\n1.0,2.0,3e-12\n")
    counts, every, last = output_sweep.csv_moves(base, head)
    assert counts == (2, 2)
    # s did not move, and a zero's sign is no move
    assert every == {"gamma": (Fraction(1, 5), Fraction(1, 4)),
                     "err": (Fraction(2, 3), Fraction(2, 10 ** 12))}
    assert last == {"err": (Fraction(2, 3), Fraction(2, 10 ** 12))}


def test_csv_moves_compare_only_the_last_rows_when_counts_differ(tmp_path):
    base = _write(tmp_path / "b.csv", "d,phi\n0.1,2.0\n0.2,1.0\n")
    head = _write(tmp_path / "h.csv", "d,phi\n0.1,2.0\n0.15,1.5\n0.2,0.5\n")
    assert output_sweep.csv_moves(base, head) == (
        (2, 3), None, {"phi": (Fraction(1, 2), Fraction(1, 2))})


def test_csv_moves_refuse_other_headers_and_cells(tmp_path):
    base = _write(tmp_path / "b.csv", "d,phi\n0.1,nan\n")
    assert output_sweep.csv_moves(base, _write(tmp_path / "h.csv", "d,g\n0.1,nan\n")) == (
        (1, 1), None, None)
    assert output_sweep.csv_moves(base, _write(tmp_path / "c.csv", "d,phi\n0.1,inf\n")) == (
        (1, 1), None, None)
    moved = {"d": (Fraction(1, 2), Fraction(1, 10))}
    assert output_sweep.csv_moves(base, _write(tmp_path / "e.csv", "d,phi\n0.2,nan\n")) == (
        (1, 1), moved, moved)


def test_differing_artifacts_report_their_moves(tmp_path):
    dirs = [tmp_path / "base", tmp_path / "head"]
    for d, value in zip(dirs, (1.0, 1.5)):
        (d / "run").mkdir(parents=True)
        (d / "run" / "s_side.csv").write_text(f"s,gamma\n0.25,2.0\n0.5,{value}\n")
        (d / "run" / "summary.json").write_text(f'{{"max": {value}, "tol": 0.5}}\n')
    files = {p: "x" for p in ("run/s_side.csv", "run/summary.json")}
    lines, objs, numeric = output_sweep.differences(
        ({}, files), ({}, {p: "y" for p in files}), [str(d) for d in dirs])
    assert objs == []
    moved = "gamma 3.333e-01 relative, 5.000e-01 absolute"
    assert lines == [f"run/s_side.csv: rows base 2 head 2; every row: {moved}; last row: {moved}",
                     "run/summary.json: max moved by up to 3.333e-01 relative, "
                     "5.000e-01 absolute"]
    assert output_sweep.numeric_summary(numeric) == [
        "largest move in s_side.csv (every row) gamma: 3.333e-01 relative, 5.000e-01 absolute",
        "largest move in s_side.csv (last row) gamma: 3.333e-01 relative, 5.000e-01 absolute",
        "largest move in summary.json max: 3.333e-01 relative, 5.000e-01 absolute"]
