import csv
import io
import math

import numpy as np
import pytest

from rubymag.calibration import read_calibration_csv
from rubymag.cli import main
from rubymag.csvio import read_columns, render_columns
from rubymag.errors import NonFiniteOutput, ParseError
from rubymag.fitting import read_grid_csv
from rubymag.iqnoise import read_spectrum_csv


def test_write_columns_round_trip_and_non_finite(tmp_path):
    rng = np.random.default_rng(7)
    table = np.column_stack([rng.standard_normal(50) * 1e-9,
                             rng.standard_normal(50) * 1e12])
    table[0] = [math.pi, -0.0]
    path = tmp_path / "table.csv"
    path.write_text(render_columns(path, ("a_v", "b_hz"), table,
                                   {"unit": "V2_per_Hz"}))
    back, rows = read_columns(path, ("a_v", "b_hz"), ("unit",))
    assert np.array_equal(back, table)
    assert {row["unit"] for row in rows} == {"V2_per_Hz"}
    assert path.read_bytes().startswith(b"a_v,b_hz,unit\n")
    for bad in (math.nan, math.inf, -math.inf):
        broken = table.copy()
        broken[3, 1] = bad
        path = tmp_path / f"broken_{bad}.csv"
        with pytest.raises(NonFiniteOutput, match="line 5") as err:
            render_columns(path, ("a_v", "b_hz"), broken)
        assert str(err.value).startswith(f"{path}: ")
        assert not path.exists()


_GRID = "omega_s_hz,omega_d_hz,re,im\n"
_CALIBRATION = "current_a,field_t\n"
_SPECTRUM = "offset_hz,value,unit\n"


@pytest.mark.parametrize("reader, text, message", [
    (read_grid_csv, _GRID + "1,1,0,0\n1,2,0,0\n", "at least 2"),
    (read_grid_csv, _GRID + "1,1,0,0\n1,2,0,0\n2,1,0,0\n2,2,0,0\n"
     "2,2,0,0\n", "duplicate"),
    (read_grid_csv, _GRID + "1,1,0,0\n1,2,0,0\n2,1,0,0\n", "missing"),
    (read_calibration_csv, _CALIBRATION + "1,2\n", "two calibration rows"),
    (read_calibration_csv, _CALIBRATION + "1,2\n1,3\n", "identical"),
    (read_spectrum_csv, _SPECTRUM + "100,-120,dBc_per_Hz\n"
     "300,1e-12,V2_per_Hz\n", "one unit tag"),
    (read_spectrum_csv, _SPECTRUM + "100,-120,dB\n", "unknown unit"),
])
def test_reader_errors_quote_the_path(tmp_path, reader, text, message):
    """Each reader's own ParseError names the file as read_columns does,
    in quotes, so that an empty path would show as ''."""
    path = tmp_path / "in.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match=message) as err:
        reader(path)
    assert str(err.value).startswith(f"{str(path)!r}: ")


def test_command_csvs_read_back_exactly(tmp_path):
    """Every CSV a command writes reads back through read_columns, and
    rendering the table read back reproduces the file byte for byte."""
    for command in ("eigen", "crossing-sim", "noise-predict", "sensitivity",
                    "optimize"):
        assert main([command, "--output-dir", str(tmp_path / "out")]) == 0
    paths = sorted((tmp_path / "out").glob("*.csv"))
    assert [p.name for p in paths] == [
        "crossing.csv", "energy_levels.csv", "eta_table.csv",
        "predicted_noise.csv", "sweep.csv"]
    for path in paths:
        header = path.read_text().splitlines()[0].split(",")
        numeric = tuple(c for c in header if c != "unit")
        text = tuple(c for c in header if c == "unit")
        table, rows = read_columns(path, numeric, text)
        assert table.shape[0] > 1
        rendered = render_columns(path, numeric, table,
                                  {c: rows[0][c] for c in text})
        assert rendered.encode() == path.read_bytes(), path.name


@pytest.mark.parametrize("text", [None, {"unit": "dBc_per_Hz"},
                                  {"unit": ""}, {"a,b": 'say "x"', "c": ""}])
@pytest.mark.parametrize("n_rows", [0, 1, 30])
def test_write_columns_matches_csv_writer(tmp_path, text, n_rows):
    """The joined lines are what csv.writer writes, quoting included."""
    rng = np.random.default_rng(n_rows)
    table = rng.standard_normal((n_rows, 3)) * 10.0 ** rng.integers(
        -300, 300, (n_rows, 3))
    rendered = render_columns(tmp_path / "t.csv", ("x", "y,z", "w"), table,
                              text)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    tail = list((text or {}).values())
    writer.writerow(["x", "y,z", "w", *(text or {})])
    writer.writerows([repr(v) for v in row] + tail for row in table.tolist())
    assert rendered == buf.getvalue()
