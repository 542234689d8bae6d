"""Fuzz the command line: whatever the command, argv, config file or input
CSV (a calibration table, a crossing grid, a noise spectrum), main() exits
0, 1 or 2, prints at most one stderr line (an ERROR line when it fails) and
writes only strict JSON and finite CSV, and nothing at all when it fails."""

import contextlib
import io
import itertools
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rubymag.cli import _DISPATCH, main
from rubymag.config import FLAT_KEYS

# --n-points, --n-omega-s and --n-omega-d get their own values, kept small
# so that every run is quick (a sweep of at most 50 points, a grid of at
# most 6 x 6), and --output-dir always points into the run's own directory
_SIZES = ("n_points", "n_omega_s", "n_omega_d")
_KEYS = sorted(set(FLAT_KEYS) - set(_SIZES) - {"output_dir"})
_FLAGS = ["--" + key.replace("_", "-") for key in _KEYS]

_MANGLE = st.sampled_from([
    lambda f: f,
    lambda f: f.replace("-", "_").replace("__", "--", 1),   # --d_ghz
    lambda f: f.rsplit("-", 1)[0],                           # --power
    lambda f: f[1:],                                         # -power-dbm
    lambda f: f[2:],                                         # power-dbm
    lambda f: "-" + f,                                       # ---power-dbm
    str.upper,                                               # --POWER-DBM
    lambda f: f + "x",                                       # --power-dbmx
])
_FLAG = st.builds(lambda f, m: m(f), st.sampled_from(_FLAGS), _MANGLE)

_NUMBER = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(-1e3, 1e3).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(1e-12, 1e12).map(lambda x: f"{-x:.6e}"),      # -1.200000e-08
)
# None: the flag is left without a value
_VALUE = st.one_of(
    _NUMBER,
    st.sampled_from(["NaN", "Infinity", "-Infinity", "true", "false", "null",
                     "", "[1, 2]", "{}", '"7"', "-", "--", "=", "1e999"]),
    st.text(max_size=8),
    st.none(),
)


@st.composite
def _pairs(draw):
    """Exact flags with numbers, then flags and values of any spelling."""
    tokens = []
    for flag, value in (
            draw(st.lists(st.tuples(st.sampled_from(_FLAGS), _NUMBER),
                          max_size=3))
            + draw(st.lists(st.tuples(_FLAG, _VALUE), max_size=2))):
        if value is None:
            tokens.append(flag)
        elif draw(st.booleans()):
            tokens.append(f"{flag}={value}")
        else:
            tokens += [flag, value]
    return tokens


_JSON_SCALAR = st.one_of(st.none(), st.booleans(),
                         st.integers(-10**20, 10**20),
                         st.floats(allow_nan=True, allow_infinity=True),
                         st.text(max_size=6))
_JSON = st.recursive(_JSON_SCALAR,
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                     max_leaves=6)


def _block(name):
    keys = [k for k in _KEYS if FLAT_KEYS[k] == name] or ["x"]
    return st.one_of(
        _JSON,   # mostly not an object
        st.dictionaries(st.sampled_from(keys + ["bogus_mhz", "two\nlines"]),
                        st.one_of(_JSON_SCALAR, _NUMBER.map(float)),
                        max_size=3))


_BLOCK_NAMES = sorted(set(FLAT_KEYS.values()) | {"resonator"})
_CONFIG = st.one_of(
    st.sampled_from(["", "{bad", "[]", "null", "5", '"ab"', "[" * 3000]),
    st.dictionaries(st.sampled_from(_BLOCK_NAMES),
                    st.sampled_from(_BLOCK_NAMES).flatmap(_block),
                    max_size=3).map(json.dumps),
)

_CELL = st.one_of(_NUMBER, st.sampled_from(["nan", "inf", "abc", "", "1,2"]))


def _text(header: str, rows: list) -> str:
    return "\n".join([header] + [",".join(row) for row in rows]) + "\n"


_CSV = st.builds(
    _text,
    st.sampled_from(["current_a,field_t", "field_t,current_a", "current_a",
                     "current_a,b_t", "current_a,field_t,extra", ""]),
    st.lists(st.lists(_CELL, max_size=3), max_size=5),
)


def _spoiled(draw, rows: list) -> list:
    """rows as they are, or with one row dropped or repeated or one cell
    replaced by any cell."""
    how = draw(st.sampled_from(["keep", "keep", "drop", "repeat", "cell"]))
    if how == "keep" or not rows:
        return rows
    k = draw(st.integers(0, len(rows) - 1))
    if how == "drop":
        return rows[:k] + rows[k + 1:]
    if how == "repeat":
        return rows + [rows[k]]
    row = list(rows[k])
    row[draw(st.integers(0, len(row) - 1))] = draw(_CELL)
    return rows[:k] + [row] + rows[k + 1:]


@st.composite
def _grid_csv(draw):
    """A crossing grid of at most 6 x 6 points, its re and im cells cycling
    through a few drawn values, in either row order, perhaps spoiled or
    under another header."""
    hz = st.floats(-1e3, 2e10)
    ws = draw(st.lists(hz, min_size=2, max_size=6, unique=True))
    wd = draw(st.lists(hz, min_size=2, max_size=6, unique=True))
    values = draw(st.lists(st.one_of(st.floats(-2.0, 2.0).map(repr), _NUMBER),
                           min_size=1, max_size=5))
    rows = [[repr(s), repr(d), values[k % len(values)],
             values[(k + 1) % len(values)]]
            for k, (s, d) in enumerate(itertools.product(ws, wd))]
    if draw(st.booleans()):
        rows.reverse()
    header = draw(st.sampled_from(["omega_s_hz,omega_d_hz,re,im"] * 3 + [
        "omega_d_hz,omega_s_hz,re,im", "omega_s_hz,omega_d_hz,re", ""]))
    return _text(header, _spoiled(draw, rows))


@st.composite
def _spectrum_csv(draw):
    """A noise spectrum of at most 6 increasing offsets under one unit tag,
    perhaps spoiled (a repeated offset, a mixed or unknown tag) or under
    another header."""
    offsets = sorted(draw(st.lists(st.floats(1e-3, 1e8), min_size=1,
                                   max_size=6, unique=True)))
    unit = draw(st.sampled_from(["dBc_per_Hz", "V2_per_Hz"]))
    value = st.one_of(st.floats(-200.0, 0.0).map(repr), _NUMBER)
    rows = [[repr(f), draw(value), unit] for f in offsets]
    header = draw(st.sampled_from(["offset_hz,value,unit"] * 3 + [
        "unit,value,offset_hz", "offset_hz,value", "offset_hz,dbc,unit",
        ""]))
    return _text(header, _spoiled(draw, rows))


# the input files each command reads: flag -> the file's text
_INPUTS = {
    "calibrate": {"--input": _CSV},
    "crossing-fit": {"--input": _grid_csv()},
    "noise-predict": {"--phase-noise-csv": _spectrum_csv(),
                      "--amplitude-noise-csv": _spectrum_csv()},
}


def _check_output(path: Path):
    if path.suffix == ".json":
        def reject(token):
            raise AssertionError(f"{path.name}: non-strict JSON {token}")
        json.loads(path.read_text(), parse_constant=reject)
    else:
        assert path.suffix == ".csv", path
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            for name, cell in zip(header, line.split(",")):
                if name != "unit":
                    assert math.isfinite(float(cell)), (path.name, line)


def _size(low: int, high: int):
    return st.one_of(st.integers(low, high).map(str),
                     st.integers(low, high).map(str),
                     st.sampled_from(["-1", "1", "2.5", "true", "NaN", "abc"]))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(list(_DISPATCH)),
       sizes=st.tuples(_size(5, 50), _size(2, 6), _size(2, 6)),
       tokens=_pairs(),
       config=st.one_of(st.none(), st.none(), _CONFIG),
       data=st.data())
def test_front_door_fuzz(command, sizes, tokens, config, data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        out = tmp / "out"
        argv = [command, "--output-dir", str(out)]
        for key, text in zip(_SIZES, sizes):
            argv += ["--" + key.replace("_", "-"), text]
        if config is not None:
            (tmp / "cfg.json").write_text(config)
            argv += ["--config", str(tmp / "cfg.json")]
        for flag, strategy in _INPUTS.get(command, {}).items():
            text = data.draw(st.one_of(st.none(), strategy, strategy),
                             label=flag)
            if text is not None:
                path = tmp / (flag[2:] + ".csv")
                path.write_text(text)
                argv += [flag, str(path)]
        argv += tokens
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main(argv)
        err = stderr.getvalue().splitlines()
        assert code in (0, 1, 2), (argv, code)
        if code:
            assert len(err) == 1 and err[0].startswith("ERROR "), (argv, err)
        else:
            assert err == [], (argv, err)
        written = sorted(out.rglob("*")) if out.is_dir() else []
        if code:
            assert written == [], (argv, written)
        for path in written:
            _check_output(path)
        printed = stdout.getvalue().splitlines()
        if code == 0:
            # sensitivity and optimize write two files and print one path
            assert printed and set(printed) <= set(map(str, written)), argv
