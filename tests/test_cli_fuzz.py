"""Fuzz the command line: whatever the argv, config file or calibration CSV,
main() exits 0, 1 or 2, prints at most one stderr line (an ERROR line when it
fails) and writes only strict JSON and finite CSV."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rubymag.cli import main
from rubymag.config import FLAT_KEYS

# --n-points gets its own values, kept at most 50 so that every run is quick,
# and --output-dir always points into the run's own directory
_KEYS = sorted(set(FLAT_KEYS) - {"n_points", "output_dir"})
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
_CSV = st.builds(
    lambda header, rows: "\n".join([header] + [",".join(r) for r in rows]),
    st.sampled_from(["current_a,field_t", "field_t,current_a", "current_a",
                     "current_a,b_t", "current_a,field_t,extra", ""]),
    st.lists(st.lists(_CELL, max_size=3), max_size=5),
)


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


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(["calibrate", "report", "eigen"]),
       n_points=st.one_of(st.integers(5, 50).map(str),
                          st.integers(5, 50).map(str),
                          st.sampled_from(["-1", "2.5", "true", "NaN", "abc"])),
       tokens=_pairs(),
       config=st.one_of(st.none(), st.none(), _CONFIG),
       csv=st.one_of(st.none(), st.none(), _CSV))
def test_front_door_fuzz(command, n_points, tokens, config, csv):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        out = tmp / "out"
        argv = [command, "--output-dir", str(out), "--n-points", n_points]
        if config is not None:
            (tmp / "cfg.json").write_text(config)
            argv += ["--config", str(tmp / "cfg.json")]
        if csv is not None:
            (tmp / "cal.csv").write_text(csv)
            argv += ["--input", str(tmp / "cal.csv")]
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
        for path in written:
            _check_output(path)
        if code == 0:
            assert [str(p) for p in written] == \
                stdout.getvalue().splitlines(), argv
