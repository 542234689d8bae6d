"""Every command's output bytes, pinned.

The eight commands run through cli.main on the benchmark's three cli
configs (bench/inputs.cli_inputs(1), (2) and (3)): crossing-fit reads the
crossing.csv that crossing-sim just wrote, and calibrate reads the CSV of
inputs.write_calibration_csv.  Each of the 30 files is compared against its
committed sha256.  A change that alters an output updates its sum here in
the same commit and declares the change; the failure message prints each
changed file's new sum as a _PINNED entry.  One more run pins
noise-predict on an amplitude spectrum that it has to resample.
"""

import contextlib
import hashlib
import importlib.util
import io
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rubymag
from rubymag.cli import _DISPATCH, main

_PINNED = {
    "1/calibrate.json":
        "bcdfe67dad62d00085fffb32758d2b38c0533a5d2035adde78fe10345bf85dc9",
    "1/crossing.csv":
        "686936d6fb0a78beb4353e1f9f89fbc24640ce71210968e9515ba0d8f4231dbc",
    "1/energy_levels.csv":
        "051682b56463f3b2e12fcaf4f7457e6c6c9253fd4504cd040d3d7ea1f93ca2f7",
    "1/eta_table.csv":
        "f3f81fbca3d35ab3db1dee5f36a6f8df900ca9d5ab7efeb8b274341d2febc6c5",
    "1/fit.json":
        "3c3fd4792e3784fbfe8cf413fba8a163473d4b7bd86674626e75f944232f7ef0",
    "1/optimize.json":
        "d1b95ce35fe5691cce66656e28563a717dadb5106c02e415f3b5f0c664d8d249",
    "1/predicted_noise.csv":
        "d992445bd50775da1d961d10c23c823d69ecb5bbf0c35d0c6b86ee3423b79130",
    "1/report.json":
        "2d9a294a260fd2adde5edc4dcb2173cd80e7ade6deb20c581d4dcbdd1e46a082",
    "1/sensitivity.json":
        "3d27d13f7b11a6755d096ae8761245186c051d465b8b436750a6299160387c4f",
    "1/sweep.csv":
        "9fc29fa79773e8d497717bcb33b32ca91be0d5f9127bf8712a695c36fa72bc5e",
    "2/calibrate.json":
        "ba9c304536bc0e99f89a7925999be734044194e826f08b35232d71bd20ac9197",
    "2/crossing.csv":
        "24e8f213c3baf2bcb2224852828df79e7ec5b509cde058c1b656646095792705",
    "2/energy_levels.csv":
        "36b7dac70fbc8fa5b073c8355198003dabd0fb106c9333e0908bb3b41f9011de",
    "2/eta_table.csv":
        "ab851d8f685e9932e60d1e2bf1d77fe07c585885be24e30e4f66b3b5d8eeddef",
    "2/fit.json":
        "cdfb93cb32469440f5b82c0f02f465017b6b0889c3c16a694208a5d68e7be202",
    "2/optimize.json":
        "d146f7e60140cfaeafb569230ca03ba8624d16e28d1a180d480cfc98bfddea2d",
    "2/predicted_noise.csv":
        "b4a8baad3cd8e25349fdfcbea97bc9388384c7698821e2bbcd5d679b2274cc08",
    "2/report.json":
        "99d27bda5d18f5c55a5521f7ac059b8305c0acec1b23f54286e0f17735bb1a26",
    "2/sensitivity.json":
        "83f79d1119170cb1dd91dd94cf8fde59d2f4710d63fb97b20624624813ea8214",
    "2/sweep.csv":
        "426d72dfc9faf53682bfa8093ce3cdf4a3a0d3abd3b5319c94bc1af9becf7a36",
    "3/calibrate.json":
        "6ed0b251bc3693dfe615a794c9c6588683799ca043dfc9371aa421cfe3f99bd1",
    "3/crossing.csv":
        "9ac545c6009fb31fac29a0e56c88340cc3772e4093272f32b0d98c3eca67d52c",
    "3/energy_levels.csv":
        "bd164c728457f1b757b13d3863906a0c189a75b7e0d0756ce4a80cd141dcae95",
    "3/eta_table.csv":
        "ff1c495c738f11e2c4d78afd3f63f7466fc8e04e97247db6eb79ad776f488ce6",
    "3/fit.json":
        "902081c8ef5dce1130a7d16c5b136f9ce6d783e8038797e70b0e9825bce32426",
    "3/optimize.json":
        "a0eb415600b4e54694f478d9687dba750718409e3c417218320b75c1d70b6c8f",
    "3/predicted_noise.csv":
        "78940ab87475db5fc7dec21092002dfd278997ce5acbf97c8854c101a57b62c2",
    "3/report.json":
        "4e1ef0ec7bba8267c40addbbb8f94ad52ccfc96d49bee0f91299db8dadce0e7f",
    "3/sensitivity.json":
        "cc726dc8f1282055670cda2cb0dc3a191076f8aae1bb59fb7b43bbee957c332a",
    "3/sweep.csv":
        "f65c34d60c8f0246773fd73632f75ca8fd2b8f7c47de7b3e1aecd1bccf935074",
}


def _bench_inputs():
    path = Path(__file__).parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def _write_inputs(tmp_path) -> list:
    """The config.json and calibration.csv of each seed, in a directory
    per seed: the directories."""
    inputs = _bench_inputs()
    runs = []
    for seed in (1, 2, 3):
        run = tmp_path / str(seed)
        run.mkdir()
        spec = inputs.cli_inputs(seed)
        inputs.write_json(run / "config.json", spec["config"])
        inputs.write_calibration_csv(run / "calibration.csv",
                                     spec["currents"], spec["fields"])
        runs.append(run)
    return runs


def test_every_command_output_is_pinned(tmp_path):
    got = {}
    for seed, run in enumerate(_write_inputs(tmp_path), start=1):
        out = run / "out"
        extra = {"crossing-fit": ["--input", str(out / "crossing.csv")],
                 "calibrate": ["--input", str(run / "calibration.csv")]}
        for command in _DISPATCH:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "--config", str(run / "config.json"),
                             "--output-dir", str(out),
                             *extra.get(command, [])])
            assert code == 0, (seed, command)
        for path in sorted(out.iterdir()):
            got[f"{seed}/{path.name}"] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    assert sorted(got) == sorted(_PINNED)
    changed = "".join(f'    "{name}":\n        "{got[name]}",\n'
                      for name in _PINNED if got[name] != _PINNED[name])
    assert not changed, f"output bytes changed; their new sums:\n{changed}"


# an amplitude spectrum on offsets other than the phase spectrum's 100 Hz to
# 1 MHz, so that noise-predict resamples it, holding its 150 Hz value flat
# below 150 Hz; the bundled spectra share their offsets, so none of the 30
# pinned files takes this path
_RESAMPLED_AMPLITUDE = ("offset_hz,value,unit\n150.0,-150.0,dBc_per_Hz\n"
                        "3000.0,-152.0,dBc_per_Hz\n2e6,-160.0,dBc_per_Hz\n")
_RESAMPLED_PINNED = \
    "a7f62e469f3a0072d9b81ed32ced4acc9ae04c2a359b2c9796f4cb68ae5a81b7"


def test_resampled_noise_prediction_is_pinned(tmp_path):
    (tmp_path / "amp.csv").write_text(_RESAMPLED_AMPLITUDE)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["noise-predict", "--output-dir", str(tmp_path / "out"),
                     "--amplitude-noise-csv", str(tmp_path / "amp.csv")])
    assert code == 0
    got = hashlib.sha256(
        (tmp_path / "out" / "predicted_noise.csv").read_bytes()).hexdigest()
    assert got == _RESAMPLED_PINNED, f"output bytes changed; new sum {got}"


# OpenBLAS kernels that OPENBLAS_CORETYPE can pick, with the CPU flags each
# needs to run
_KERNELS = {"Haswell": ("avx2", "fma"), "Zen": ("avx2", "fma"),
            "SkylakeX": ("avx512f", "avx512bw", "avx512cd", "avx512dq",
                         "avx512vl")}


def _kernel_skip_reason(kernel: str) -> str | None:
    """Why OPENBLAS_CORETYPE=kernel cannot act on this host, or None."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return f"OpenBLAS kernels are x86; this host is {platform.machine()}"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "this numpy does not report the BLAS it was built on"
    if "openblas" not in blas.get("name", "").lower() \
            or "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return "numpy is not built on an OpenBLAS with DYNAMIC_ARCH"
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text(encoding="utf-8")
    except OSError:
        return "no /proc/cpuinfo to tell which kernels this CPU runs"
    flags = set(next((line.split(":", 1)[1].split() for line
                      in cpuinfo.splitlines() if line.startswith("flags")),
                     []))
    missing = [flag for flag in _KERNELS[kernel] if flag not in flags]
    if missing:
        return f"this CPU lacks {', '.join(missing)} for the {kernel} kernel"
    return None


@pytest.mark.parametrize("kernel", sorted(_KERNELS))
def test_calibrate_output_holds_under_each_openblas_kernel(tmp_path, kernel):
    """calibrate's three pinned files, made in a fresh interpreter that
    OpenBLAS runs on the given CPU kernel.  linear_calibration sums with
    math.fsum, so no BLAS kernel enters its bits."""
    reason = _kernel_skip_reason(kernel)
    if reason:
        pytest.skip(reason)
    runs = _write_inputs(tmp_path)
    code = ("import sys\n"
            "from rubymag.cli import main\n"
            "for run in sys.argv[1:]:\n"
            "    if main(['calibrate', '--config', run + '/config.json',\n"
            "             '--output-dir', run + '/out',\n"
            "             '--input', run + '/calibration.csv']):\n"
            "        sys.exit(1)\n")
    path = [str(Path(rubymag.__file__).parents[1]),
            *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel,
               PYTHONPATH=os.pathsep.join(path))
    subprocess.run([sys.executable, "-c", code, *map(str, runs)], env=env,
                   check=True, capture_output=True, timeout=60)
    for seed, run in enumerate(runs, start=1):
        got = hashlib.sha256(
            (run / "out" / "calibrate.json").read_bytes()).hexdigest()
        assert got == _PINNED[f"{seed}/calibrate.json"], (kernel, seed)
