"""Every command's output bytes, pinned.

The eight commands run through cli.main on the benchmark's three cli
configs (bench/inputs.cli_inputs(1), (2) and (3)): crossing-fit reads the
crossing.csv that crossing-sim just wrote, and calibrate reads the CSV of
inputs.write_calibration_csv.  Each of the 30 files is compared against its
committed sha256.  A change that alters an output updates its sum here in
the same commit and declares the change.
"""

import contextlib
import hashlib
import importlib.util
import io
from pathlib import Path

from rubymag.cli import _DISPATCH, main

_PINNED = {
    "1/calibrate.json":
        "b25e35d38f003be2e031026f3b5771994fa80a528e0362438dda692b365b931e",
    "1/crossing.csv":
        "686936d6fb0a78beb4353e1f9f89fbc24640ce71210968e9515ba0d8f4231dbc",
    "1/energy_levels.csv":
        "051682b56463f3b2e12fcaf4f7457e6c6c9253fd4504cd040d3d7ea1f93ca2f7",
    "1/eta_table.csv":
        "9f3dbba9668054fa61de0cc9a5497e0426857205560745674868eb6c61ad0a66",
    "1/fit.json":
        "3c3fd4792e3784fbfe8cf413fba8a163473d4b7bd86674626e75f944232f7ef0",
    "1/optimize.json":
        "57be50d29d6fe06fd86199db98b4e577e6b8adf76d1e745ac7519bfb709345bc",
    "1/predicted_noise.csv":
        "d992445bd50775da1d961d10c23c823d69ecb5bbf0c35d0c6b86ee3423b79130",
    "1/report.json":
        "208ce6c70d72b5b54172dae0c198c0fb7ddb0a4b0083dd809642ba20b8614826",
    "1/sensitivity.json":
        "a891d5ba9d8f20f57212a9c8ed62272394c5977d1bf09bb1a62411769f3b2c02",
    "1/sweep.csv":
        "9fc29fa79773e8d497717bcb33b32ca91be0d5f9127bf8712a695c36fa72bc5e",
    "2/calibrate.json":
        "4c31d42712791a4906d327078a0c6b5c0e13d0abd73019701163906b1c411eef",
    "2/crossing.csv":
        "24e8f213c3baf2bcb2224852828df79e7ec5b509cde058c1b656646095792705",
    "2/energy_levels.csv":
        "36b7dac70fbc8fa5b073c8355198003dabd0fb106c9333e0908bb3b41f9011de",
    "2/eta_table.csv":
        "79a6361b0815578b1798d30ef280fda66f16405531a3dcd82eab90ea81777fa7",
    "2/fit.json":
        "cdfb93cb32469440f5b82c0f02f465017b6b0889c3c16a694208a5d68e7be202",
    "2/optimize.json":
        "59d1cd6282502e8de96e32393ced2eb7040cb39bade9403e45e4a4f6408f4f18",
    "2/predicted_noise.csv":
        "b4a8baad3cd8e25349fdfcbea97bc9388384c7698821e2bbcd5d679b2274cc08",
    "2/report.json":
        "c2ee2a144f8f0c1f206fef871f5f029ac02e6a0433b2ef39e7d1a470a8437f96",
    "2/sensitivity.json":
        "2b39601c815c044ca050d69ef629da87def01de6e5a4d767c6893e9b4c6d8231",
    "2/sweep.csv":
        "426d72dfc9faf53682bfa8093ce3cdf4a3a0d3abd3b5319c94bc1af9becf7a36",
    "3/calibrate.json":
        "0f8180e36275c0db029d725206362475f56ad50b50c458348edb57fb70e67ad7",
    "3/crossing.csv":
        "9ac545c6009fb31fac29a0e56c88340cc3772e4093272f32b0d98c3eca67d52c",
    "3/energy_levels.csv":
        "bd164c728457f1b757b13d3863906a0c189a75b7e0d0756ce4a80cd141dcae95",
    "3/eta_table.csv":
        "ae9b6b1a129d0d8d3b480f5e87d92ee844e5e0646f38e437e5cab77fb2c9e0c8",
    "3/fit.json":
        "150f8bdd8c8c5b9988f11ad047bf0b9ae7385c84153f61b95ae94e220e52b163",
    "3/optimize.json":
        "725b00105c4d69e57fe52806cb42c551ec0af13896ee3b79f55351b43aca6a68",
    "3/predicted_noise.csv":
        "78940ab87475db5fc7dec21092002dfd278997ce5acbf97c8854c101a57b62c2",
    "3/report.json":
        "f7bb09143e72b7f046b93cf67f4461978a953946446e4f6f0c8452755e08502f",
    "3/sensitivity.json":
        "6dbf366b41d6d5c5ee1803d937d6c66cffd9d5bdcbf0ed444a9138fde27cb55e",
    "3/sweep.csv":
        "f65c34d60c8f0246773fd73632f75ca8fd2b8f7c47de7b3e1aecd1bccf935074",
}


def _bench_inputs():
    path = Path(__file__).parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def test_every_command_output_is_pinned(tmp_path):
    inputs = _bench_inputs()
    got = {}
    for seed in (1, 2, 3):
        run, out = tmp_path / str(seed), tmp_path / str(seed) / "out"
        run.mkdir()
        spec = inputs.cli_inputs(seed)
        inputs.write_json(run / "config.json", spec["config"])
        inputs.write_calibration_csv(run / "calibration.csv",
                                     spec["currents"], spec["fields"])
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
    changed = [name for name in _PINNED if got[name] != _PINNED[name]]
    assert changed == [], f"output bytes changed: {changed}"
