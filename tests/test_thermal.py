import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rubymag import constants as CONST
from rubymag.config import parse_config
from rubymag.errors import NonPositiveTemperature
from rubymag.thermal import (boltzmann_populations, polarization,
                             total_interrogated_spins)
from oracle import optical_power_equivalent

TWO_PI = 2.0 * math.pi
DEFAULTS = parse_config({})
D = DEFAULTS["spin"]["d_ghz"]
_M = DEFAULTS["material"]
# total_interrogated_spins's arguments at the default config
MAT = dict(V_cav=_M["v_cav_mm3"], V_cell=_M["v_cell_nm3"],
           alpha_Cr=_M["alpha_cr"], m_Al2O3=_M["m_al2o3_g_per_mol"],
           m_Cr2O3=_M["m_cr2o3_g_per_mol"], N_cell=_M["n_cell"])


def _total(**changes):
    return total_interrogated_spins(**{**MAT, **changes})


def _direct_populations(T):
    # independent evaluation of the Boltzmann weights at the quoted energies
    energies = np.array([D, D, -D, -D])  # (+3/2,-3/2,+1/2,-1/2)
    w = np.exp(-CONST.hbar * energies / (CONST.k_B * T))
    return w / w.sum()


def test_room_temperature_populations():
    p = boltzmann_populations(D, 293.0)
    assert p[0] == pytest.approx(0.25024, abs=5e-6)
    assert p[1] == pytest.approx(0.25024, abs=5e-6)
    assert p[2] == pytest.approx(0.24976, abs=5e-6)
    assert p[3] == pytest.approx(0.24976, abs=5e-6)
    assert polarization(p) == pytest.approx(4.7e-4, abs=1e-5)


def test_infinite_temperature_limit():
    assert np.allclose(boltzmann_populations(D, 1e12), 0.25, atol=1e-9)


def test_cold_oracle_4k():
    assert np.allclose(boltzmann_populations(D, 4.0),
                       _direct_populations(4.0), atol=1e-12)


def test_negative_temperature_rejected():
    with pytest.raises(NonPositiveTemperature):
        boltzmann_populations(D, 0.0)
    with pytest.raises(NonPositiveTemperature):
        boltzmann_populations(D, -5.0)


@given(t=st.floats(1.0, 1e6))
@settings(max_examples=100, deadline=None)
def test_normalization_property(t):
    populations = boltzmann_populations(D, t)
    assert abs(sum(populations) - 1.0) < 1e-12
    assert all(0.0 < p < 1.0 for p in populations)


def test_polarization_monotone_in_temperature():
    temps = np.logspace(0, 6, 40)
    pols = [polarization(boltzmann_populations(D, float(t))) for t in temps]
    assert all(a > b for a, b in zip(pols, pols[1:]))


def test_small_splitting_expansion():
    for t in (100.0, 293.0, 1000.0):
        exact = polarization(boltzmann_populations(D, t))
        approx = CONST.hbar * abs(D) / (2.0 * CONST.k_B * t)
        assert approx == pytest.approx(exact, rel=1e-2)


def test_effective_polarization_equal_populations_zero():
    assert polarization((0.25, 0.25, 0.25, 0.25)) == 0.0


def test_fit_implied_polarization():
    assert 3.5e14 / 8e17 == pytest.approx(4.4e-4, abs=5e-6)


def test_total_spins_default():
    n = _total()
    assert n == pytest.approx(8e17, rel=0.05)
    assert isinstance(n, float)


def test_total_spins_linearity():
    base = _total()
    assert _total(alpha_Cr=0.0) == 0.0
    assert _total(V_cav=MAT["V_cav"] / 2) == pytest.approx(base / 2,
                                                            rel=1e-12)
    assert _total(N_cell=24) == pytest.approx(base * 2, rel=1e-12)


def test_polarized_count_room_temperature():
    """The spin count RunConfig.ensemble derives when the config leaves
    n_spins null: the polarization at 293 K times the total count."""
    populations = boltzmann_populations(D, 293.0)
    n = DEFAULTS.ensemble()[1]
    assert n == pytest.approx(3.5e14, rel=0.15)
    assert n == pytest.approx(polarization(populations) * _total(),
                              rel=1e-12)


def test_polarized_count_scaling():
    doubled = parse_config({"material": {"alpha_cr": 2 * _M["alpha_cr"]}})
    assert doubled.ensemble()[1] == pytest.approx(
        2 * DEFAULTS.ensemble()[1], rel=1e-12)


def test_optical_power_equivalent():
    p = optical_power_equivalent(3.5e14, TWO_PI * 5.6e14, TWO_PI * 120e3, 3.0)
    assert p == pytest.approx(294.0, rel=0.02)
    assert p == pytest.approx(300.0, rel=0.05)
    assert optical_power_equivalent(0.0, TWO_PI * 5.6e14,
                                    TWO_PI * 120e3, 3.0) == 0.0


def test_material_params_validation():
    with pytest.raises(ValueError):
        _total(alpha_Cr=1.5)
    with pytest.raises(ValueError):
        _total(V_cav=-1.0)
    with pytest.raises(ValueError):
        _total(N_cell=0)
