import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rubymag import constants as CONST
from rubymag.config import parse_config
from rubymag.errors import NonPositiveTemperature
from rubymag.thermal import (boltzmann_populations, optical_power_equivalent,
                             polarization, polarized_spin_count,
                             total_interrogated_spins)

TWO_PI = 2.0 * math.pi
DEFAULTS = parse_config({})
SYS = DEFAULTS.spin_system()
MAT = DEFAULTS.material()


def _direct_populations(T):
    # independent evaluation of the Boltzmann weights at the quoted energies
    energies = np.array([SYS.D, SYS.D, -SYS.D, -SYS.D])  # (+3/2,-3/2,+1/2,-1/2)
    w = np.exp(-CONST.hbar * energies / (CONST.k_B * T))
    return w / w.sum()


def test_room_temperature_populations():
    p = boltzmann_populations(SYS, 293.0)
    assert p[0] == pytest.approx(0.25024, abs=5e-6)
    assert p[1] == pytest.approx(0.25024, abs=5e-6)
    assert p[2] == pytest.approx(0.24976, abs=5e-6)
    assert p[3] == pytest.approx(0.24976, abs=5e-6)
    assert polarization(p) == pytest.approx(4.7e-4, abs=1e-5)


def test_infinite_temperature_limit():
    assert np.allclose(boltzmann_populations(SYS, 1e12), 0.25, atol=1e-9)


def test_cold_oracle_4k():
    assert np.allclose(boltzmann_populations(SYS, 4.0),
                       _direct_populations(4.0), atol=1e-12)


def test_negative_temperature_rejected():
    with pytest.raises(NonPositiveTemperature):
        boltzmann_populations(SYS, 0.0)
    with pytest.raises(NonPositiveTemperature):
        boltzmann_populations(SYS, -5.0)


@given(t=st.floats(1.0, 1e6))
@settings(max_examples=100, deadline=None)
def test_normalization_property(t):
    populations = boltzmann_populations(SYS, t)
    assert abs(sum(populations) - 1.0) < 1e-12
    assert all(0.0 < p < 1.0 for p in populations)


def test_polarization_monotone_in_temperature():
    temps = np.logspace(0, 6, 40)
    pols = [polarization(boltzmann_populations(SYS, float(t))) for t in temps]
    assert all(a > b for a, b in zip(pols, pols[1:]))


def test_small_splitting_expansion():
    for t in (100.0, 293.0, 1000.0):
        exact = polarization(boltzmann_populations(SYS, t))
        approx = CONST.hbar * abs(SYS.D) / (2.0 * CONST.k_B * t)
        assert approx == pytest.approx(exact, rel=1e-2)


def test_effective_polarization_equal_populations_zero():
    assert polarization((0.25, 0.25, 0.25, 0.25)) == 0.0


def test_fit_implied_polarization():
    assert 3.5e14 / 8e17 == pytest.approx(4.4e-4, abs=5e-6)


def test_total_spins_default():
    n = total_interrogated_spins(MAT)
    assert n == pytest.approx(8e17, rel=0.05)
    assert isinstance(n, float)


def test_total_spins_linearity():
    base = total_interrogated_spins(MAT)
    assert total_interrogated_spins(replace(MAT, alpha_Cr=0.0)) == 0.0
    assert total_interrogated_spins(replace(MAT, V_cav=MAT.V_cav / 2)) \
        == pytest.approx(base / 2, rel=1e-12)
    assert total_interrogated_spins(replace(MAT, N_cell=24)) \
        == pytest.approx(base * 2, rel=1e-12)


def test_polarized_count_room_temperature():
    populations = boltzmann_populations(SYS, 293.0)
    n = polarized_spin_count(MAT, populations)
    assert n == pytest.approx(3.5e14, rel=0.15)
    assert n == pytest.approx(polarization(populations)
                              * total_interrogated_spins(MAT), rel=1e-12)


def test_polarized_count_scaling():
    populations = boltzmann_populations(SYS, 293.0)
    doubled = replace(MAT, alpha_Cr=2 * MAT.alpha_Cr)
    assert polarized_spin_count(doubled, populations) \
        == pytest.approx(2 * polarized_spin_count(MAT, populations),
                         rel=1e-12)


def test_optical_power_equivalent():
    p = optical_power_equivalent(3.5e14, TWO_PI * 5.6e14, TWO_PI * 120e3, 3.0)
    assert p == pytest.approx(294.0, rel=0.02)
    assert p == pytest.approx(300.0, rel=0.05)
    assert optical_power_equivalent(0.0, TWO_PI * 5.6e14,
                                    TWO_PI * 120e3, 3.0) == 0.0


def test_material_params_validation():
    with pytest.raises(ValueError):
        replace(MAT, alpha_Cr=1.5)
    with pytest.raises(ValueError):
        replace(MAT, V_cav=-1.0)
    with pytest.raises(ValueError):
        replace(MAT, N_cell=0)
