import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rubymag.cavity import (CavityParams, DriveParams, EnsembleParams,
                            NonIdealityParams, cooperativity,
                            db_to_voltage_gain, dbm_to_watts, gamma_prime,
                            gamma_prime_jacobian, gamma_prime_params,
                            interaction_term,
                            kappa_th_threshold_power, photon_number,
                            reflection, reflection_coefficient,
                            single_spin_coupling, spin_interaction,
                            watts_to_dbm)
from rubymag.config import parse_config
from rubymag import constants as CONST
from rubymag.errors import (ZeroCoupling, ZeroKappaTh, ZeroLinewidth,
                            ZeroSpinLinewidth)
from rubymag.fitting import PARAM_NAMES, default_bounds

TWO_PI = 2.0 * math.pi

DEFAULTS = parse_config({})
CAV = DEFAULTS.cavity()
# paper fit values: g_eff = 2 pi x 3.5 MHz carried as g_s * sqrt(N)
G_EFF = TWO_PI * 3.5e6
ENS = replace(DEFAULTS.ensemble(), g_s=1.0, N=G_EFF ** 2)
DRIVE = DEFAULTS.drive()


def test_unit_conversions():
    assert dbm_to_watts(0.0) == pytest.approx(1e-3)
    assert dbm_to_watts(30.0) == pytest.approx(1.0)
    assert watts_to_dbm(dbm_to_watts(11.0)) == pytest.approx(11.0)
    assert db_to_voltage_gain(20.0) == pytest.approx(10.0)
    assert db_to_voltage_gain(-6.0) == pytest.approx(0.501187, rel=1e-5)


def test_photon_number_direct_arithmetic():
    drive = DriveParams(omega_d=TWO_PI * 11.4e9, power=1e-3)
    kappa_c = TWO_PI * 660e3
    expected = 1e-3 / (CONST.hbar * TWO_PI * 11.4e9 * kappa_c)
    assert photon_number(drive, kappa_c) == pytest.approx(expected, rel=1e-12)
    assert photon_number(replace(drive, power=0.0), kappa_c) == 0.0
    assert photon_number(replace(drive, power=2e-3), kappa_c) \
        == pytest.approx(2 * photon_number(drive, kappa_c))
    with pytest.raises(ZeroLinewidth):
        photon_number(drive, 0.0)


def test_spin_interaction_limits():
    assert spin_interaction(replace(ENS, N=0.0), DRIVE, 0.0) == 0.0
    on_res = spin_interaction(ENS, DRIVE, 0.0)
    assert on_res.imag == pytest.approx(0.0, abs=1e-6)
    assert on_res.real == pytest.approx(2 * G_EFF ** 2 / ENS.kappa_s, rel=1e-12)


def test_spin_interaction_resonant_magnitude_from_fit_values():
    # 2 g_eff^2 / kappa_s = (xi / 2) kappa_c ~ 2 pi x 0.59 MHz for xi = 1.8
    on_res = spin_interaction(ENS, DRIVE, 0.0)
    xi = cooperativity(ENS, CAV)
    assert on_res.real == pytest.approx((xi / 2.0) * CAV.kappa_c, rel=1e-12)
    assert on_res.real == pytest.approx(TWO_PI * 0.59e6, rel=0.05)


def test_spin_interaction_errors():
    bad = replace(ENS, N=1.0, kappa_s=0.0)
    with pytest.raises(ZeroSpinLinewidth):
        spin_interaction(bad, DRIVE, 0.0)
    no_th = replace(ENS, N=1.0, kappa_th=0.0)
    with pytest.raises(ZeroKappaTh):
        spin_interaction(no_th, DRIVE, 1.0)


def test_reflection_critical_coupling_no_spins():
    empty = replace(ENS, g_s=0.0, N=0.0)
    gamma = reflection(CAV, empty, DriveParams(omega_d=CAV.omega_c, power=0.0))
    assert gamma == pytest.approx(0.0, abs=1e-12)


def test_reflection_far_detuned_limit():
    empty = replace(ENS, g_s=0.0, N=0.0)
    drive = DriveParams(omega_d=CAV.omega_c + TWO_PI * 1e12, power=0.0)
    assert reflection(CAV, empty, drive) == pytest.approx(-1.0, abs=1e-5)


def test_reflection_with_spins_on_resonance():
    drive = DriveParams(omega_d=CAV.omega_c, power=1e-6)
    gamma = reflection(CAV, ENS, drive)
    # independent complex-arithmetic evaluation
    n_cav = drive.power / (CONST.hbar * drive.omega_d * CAV.kappa_c)
    delta = drive.omega_d - ENS.omega_s
    sat = (ENS.g_s ** 2 * n_cav * ENS.kappa_s / (2 * ENS.kappa_th)) \
        / (ENS.kappa_s / 2 - 1j * delta)
    pi_term = ENS.g_s ** 2 * ENS.N / (ENS.kappa_s / 2 + 1j * delta + sat)
    expected = -1 + CAV.kappa_c1 / (CAV.kappa_c / 2 + pi_term)
    assert gamma == pytest.approx(expected, rel=1e-12)
    # spins reduce the dip depth: |Gamma| lifts off the critical-coupling zero
    assert 0.0 < abs(gamma) < 1.0
    assert abs(gamma.imag) < 1e-9


@given(
    kc0=st.floats(1e3, 1e7), kc1=st.floats(1e3, 1e7),
    ks=st.floats(1e5, 1e9), kth=st.floats(1e3, 1e7),
    geff=st.floats(0.0, 1e8), det_c=st.floats(-1e8, 1e8),
    det_s=st.floats(-1e8, 1e8), p_dbm=st.floats(-60.0, 20.0))
@settings(max_examples=200, deadline=None)
def test_passivity_property(kc0, kc1, ks, kth, geff, det_c, det_s, p_dbm):
    cav = CavityParams(omega_c=TWO_PI * 11.4e9, kappa_c0=kc0, kappa_c1=kc1)
    ens = EnsembleParams(g_s=1.0, N=geff ** 2, kappa_s=ks, kappa_th=kth,
                         omega_s=TWO_PI * 11.4e9 + det_s)
    drive = DriveParams(omega_d=TWO_PI * 11.4e9 + det_c,
                        power=dbm_to_watts(p_dbm))
    assert abs(reflection(cav, ens, drive)) <= 1.0 + 1e-9


def test_nonidealities_identity_and_sign_flip():
    drive = DriveParams(omega_d=CAV.omega_c + TWO_PI * 1e5, power=1e-5)
    gamma = reflection(CAV, ENS, drive)
    identity = NonIdealityParams()
    assert gamma_prime(ENS.omega_s, drive.omega_d, drive.omega_d, CAV.omega_c,
                       ENS.g_s, drive.power,
                       gamma_prime_params(CAV, ENS, identity)) \
        == pytest.approx(gamma, rel=1e-12)
    flipped = NonIdealityParams(psi=math.pi)
    assert gamma_prime(ENS.omega_s, drive.omega_d, drive.omega_d, CAV.omega_c,
                       ENS.g_s, drive.power,
                       gamma_prime_params(CAV, ENS, flipped)) \
        == pytest.approx(-gamma, rel=1e-12)


def test_nonidealities_fitted_values_composite():
    drive = DriveParams(omega_d=CAV.omega_c, power=1e-5)
    ni = NonIdealityParams(o_r=-0.008, o_i=0.12, A=0.003, psi=0.14,
                           omega_s_off=TWO_PI * 1e5, omega_d_off=TWO_PI * 2e5)
    got = gamma_prime(ENS.omega_s, drive.omega_d, drive.omega_d, CAV.omega_c,
                      ENS.g_s, drive.power, gamma_prime_params(CAV, ENS, ni))
    # independent composition
    shifted_ens = replace(ENS, omega_s=ENS.omega_s - ni.omega_s_off)
    inner = reflection(CAV, shifted_ens,
                       DriveParams(omega_d=drive.omega_d - ni.omega_d_off,
                                   power=drive.power))
    expected = (-0.008 + 0.12j) + np.exp(0.14j) * 1.003 * inner
    assert got == pytest.approx(expected, rel=1e-12)


def test_reflection_with_nonidealities_errors():
    """gamma_prime raises the reference's errors at the shifted drive."""
    ni = NonIdealityParams(omega_d_off=TWO_PI * 2e5)

    def shifted_gamma(ens, omega_d, power=1e-5):
        return gamma_prime(ens.omega_s, omega_d, omega_d, CAV.omega_c,
                           ens.g_s, power, gamma_prime_params(CAV, ens, ni))

    with pytest.raises(ZeroSpinLinewidth):
        shifted_gamma(replace(ENS, N=1.0, kappa_s=0.0),
                      CAV.omega_c)
    no_th = replace(ENS, N=1.0, kappa_th=0.0)
    with pytest.raises(ZeroKappaTh):
        shifted_gamma(no_th, CAV.omega_c)
    with pytest.raises(ZeroLinewidth):
        shifted_gamma(ENS, ni.omega_d_off)
    # without drive power kappa_th never enters
    assert np.isfinite(shifted_gamma(no_th, CAV.omega_c, power=0.0))


@pytest.mark.parametrize("kernel", [gamma_prime, gamma_prime_jacobian])
def test_gamma_kernels_check_every_drive(kernel):
    """Both kernels raise what photon_number and interaction_term raise, in
    their order: kappa_c, then the shifted drive frequency at every point,
    then the spin rates."""
    ni = NonIdealityParams(omega_d_off=TWO_PI * 2e5)
    ws = ENS.omega_s + np.array([-1e6, 1e6])
    good = CAV.omega_c + np.array([-1e6, 0.0, 1e6])
    low = ni.omega_d_off + np.array([0.0, 1e6, 2e6])   # the first point at 0
    params = gamma_prime_params(CAV, ENS, ni)

    def call(wd, power=1e-5, **zeros):
        p = [0.0 if name in zeros else v
             for name, v in zip(PARAM_NAMES, params)]
        return kernel(ws, wd, CAV.omega_c, CAV.omega_c, ENS.g_s, power, p)

    with pytest.raises(ZeroLinewidth, match="kappa_c"):
        call(low, kappa_c0=0, kappa_c1=0, kappa_s=0, kappa_th=0)
    with pytest.raises(ZeroLinewidth, match="omega_d"):
        call(low, kappa_s=0, kappa_th=0)
    with pytest.raises(ZeroSpinLinewidth):
        call(good, kappa_s=0, kappa_th=0)
    with pytest.raises(ZeroKappaTh):
        call(good, kappa_th=0)
    assert np.all(np.isfinite(call(good, power=0.0, kappa_th=0)))


def test_gamma_prime_checks_omega_n_and_every_point():
    """n_cav pinned at a positive omega_n leaves every point's drive
    checked, and omega_n itself must be positive."""
    params = gamma_prime_params(CAV, ENS, NonIdealityParams())
    offsets = np.array([-2e6, 0.0, 2e6])

    def pinned(omega_d, omega_n):
        return gamma_prime(ENS.omega_s, omega_d + offsets, omega_d,
                           CAV.omega_c, ENS.g_s, 1e-5, params,
                           omega_n=omega_n)

    with pytest.raises(ZeroLinewidth, match="omega_d"):
        pinned(1e6, 1e6)
    with pytest.raises(ZeroLinewidth, match="omega_d"):
        pinned(CAV.omega_c, 0.0)
    assert np.all(np.isfinite(pinned(CAV.omega_c, CAV.omega_c)))


@given(
    kc0=st.floats(1e3, 1e7), kc1=st.floats(1e3, 1e7),
    ks=st.floats(1e6, 1e9), kth=st.floats(1e3, 1e7),
    g_s=st.floats(0.1, 10.0), geff=st.floats(0.0, 6e7),
    det_c=st.floats(-3e8, 3e8), det_s=st.floats(-3e8, 3e8),
    p_dbm=st.floats(-60.0, 20.0), pin=st.booleans(),
    aux=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5),
                  st.floats(-0.5, 0.5), st.floats(-1e-8, 1e-8),
                  st.floats(-1.5, 1.5), st.floats(-1e-7, 1e-7),
                  st.floats(-1e8, 1e8), st.floats(-1e8, 1e8),
                  st.floats(-1e7, 1e7)))
@settings(max_examples=200, deadline=None)
def test_gamma_prime_matches_reference(kc0, kc1, ks, kth, g_s, geff, det_c,
                                       det_s, p_dbm, pin, aux):
    """The kernel equals reflection_coefficient(interaction_term(...)) in
    the non-ideality envelope, over an (omega_s, omega_d) grid, with n_cav
    taken at each shifted drive frequency or pinned at the carrier."""
    o_r, o_i, A, b, psi, tau, ws_off, wd_off, ref = aux
    omega_c = TWO_PI * 11.4e9
    carrier = omega_c + det_c
    ws = omega_c + det_s + np.linspace(-2e7, 2e7, 3)
    wd = carrier + np.linspace(-5e6, 5e6, 4)
    power = dbm_to_watts(p_dbm)
    params = [kc0, kc1, ks, kth, geff, *aux[:8]]
    got = gamma_prime(ws, wd, carrier + ref, omega_c, g_s, power, params,
                      omega_n=carrier if pin else None)
    assert got.shape == (ws.size, wd.size)
    for j, w in enumerate(wd - wd_off):
        n_cav = power / (CONST.hbar * (carrier if pin else w) * (kc0 + kc1))
        pi_term = interaction_term(g_s, (geff / g_s) ** 2, ks, kth,
                                   ws - ws_off, w, n_cav)
        gamma = reflection_coefficient(kc0, kc1, omega_c, w, pi_term)
        d = wd[j] - (carrier + ref)
        envelope = np.exp(1j * (psi + d * tau)) * (1.0 + A + b * d)
        want = o_r + 1j * o_i + envelope * gamma
        assert np.allclose(got[:, j], want, rtol=0.0, atol=1e-12)
    # without coupling Pi is exactly 0: no row depends on omega_s
    params[4] = 0.0
    empty = gamma_prime(ws, wd, carrier + ref, omega_c, g_s, power, params)
    assert np.array_equal(empty, np.broadcast_to(empty[0], empty.shape))


def test_gamma_prime_gauge_family_without_b_and_tau():
    """With b = tau = 0 the envelope scale trades against kappa_c1 and o.

    Scale (1 + A) e^{i psi} by s, kappa_c1 by 1/s, keep kappa_c0 + kappa_c1,
    and shift o by (s - 1)(1 + A) e^{i psi}: on the default config's 30 x 30
    crossing grid, Gamma' is unchanged to the last bit.  A nonzero tau makes
    the envelope's phase vary with omega_d, which the constant shift of o
    cannot follow, so the family changes Gamma' there.
    """
    cav, ens, drive = DEFAULTS.cavity(), DEFAULTS.ensemble(), DEFAULTS.drive()
    ws = ens.omega_s + np.linspace(-TWO_PI * 50e6, TWO_PI * 50e6, 30)
    wd = drive.omega_d + np.linspace(-TWO_PI * 5e6, TWO_PI * 5e6, 30)
    ni = NonIdealityParams(psi=0.1)
    s = 0.923
    shift = (s - 1.0) * (1.0 + ni.A) * np.exp(1j * ni.psi)
    cav_s = replace(cav, kappa_c1=cav.kappa_c1 / s,
                    kappa_c0=cav.kappa_c0 + cav.kappa_c1 - cav.kappa_c1 / s)
    ni_s = replace(ni, A=s * (1.0 + ni.A) - 1.0, o_r=ni.o_r + shift.real,
                   o_i=ni.o_i + shift.imag)

    def gamma(cav_, ni_, tau):
        params = gamma_prime_params(cav_, ens, replace(ni_, tau=tau))
        return gamma_prime(ws, wd, float(np.mean(wd)), cav_.omega_c, ens.g_s,
                           drive.power, params)

    assert np.abs(gamma(cav_s, ni_s, 0.0) - gamma(cav, ni, 0.0)).max() == 0.0
    moved = np.abs(gamma(cav_s, ni_s, -1.2e-8) - gamma(cav, ni, -1.2e-8))
    assert moved.max() > 1e-3


# the fit's bounds around the paper values, with the modal-volume g_s
FIT_G_S = single_spin_coupling(52.2e-9, TWO_PI * 11.4e9)
FIT_BOUNDS = default_bounds(
    CAV, replace(ENS, g_s=FIT_G_S, N=(G_EFF / FIT_G_S) ** 2))


@given(frac=st.lists(st.floats(0.0, 1.0), min_size=13, max_size=13),
       uncoupled=st.booleans(),
       p_dbm=st.one_of(st.none(), st.floats(-40.0, 20.0)))
@example(frac=[0.5] * 11 + [0.4, 0.6], uncoupled=False, p_dbm=11.0)
@settings(max_examples=200, deadline=None)
def test_gamma_prime_jacobian_matches_central_differences(frac, uncoupled,
                                                          p_dbm):
    """Every column equals a five-point central difference of gamma_prime,
    over the fit's default bounds with nonzero offsets, with and without
    coupling and drive (p_dbm None is undriven)."""
    params = []
    for f, name in zip(frac, PARAM_NAMES):
        lo, hi = FIT_BOUNDS[name]
        params.append(lo * (hi / lo) ** f if name in PARAM_NAMES[:5]
                      else lo + f * (hi - lo))
    assume(params[11] != 0.0 and params[12] != 0.0)
    if uncoupled:
        params[4] = 0.0
    power = 0.0 if p_dbm is None else dbm_to_watts(p_dbm)
    omega_c = TWO_PI * 11.4e9
    ws = np.linspace(TWO_PI * 11.35e9, TWO_PI * 11.45e9, 7)
    wd = np.linspace(TWO_PI * 11.395e9, TWO_PI * 11.405e9, 9)
    ref = float(np.mean(wd))

    def model(p):
        return gamma_prime(ws, wd, ref, omega_c, FIT_G_S, power, p)

    jac = gamma_prime_jacobian(ws, wd, ref, omega_c, FIT_G_S, power, params)
    assert jac.shape == (13, ws.size, wd.size)
    # the scale over which Gamma' varies in each parameter: rates in their
    # own size, b and tau in 1 / max|omega_d - omega_ref|, the offsets in
    # kappa_s and kappa_c
    inv_d = 1.0 / np.abs(wd - ref).max()
    scale = params[:4] + [params[4] or FIT_BOUNDS["g_eff"][1], 1.0, 1.0, 1.0,
                          inv_d, 1.0, inv_d, params[2], params[0] + params[1]]
    for k, name in enumerate(PARAM_NAMES):
        # a step that moves Gamma' by at most 3e-4
        h = 3e-4 / max(np.abs(jac[k]).max(), 1.0 / scale[k])

        def at(t):
            p = list(params)
            p[k] += t * h
            return model(p)

        want = (8.0 * (at(1) - at(-1)) - (at(2) - at(-2))) / (12.0 * h)
        assert np.abs(jac[k] - want).max() \
            <= 1e-6 * np.abs(want).max() + 1e-13 / h, name


def test_single_spin_coupling_scalings():
    g = single_spin_coupling(52.2e-9, TWO_PI * 11.4e9)
    assert single_spin_coupling(4 * 52.2e-9, TWO_PI * 11.4e9) \
        == pytest.approx(g / 2.0, rel=1e-12)
    assert g * math.sqrt(3.5e14) == pytest.approx(G_EFF, rel=0.10)


def test_cooperativity_fit_values():
    assert cooperativity(ENS, CAV) == pytest.approx(1.8, abs=0.05)
    with pytest.raises(ZeroSpinLinewidth):
        cooperativity(replace(ENS, N=1.0, kappa_s=0.0), CAV)


def test_threshold_power_paper_value():
    g_s = single_spin_coupling(52.2e-9, TWO_PI * 11.4e9)
    p = kappa_th_threshold_power(T1=2.6e-6, T2=5.5e-9, g_s=g_s,
                                 omega_d=TWO_PI * 11.4e9,
                                 kappa_c=TWO_PI * 660e3)
    assert watts_to_dbm(p) == pytest.approx(2.0, abs=0.5)
    with pytest.raises(ZeroCoupling):
        kappa_th_threshold_power(2.6e-6, 5.5e-9, 0.0, TWO_PI * 11.4e9,
                                 TWO_PI * 660e3)


def test_threshold_power_scaling():
    g_s = single_spin_coupling(52.2e-9, TWO_PI * 11.4e9)
    p1 = kappa_th_threshold_power(2.6e-6, 5.5e-9, g_s, TWO_PI * 11.4e9,
                                  TWO_PI * 660e3)
    p2 = kappa_th_threshold_power(2.6e-6, 5.5e-9, 2 * g_s, TWO_PI * 11.4e9,
                                  TWO_PI * 660e3)
    assert p2 == pytest.approx(p1 / 4.0, rel=1e-12)

