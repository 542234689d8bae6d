import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rubymag.cavity import (MODEL_NAMES, PARAM_NAMES, cooperativity,
                            db_to_voltage_gain, dbm_to_watts, gamma_prime,
                            gamma_prime_jacobian, interaction_term,
                            kappa_th_threshold_power, reflection_coefficient,
                            single_spin_coupling, watts_to_dbm)
from rubymag.config import parse_config
from rubymag import constants as CONST
from rubymag.errors import ZeroCoupling, ZeroLinewidth
from rubymag.fitting import default_bounds
from oracle import photon_number, record, reflection, spin_interaction

TWO_PI = 2.0 * math.pi

DEFAULTS = parse_config({})
# paper fit values: g_eff = 2 pi x 3.5 MHz, with g_s = 1 so that N = g_eff^2
G_EFF = TWO_PI * 3.5e6
MODEL = {**DEFAULTS.model(), "g_s": 1.0, "g_eff": G_EFF}
OMEGA_C = MODEL["omega_c"]
KAPPA_C = MODEL["kappa_c0"] + MODEL["kappa_c1"]
OMEGA_S, OMEGA_D = (DEFAULTS["ensemble"]["omega_s_ghz"],
                    DEFAULTS["drive"]["omega_d_ghz"])


def test_unit_conversions():
    assert dbm_to_watts(0.0) == pytest.approx(1e-3)
    assert dbm_to_watts(30.0) == pytest.approx(1.0)
    assert watts_to_dbm(dbm_to_watts(11.0)) == pytest.approx(11.0)
    assert db_to_voltage_gain(20.0) == pytest.approx(10.0)
    assert db_to_voltage_gain(-6.0) == pytest.approx(0.501187, rel=1e-5)
    # a conversion that fails names the value it failed on
    for watts in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match=f"of {watts!r} W"):
            watts_to_dbm(watts)
    with pytest.raises(OverflowError, match="of 1000000.0 dB"):
        db_to_voltage_gain(1e6)
    with pytest.raises(OverflowError, match=r"^1e\+300 dBm overflows"):
        dbm_to_watts(1e300)


def test_photon_number_direct_arithmetic():
    omega_d, kappa_c = TWO_PI * 11.4e9, TWO_PI * 660e3
    expected = 1e-3 / (CONST.hbar * TWO_PI * 11.4e9 * kappa_c)
    assert photon_number(omega_d, 1e-3, kappa_c) \
        == pytest.approx(expected, rel=1e-12)
    assert photon_number(omega_d, 0.0, kappa_c) == 0.0
    assert photon_number(omega_d, 2e-3, kappa_c) \
        == pytest.approx(2 * photon_number(omega_d, 1e-3, kappa_c))
    with pytest.raises(ZeroLinewidth):
        photon_number(omega_d, 1e-3, 0.0)


def test_spin_interaction_limits():
    assert spin_interaction({**MODEL, "g_eff": 0.0}, OMEGA_S, OMEGA_D,
                            0.0) == 0.0
    on_res = spin_interaction(MODEL, OMEGA_S, OMEGA_D, 0.0)
    assert on_res.imag == pytest.approx(0.0, abs=1e-6)
    assert on_res.real == pytest.approx(2 * G_EFF ** 2 / MODEL["kappa_s"],
                                        rel=1e-12)


def test_spin_interaction_resonant_magnitude_from_fit_values():
    # 2 g_eff^2 / kappa_s = (xi / 2) kappa_c ~ 2 pi x 0.59 MHz for xi = 1.8
    on_res = spin_interaction(MODEL, OMEGA_S, OMEGA_D, 0.0)
    xi = cooperativity(MODEL)
    assert on_res.real == pytest.approx((xi / 2.0) * KAPPA_C, rel=1e-12)
    assert on_res.real == pytest.approx(TWO_PI * 0.59e6, rel=0.05)


def test_spin_interaction_errors():
    bad = {**MODEL, "g_eff": 1.0, "kappa_s": 0.0}
    with pytest.raises(ValueError, match="kappa_s must be positive"):
        spin_interaction(bad, OMEGA_S, OMEGA_D, 0.0)
    no_th = {**MODEL, "g_eff": 1.0, "kappa_th": 0.0}
    with pytest.raises(ValueError, match="kappa_th must be positive when"):
        spin_interaction(no_th, OMEGA_S, OMEGA_D, 1.0)


def test_reflection_critical_coupling_no_spins():
    empty = {**MODEL, "g_eff": 0.0}
    gamma = reflection(empty, OMEGA_S, OMEGA_C, 0.0)
    assert gamma == pytest.approx(0.0, abs=1e-12)


def test_reflection_far_detuned_limit():
    empty = {**MODEL, "g_eff": 0.0}
    assert reflection(empty, OMEGA_S, OMEGA_C + TWO_PI * 1e12, 0.0) \
        == pytest.approx(-1.0, abs=1e-5)


def test_reflection_with_spins_on_resonance():
    power = 1e-6
    gamma = reflection(MODEL, OMEGA_S, OMEGA_C, power)
    # independent complex-arithmetic evaluation, with g_s = 1
    kappa_s, kappa_th = MODEL["kappa_s"], MODEL["kappa_th"]
    n_cav = power / (CONST.hbar * OMEGA_C * KAPPA_C)
    delta = OMEGA_C - OMEGA_S
    sat = (n_cav * kappa_s / (2 * kappa_th)) / (kappa_s / 2 - 1j * delta)
    pi_term = G_EFF ** 2 / (kappa_s / 2 + 1j * delta + sat)
    expected = -1 + MODEL["kappa_c1"] / (KAPPA_C / 2 + pi_term)
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
    params = record(kappa_c0=kc0, kappa_c1=kc1, kappa_s=ks, kappa_th=kth,
                    g_eff=geff, omega_c=TWO_PI * 11.4e9, g_s=1.0)
    gamma = reflection(params, TWO_PI * 11.4e9 + det_s,
                       TWO_PI * 11.4e9 + det_c, dbm_to_watts(p_dbm))
    assert abs(gamma) <= 1.0 + 1e-9


def test_nonidealities_identity_and_sign_flip():
    omega_d, power = OMEGA_C + TWO_PI * 1e5, 1e-5
    gamma = reflection(MODEL, OMEGA_S, omega_d, power)
    assert gamma_prime(OMEGA_S, omega_d, omega_d, power,
                       MODEL) == pytest.approx(gamma, rel=1e-12)
    flipped = {**MODEL, "psi": math.pi}
    assert gamma_prime(OMEGA_S, omega_d, omega_d, power,
                       flipped) == pytest.approx(-gamma, rel=1e-12)


def test_nonidealities_fitted_values_composite():
    power = 1e-5
    ni = {**MODEL, "o_r": -0.008, "o_i": 0.12, "A": 0.003, "psi": 0.14,
          "omega_s_off": TWO_PI * 1e5, "omega_d_off": TWO_PI * 2e5}
    got = gamma_prime(OMEGA_S, OMEGA_C, OMEGA_C, power, ni)
    # independent composition
    inner = reflection(MODEL, OMEGA_S - ni["omega_s_off"],
                       OMEGA_C - ni["omega_d_off"], power)
    expected = (-0.008 + 0.12j) + np.exp(0.14j) * 1.003 * inner
    assert got == pytest.approx(expected, rel=1e-12)


def test_reflection_with_nonidealities_errors():
    """gamma_prime raises the reference's errors at the shifted drive."""
    omega_d_off = TWO_PI * 2e5

    def shifted_gamma(changes, omega_d, power=1e-5):
        return gamma_prime(OMEGA_S, omega_d, omega_d, power,
                           {**MODEL, "omega_d_off": omega_d_off, **changes})

    with pytest.raises(ValueError, match="kappa_s must be positive"):
        shifted_gamma({"g_eff": 1.0, "kappa_s": 0.0}, OMEGA_C)
    no_th = {"g_eff": 1.0, "kappa_th": 0.0}
    with pytest.raises(ValueError, match="kappa_th must be positive when"):
        shifted_gamma(no_th, OMEGA_C)
    with pytest.raises(ZeroLinewidth):
        shifted_gamma({}, omega_d_off)
    # without drive power kappa_th never enters
    assert np.isfinite(shifted_gamma(no_th, OMEGA_C, power=0.0))


@pytest.mark.parametrize("kernel", [gamma_prime, gamma_prime_jacobian])
def test_gamma_kernels_check_every_drive(kernel):
    """Both kernels raise what photon_number and interaction_term raise, in
    their order: kappa_c, then the shifted drive frequency at every point,
    then the spin rates."""
    params = {**MODEL, "omega_d_off": TWO_PI * 2e5}
    ws = OMEGA_S + np.array([-1e6, 1e6])
    good = OMEGA_C + np.array([-1e6, 0.0, 1e6])
    low = params["omega_d_off"] + np.array([0.0, 1e6, 2e6])   # first at 0

    def call(wd, power=1e-5, **zeros):
        return kernel(ws, wd, OMEGA_C, power,
                      {**params, **dict.fromkeys(zeros, 0.0)})

    with pytest.raises(ZeroLinewidth, match="kappa_c"):
        call(low, kappa_c0=0, kappa_c1=0, kappa_s=0, kappa_th=0)
    with pytest.raises(ZeroLinewidth, match="omega_d"):
        call(low, kappa_s=0, kappa_th=0)
    with pytest.raises(ValueError, match="kappa_s must be positive"):
        call(good, kappa_s=0, kappa_th=0)
    with pytest.raises(ValueError, match="kappa_th must be positive when"):
        call(good, kappa_th=0)
    assert np.all(np.isfinite(call(good, power=0.0, kappa_th=0)))


def test_gamma_prime_checks_omega_n_and_every_point():
    """n_cav pinned at a positive omega_n leaves every point's drive
    checked, and omega_n itself must be positive."""
    offsets = np.array([-2e6, 0.0, 2e6])

    def pinned(omega_d, omega_n):
        return gamma_prime(OMEGA_S, omega_d + offsets, omega_d, 1e-5,
                           MODEL, omega_n=omega_n)

    with pytest.raises(ZeroLinewidth, match="omega_d"):
        pinned(1e6, 1e6)
    with pytest.raises(ZeroLinewidth, match="omega_d"):
        pinned(OMEGA_C, 0.0)
    with pytest.raises(ZeroLinewidth, match="omega_d"):
        pinned(OMEGA_C, math.nan)
    assert np.all(np.isfinite(pinned(OMEGA_C, OMEGA_C)))


# (case, changes to the drive frequencies, omega_ref or the record; the
# error and what its message names)
_NON_FINITE = [
    ("omega_d NaN", {"omega_d": OMEGA_C + np.array([-1e6, math.nan, 1e6])},
     ZeroLinewidth, "omega_d"),
    ("omega_d_off NaN", {"omega_d_off": math.nan}, ZeroLinewidth, "omega_d"),
    ("omega_d_off -inf", {"omega_d_off": -math.inf}, ValueError,
     "omega_d_off"),
    ("omega_ref NaN", {"omega_ref": math.nan}, ValueError, "omega_ref"),
    ("o_r inf", {"o_r": math.inf}, ValueError, "o_r"),
    *[(f"{name} NaN", {name: math.nan}, ValueError, name)
      for name in ("o_i", "A", "b", "psi", "tau", "omega_s_off")],
]


@pytest.mark.parametrize("kernel", [gamma_prime, gamma_prime_jacobian])
@pytest.mark.parametrize("changes, error, name",
                         [pytest.param(*case[1:], id=case[0])
                          for case in _NON_FINITE])
def test_gamma_kernels_refuse_nan_drive_and_non_finite_record(
        kernel, changes, error, name):
    """A NaN drive frequency fails the drive check, and an omega_ref or a
    non-ideality that is not finite is a ValueError naming it.  Unchecked,
    each gives a NaN or infinite Gamma', some without a warning."""
    drive = {"omega_d": OMEGA_C + np.array([-1e6, 0.0, 1e6]),
             "omega_ref": OMEGA_C}
    record = {**MODEL, "tau": -1.2e-8, "b": 1e-9}
    for key, value in changes.items():
        (drive if key in drive else record)[key] = value
    with pytest.raises(error, match=name):
        kernel(OMEGA_S + np.array([-1e6, 1e6]), drive["omega_d"],
               drive["omega_ref"], 1e-5, record)


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
    params = dict(zip(MODEL_NAMES, (kc0, kc1, ks, kth, geff, *aux[:8],
                                    omega_c, g_s)))
    got = gamma_prime(ws, wd, carrier + ref, power, params,
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
    params["g_eff"] = 0.0
    empty = gamma_prime(ws, wd, carrier + ref, power, params)
    assert np.array_equal(empty, np.broadcast_to(empty[0], empty.shape))


def test_gamma_prime_gauge_family_without_b_and_tau():
    """With b = tau = 0 the envelope scale trades against kappa_c1 and o.

    Scale (1 + A) e^{i psi} by s, kappa_c1 by 1/s, keep kappa_c0 + kappa_c1,
    and shift o by (s - 1)(1 + A) e^{i psi}: on the default config's 30 x 30
    crossing grid, Gamma' is unchanged to the last bit.  A nonzero tau makes
    the envelope's phase vary with omega_d, which the constant shift of o
    cannot follow, so the family changes Gamma' there.
    """
    ws = OMEGA_S + np.linspace(-TWO_PI * 50e6, TWO_PI * 50e6, 30)
    wd = OMEGA_D + np.linspace(-TWO_PI * 5e6, TWO_PI * 5e6, 30)
    ni = {**DEFAULTS.model(), "psi": 0.1}
    kappa_c0, kappa_c1 = ni["kappa_c0"], ni["kappa_c1"]
    s = 0.923
    shift = (s - 1.0) * (1.0 + ni["A"]) * np.exp(1j * ni["psi"])
    ni_s = {**ni, "kappa_c1": kappa_c1 / s,
            "kappa_c0": kappa_c0 + kappa_c1 - kappa_c1 / s,
            "A": s * (1.0 + ni["A"]) - 1.0, "o_r": ni["o_r"] + shift.real,
            "o_i": ni["o_i"] + shift.imag}

    def gamma(params, tau):
        return gamma_prime(ws, wd, float(np.mean(wd)),
                           DEFAULTS["drive"]["power_dbm"],
                           {**params, "tau": tau})

    assert np.abs(gamma(ni_s, 0.0) - gamma(ni, 0.0)).max() == 0.0
    moved = np.abs(gamma(ni_s, -1.2e-8) - gamma(ni, -1.2e-8))
    assert moved.max() > 1e-3


# the fit's bounds around the paper values, with the modal-volume g_s
FIT_G_S = single_spin_coupling(52.2e-9, TWO_PI * 11.4e9)
FIT_BOUNDS = default_bounds({**MODEL, "g_s": FIT_G_S})


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
        return gamma_prime(ws, wd, ref, power, dict(zip(PARAM_NAMES, p),
                                                    omega_c=omega_c,
                                                    g_s=FIT_G_S))

    jac = gamma_prime_jacobian(ws, wd, ref, power, dict(
        zip(PARAM_NAMES, params), omega_c=omega_c, g_s=FIT_G_S))
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
            # a record's g_eff is >= 0, and Gamma' holds it only as its
            # square: a step below 0 is taken at its magnitude
            p[4] = abs(p[4])
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
    assert cooperativity(MODEL) == pytest.approx(1.8, abs=0.05)
    with pytest.raises(ValueError, match="kappa_s must be positive"):
        cooperativity({**MODEL, "g_eff": 1.0, "kappa_s": 0.0})


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

