"""Independent reference values for checking rubymag's outputs.

Nothing here imports rubymag: every formula is written out again from the
model's published definitions (README "Conventions", the module docstrings)
with numpy, so a change inside the package that alters a number is caught by
comparison rather than shared by both sides.

Parameters arrive as the benchmark's own flat dictionary of SI values
(``inputs.si_params``): angular frequencies in rad/s, fields in tesla, powers
in watts.
"""

from __future__ import annotations

import csv
import math
import zlib

import numpy as np

TWO_PI = 2.0 * math.pi
HBAR = 1.054571817e-34
MU_B = 9.2740100783e-24
K_B = 1.380649e-23
MU_0 = 1.25663706212e-6
GAMMA_E = 1.76085963023e11
R_OHM = 50.0
F_PROC = math.sqrt(2.0)


def cli_seed(master_seed: int, label: str) -> int:
    """The per-command integer seed the CLI documents: (master seed, CRC32)."""
    ss = np.random.SeedSequence([master_seed, zlib.crc32(label.encode())])
    return int(ss.generate_state(1)[0])


# --- spin levels -------------------------------------------------------------

def _spin_matrices():
    m = np.array([1.5, 0.5, -0.5, -1.5])
    sp = np.zeros((4, 4), dtype=complex)
    for i in range(1, 4):
        sp[i - 1, i] = math.sqrt(3.75 - m[i] * (m[i] + 1.0))
    sx = (sp + sp.conj().T) / 2.0
    sy = (sp - sp.conj().T) / 2.0j
    return sx, sy, np.diag(m).astype(complex)


_SX, _SY, _SZ = _spin_matrices()


def hamiltonian(p: dict, b: float, theta: float, phi: float = 0.0):
    bx = b * math.sin(theta) * math.cos(phi)
    by = b * math.sin(theta) * math.sin(phi)
    bz = b * math.cos(theta)
    return (p["g_par"] * MU_B / HBAR * bz * _SZ
            + p["g_perp"] * MU_B / HBAR * (bx * _SX + by * _SY)
            + p["D"] * (_SZ @ _SZ - 1.25 * np.eye(4)))


def sorted_levels(p: dict, b_values, theta: float) -> np.ndarray:
    """(n, 4) ascending eigenvalues in rad/s."""
    return np.array([np.linalg.eigvalsh(hamiltonian(p, float(b), theta))
                     for b in b_values])


def omega_s_axial(p: dict, b_values) -> np.ndarray:
    """+3/2 <-> +1/2 transition at theta = 0: 2|D| - g_par mu_B B / hbar."""
    return 2.0 * abs(p["D"]) - p["g_par"] * MU_B / HBAR * np.asarray(b_values)


# --- thermal ensemble and coupling -------------------------------------------

def populations(p: dict) -> np.ndarray:
    """(+3/2, -3/2, +1/2, -1/2) at zero field: levels at +-hbar D."""
    e = np.array([p["D"], p["D"], -p["D"], -p["D"]])
    x = -HBAR * e / (K_B * p["T"])
    w = np.exp(x - x.max())
    return w / w.sum()


def n_total(p: dict) -> float:
    return (p["V_cav"] / p["V_cell"]) * p["alpha"] \
        * (p["m_al2o3"] / p["m_cr2o3"]) * p["n_cell"]


def ensemble(p: dict) -> tuple[float, float]:
    """(g_s, N): explicit values when given, else the derived ones."""
    g_s = p["g_s"] if p["g_s"] is not None else \
        GAMMA_E / 2.0 * math.sqrt(HBAR * p["omega_c"] * MU_0 / p["V_cav"])
    if p["N"] is not None:
        return g_s, p["N"]
    pop = populations(p)
    return g_s, abs(pop[0] - pop[2]) * n_total(p)


# --- reflection ----------------------------------------------------------------

def gamma(p: dict, omega_s, omega_d, power: float, n_cav_omega=None):
    """Spin-loaded Gamma; n_cav uses ``n_cav_omega`` (default: omega_d)."""
    g_s, n = ensemble(p)
    kc = p["kappa_c0"] + p["kappa_c1"]
    w_n = omega_d if n_cav_omega is None else n_cav_omega
    n_cav = power / (HBAR * w_n * kc)
    delta = omega_d - omega_s
    sat = (g_s ** 2 * n_cav * p["kappa_s"] / (2.0 * p["kappa_th"])) \
        / (p["kappa_s"] / 2.0 - 1j * delta)
    pi = g_s ** 2 * n / (p["kappa_s"] / 2.0 + 1j * delta + sat)
    return -1.0 + p["kappa_c1"] / (kc / 2.0 + 1j * (omega_d - p["omega_c"]) + pi)


def gamma_prime(p: dict, omega_s, omega_d, power: float, omega_d_mean: float):
    """Gamma wrapped in the non-idealities (offsets, gain, phase, delay)."""
    g = gamma(p, omega_s - p["omega_s_off"], omega_d - p["omega_d_off"], power)
    d = omega_d - omega_d_mean
    env = np.exp(1j * (p["psi"] + d * p["tau"])) * (1.0 + p["A"] + p["b"] * d)
    return p["o_r"] + 1j * p["o_i"] + env * g


def crossing_grid(p: dict, master_seed: int):
    """(omega_s values, omega_d values, noisy Gamma' grid) of crossing-sim."""
    ws = np.linspace(p["omega_s"] - p["omega_s_span"] / 2.0,
                     p["omega_s"] + p["omega_s_span"] / 2.0, p["n_omega_s"])
    wd = np.linspace(p["omega_d"] - p["omega_d_span"] / 2.0,
                     p["omega_d"] + p["omega_d_span"] / 2.0, p["n_omega_d"])
    values = gamma_prime(p, ws[:, None], wd[None, :], p["power"], wd.mean())
    if p["noise_sigma"] > 0:
        rng = np.random.default_rng(cli_seed(master_seed, "crossing-sim"))
        values = values + p["noise_sigma"] * (
            rng.standard_normal(values.shape)
            + 1j * rng.standard_normal(values.shape))
    return ws, wd, values


# --- bias sweeps and sensitivity ----------------------------------------------

def bias_trace(p: dict, b_values, power: float) -> np.ndarray:
    """Complex demodulated voltage versus axial bias field."""
    omega_d = p["omega_d"] - p["omega_d_off"]
    g = gamma(p, omega_s_axial(p, b_values) - p["omega_s_off"], omega_d, power)
    env = np.exp(1j * p["psi"]) * (1.0 + p["A"])
    scale = 10.0 ** (p["chain_gain_db"] / 20.0) * math.sqrt(power * R_OHM)
    return scale * (p["o_r"] + 1j * p["o_i"] + env * g)


def local_slopes(x, y, window: int = 5) -> np.ndarray:
    """Linear coefficient of a quadratic least-squares fit around each point."""
    n = len(x)
    out = np.empty(n)
    for i in range(n):
        lo = max(0, min(i - window // 2, n - window))
        out[i] = np.polyfit(x[lo:lo + window] - x[i], y[lo:lo + window], 2)[1]
    return out


def bias_grid(p: dict, n_points: int, span: float) -> np.ndarray:
    return np.linspace(p["bias_b"] - span / 2.0, p["bias_b"] + span / 2.0,
                       n_points)


def m_max(p: dict) -> float:
    b = bias_grid(p, p["n_points"], p["b_span"])
    return float(np.max(np.abs(local_slopes(b, bias_trace(p, b, p["power"]).imag))))


def thermal_limit(p: dict, m: float) -> float:
    gain = 10.0 ** (p["chain_gain_db"] / 20.0)
    return gain * math.sqrt(K_B * p["T"] * R_OHM) / (F_PROC * m)


def phase_budget(p: dict) -> tuple[float, float]:
    """(e_p, required source phase noise in dBc/Hz)."""
    e_p = math.sqrt(p["e_n"] ** 2 - p["e_th"] ** 2)
    return e_p, p["phi_measured"] + 20.0 * math.log10(p["e_th"] / e_p) \
        + p["ell_db"]


def eta_table(p: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(bias values T, powers dBm, eta[bias, power]) of ``optimize``."""
    b_values = bias_grid(p, 9, p["b_span"])
    p_ref_dbm = 10.0 * math.log10(p["power"] / 1e-3)
    p_dbm = np.linspace(p_ref_dbm - 6.0, p_ref_dbm + 6.0, 9)
    eta = np.empty((9, 9))
    half = p["b_span"] / 8.0
    for j, dbm in enumerate(p_dbm):
        power = 10.0 ** (dbm / 10.0) * 1e-3
        e_n = p["e_n"] * math.sqrt(power / p["power"])
        for i, b0 in enumerate(b_values):
            grid = np.linspace(b0 - half, b0 + half, 21)
            slope = local_slopes(grid, bias_trace(p, grid, power).imag)[10]
            eta[i, j] = e_n / abs(slope)
    return b_values, p_dbm, eta


# --- noise propagation ----------------------------------------------------------

def read_spectrum(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return (np.array([float(r["offset_hz"]) for r in rows]),
            np.array([float(r["value"]) for r in rows]))


def predicted_noise(p: dict, phase_csv, amp_csv) -> tuple[np.ndarray, np.ndarray]:
    """(offsets Hz, output noise V^2/Hz) for dBc/Hz SSB source spectra."""
    f_phase, db_phase = read_spectrum(phase_csv)
    f_amp, db_amp = read_spectrum(amp_csv)
    pos = f_phase * TWO_PI
    offsets = np.concatenate([-pos[::-1], [0.0], pos])
    g = gamma(p, p["omega_s"], p["omega_d"] + offsets, p["power"],
              n_cav_omega=p["omega_d"])
    rev = g[::-1]
    g_p = (g.real + rev.real) / 2.0 + 1j * (g.imag - rev.imag) / 2.0
    g_s = (g.real - rev.real) / 2.0 + 1j * (g.imag + rev.imag) / 2.0
    mid = offsets.size // 2

    def two_sided(f, db):
        db_at = np.interp(np.log10(f_phase), np.log10(f), db)
        return np.sqrt(2.0 * 10.0 ** (db_at / 10.0))

    a, ph = two_sided(f_amp, db_amp), two_sided(f_phase, db_phase)
    total = np.abs(ph * g_p[mid + 1:]) ** 2 + np.abs(ph * g_p[mid]) ** 2 \
        + np.abs(a * g_s[mid + 1:]) ** 2 + p["p0"]
    return f_phase, total


# --- calibration ------------------------------------------------------------------

def solenoid_field(p: dict) -> float:
    r2 = p["coil_radius"] ** 2
    return p["n_turns"] * MU_0 * p["current"] * r2 \
        / (2.0 * (p["coil_distance"] ** 2 + r2) ** 1.5)


def ols(x, y) -> tuple[float, float, float]:
    """(slope, intercept, r squared) of an ordinary least-squares line."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    xm, ym = x.mean(), y.mean()
    sxx = np.sum((x - xm) ** 2)
    sxy = np.sum((x - xm) * (y - ym))
    syy = np.sum((y - ym) ** 2)
    slope = sxy / sxx
    return slope, ym - slope * xm, sxy ** 2 / (sxx * syy)
