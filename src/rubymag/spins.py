"""Cr3+ ground-state spin Hamiltonian: construction, diagonalization, transitions.

The spin is fixed at S = 3/2 and the basis is ordered
m_s = (+3/2, +1/2, -1/2, -3/2).  All energies are angular frequencies in
rad/s and all magnetic fields are in tesla.  Eigenpairs come from
numpy.linalg.eigh as its (energies, states) pair, with the eigenvectors of
degenerate levels fixed to a deterministic basis and phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constants as CONST
from .csvio import render_columns
from .errors import EmptyRange, IndexOutOfRange, NonHermitianInput

_TWO_PI = 2.0 * math.pi

# m_s values in basis order (+3/2, +1/2, -1/2, -3/2)
_MS = np.array([1.5, 0.5, -0.5, -1.5])


@dataclass
class SpinSystem:
    """Zero-field splitting and g-factors of the Cr3+ ground state.

    D is negative for ruby; the zero-field splitting between the two Kramers
    doublets is 2|D|.
    """

    D: float           # rad/s
    g_par: float
    g_perp: float

    def __post_init__(self):
        # written so that NaN, which compares False, fails the checks
        if not (self.g_par > 0 and self.g_perp > 0):
            raise ValueError("g-factors must be positive")


@dataclass
class FieldVector:
    """Bias field in spherical coordinates, theta measured from the c-axis;
    magnitude may be an array of fields at the one orientation."""

    magnitude: float | np.ndarray   # T
    theta: float = 0.0              # rad
    phi: float = 0.0                # rad

    def __post_init__(self):
        if not np.all(np.asarray(self.magnitude) >= 0):
            raise ValueError("field magnitude must be >= 0")
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError("theta must lie in [0, pi]")
        if not 0.0 <= self.phi < _TWO_PI:
            raise ValueError("phi must lie in [0, 2*pi)")

    @property
    def cartesian(self) -> tuple:   # (B_x, B_y, B_z) of magnitude's shape
        b, th, ph = self.magnitude, self.theta, self.phi
        return (b * math.sin(th) * math.cos(ph),
                b * math.sin(th) * math.sin(ph),
                b * math.cos(th))


def spin_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dimensionless spin-3/2 matrices (Sx, Sy, Sz) in the fixed basis order."""
    # ladder elements <m+1|S+|m> = sqrt(S(S+1) - m(m+1))
    sp = np.zeros((4, 4), dtype=complex)
    for i in range(1, 4):
        m = _MS[i]
        sp[i - 1, i] = math.sqrt(1.5 * 2.5 - m * (m + 1))
    sm = sp.conj().T
    sx = (sp + sm) / 2.0
    sy = (sp - sm) / 2.0j
    sz = np.diag(_MS).astype(complex)
    return sx, sy, sz


_SX, _SY, _SZ = spin_matrices()


def build_hamiltonian(sys: SpinSystem, fld: FieldVector) -> np.ndarray:
    """Hermitian Hamiltonian divided by hbar, in rad/s, of shape (..., 4, 4)
    over the shape of fld.magnitude.

    H/hbar = (g_par mu_B / hbar) B_z S_z + (g_perp mu_B / hbar)(B_x S_x + B_y S_y)
             + D [S_z^2 - S(S+1)/3]
    """
    bx, by, bz = (np.asarray(v, dtype=float)[..., None, None]
                  for v in fld.cartesian)
    zeeman = (sys.g_par * CONST.mu_B / CONST.hbar) * bz * _SZ \
        + (sys.g_perp * CONST.mu_B / CONST.hbar) * (bx * _SX + by * _SY)
    zfs = sys.D * (_SZ @ _SZ - (1.5 * 2.5 / 3.0) * np.eye(4))
    h = zeeman + zfs
    # symmetrize so the output is exactly equal to its conjugate transpose
    return (h + np.swapaxes(h, -1, -2).conj()) / 2.0


def _fix_degenerate_subspaces(energies: np.ndarray, states: np.ndarray,
                              scale: float) -> np.ndarray:
    """Deterministic eigenvector choice inside degenerate clusters.

    Within each cluster the basis is rebuilt greedily: project the standard
    basis vectors onto the subspace, pick the largest projection, orthonormalize,
    repeat.  Every vector's phase is fixed so its largest-magnitude component
    (lowest index on ties) is real and positive.
    """
    out = states.copy()
    n = len(energies)
    tol = 1e-9 * max(scale, 1.0)
    i = 0
    while i < n:
        j = i + 1
        while j < n and abs(energies[j] - energies[i]) <= tol:
            j += 1
        block = out[:, i:j]
        if j - i > 1:
            proj = block @ block.conj().T
            basis = []
            for _ in range(j - i):
                cand = proj @ np.eye(n, dtype=complex)
                for b in basis:
                    cand -= np.outer(b, b.conj() @ cand)
                norms = np.linalg.norm(cand, axis=0)
                k = int(np.argmax(np.round(norms / norms.max(), 12)))
                vec = cand[:, k] / norms[k]
                basis.append(vec)
            block = np.column_stack(basis)
        for k in range(block.shape[1]):
            pivot = int(np.argmax(np.round(np.abs(block[:, k]), 12)))
            ph = block[pivot, k]
            if abs(ph) > 0:
                block[:, k] *= np.conj(ph) / abs(ph)
        out[:, i:j] = block
        i = j
    return out


def eigensolve(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a Hermitian matrix, or a stack of them of shape
    (..., m, m), in one pass.

    Returns (energies, states) as numpy.linalg.eigh does: ascending
    eigenenergies (rad/s) of shape (..., m) and orthonormal eigenvectors of
    shape (..., m, m), states[..., :, k] belonging to energies[..., k].

    Raises NonHermitianInput when any ||H - H^dagger|| exceeds 1e-9 ||H||.
    Only the matrices with a degenerate cluster go through
    _fix_degenerate_subspaces; every other one only needs each vector's
    phase fixed, which is done for all of them at once.
    """
    shape = np.shape(h)
    h = np.asarray(h, dtype=complex).reshape(-1, *shape[-2:])
    norm_h = np.linalg.norm(h, axis=(1, 2))
    skew = np.linalg.norm(h - np.swapaxes(h, 1, 2).conj(), axis=(1, 2))
    tol = 1e-9 * np.maximum(norm_h, 1.0)
    if np.any(skew > tol):
        raise NonHermitianInput("matrix is not Hermitian within tolerance")
    energies, raw = np.linalg.eigh(h)
    # the largest-magnitude component (lowest index on ties) of each vector
    pivot = np.argmax(np.round(np.abs(raw), 12), axis=1)
    ph = np.take_along_axis(raw, pivot[:, None, :], axis=1)
    size = np.hypot(ph.real, ph.imag)   # abs() of each complex scalar
    unphase = np.ones_like(ph)
    np.divide(ph.conj(), size, out=unphase, where=size > 0)
    states = raw * unphase
    degenerate = (np.diff(energies, axis=1) <= tol[:, None]).any(axis=1)
    for r in np.flatnonzero(degenerate):
        states[r] = _fix_degenerate_subspaces(energies[r], raw[r], norm_h[r])
    return energies.reshape(shape[:-1]), states.reshape(shape)


def analytic_energies_axial(sys: SpinSystem, b_z: float) -> np.ndarray:
    """Closed-form axial-field eigenenergies (rad/s), ascending.

    E(+-1/2) = -D +- (1/2)(g_par mu_B / hbar) B_z
    E(+-3/2) =  D +- (3/2)(g_par mu_B / hbar) B_z

    The Zeeman term multiplies B_z (not hbar); the diagonal of the full
    Hamiltonian fixes the dimensions unambiguously.
    """
    if b_z < 0:
        raise ValueError("B_z must be >= 0")
    b = sys.g_par * CONST.mu_B * b_z / CONST.hbar
    e = np.array([sys.D + 1.5 * b, -sys.D + 0.5 * b,
                  -sys.D - 0.5 * b, sys.D - 1.5 * b])
    return np.sort(e)


def transition(energies: np.ndarray, states: np.ndarray,
               i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """(frequency, amplitude) of the i<->j transition over an eigensolve
    stack: energies of shape (..., 4), states of shape (..., 4, 4).

    Frequency is |E_j - E_i| in rad/s; the amplitude is the drive matrix
    element |<i|S_x|j>|^2, zero for transitions forbidden at theta = 0.
    Both take the stack's shape, so one solution gives numpy scalars.
    """
    if i == j or not (0 <= i <= 3 and 0 <= j <= 3):
        raise IndexOutOfRange(f"invalid level pair ({i}, {j})")
    freq = np.abs(energies[..., j] - energies[..., i])
    amp = np.abs(np.einsum("...k,kl,...l->...", states[..., :, i].conj(),
                           _SX, states[..., :, j])) ** 2
    return freq, amp


def energy_level_sweep(sys: SpinSystem, theta: float,
                       b_values: np.ndarray) -> np.ndarray:
    """Eigenenergies versus field magnitude at a fixed orientation.

    Returns the energies at the n field magnitudes b_values, shape (n, 4).
    Levels are tracked by adiabatic continuity: each row is matched to the
    previous one through maximal eigenvector overlap, so crossing levels do
    not swap.
    """
    b_values = np.asarray(b_values, dtype=float)
    if b_values.size < 2:
        raise EmptyRange("need at least two field points")
    if np.any(np.diff(b_values) <= 0):
        raise EmptyRange("field points must be strictly increasing")
    energies, states = eigensolve(
        build_hamiltonian(sys, FieldVector(b_values, theta)))
    # |<previous row's states|this row's states>|^2 for every row at once
    overlaps = np.abs(np.swapaxes(states[:-1], 1, 2).conj()
                      @ states[1:]) ** 2
    # perm[a]: the column of the current row that continues level a
    perm = [0, 1, 2, 3]
    perms = [perm]
    for overlap in overlaps.tolist():
        rows = [overlap[c] for c in perm]
        perm = [-1] * 4
        free_a, free_c = [0, 1, 2, 3], [0, 1, 2, 3]
        # greedy assignment, strongest overlaps first, row-major on ties
        for _ in range(4):
            a, c = max(((a, c) for a in free_a for c in free_c),
                       key=lambda ac: rows[ac[0]][ac[1]])
            perm[a] = c
            free_a.remove(a)
            free_c.remove(c)
        perms.append(perm)
    return np.take_along_axis(energies, np.array(perms), axis=1)


def render_energy_sweep_csv(path, b_values: np.ndarray, energies: np.ndarray) -> str:
    """CSV columns B_gauss, E1_Hz..E4_Hz (plain frequencies, not angular)."""
    return render_columns(path, ("B_gauss", "E1_Hz", "E2_Hz", "E3_Hz", "E4_Hz"),
                          np.column_stack([np.multiply(b_values, 1e4),
                                           np.divide(energies, _TWO_PI)]))
