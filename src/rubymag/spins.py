"""Cr3+ ground-state spin Hamiltonian: construction, diagonalization, transitions.

The spin is fixed at S = 3/2 and the basis is ordered
m_s = (+3/2, +1/2, -1/2, -3/2).  All energies are angular frequencies in
rad/s and all magnetic fields are in tesla.  Eigenpairs come from
numpy.linalg.eigh as its (energies, states) pair, with a deterministic basis
inside degenerate levels.
"""

from __future__ import annotations

import math

import numpy as np

from . import constants as CONST
from .csvio import render_columns

# m_s values in basis order (+3/2, +1/2, -1/2, -3/2)
_MS = np.array([1.5, 0.5, -0.5, -1.5])


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


_SX, _, _SZ = spin_matrices()


def check_g_factors(*g_factors: float) -> None:
    """Raise ValueError unless every g-factor is positive; written so that
    NaN, which compares False, fails the check."""
    if not all(g > 0 for g in g_factors):
        raise ValueError("g-factors must be positive")


def build_hamiltonian(D: float, g_par: float, g_perp: float,
                      b: float | np.ndarray, theta: float) -> np.ndarray:
    """Hermitian Hamiltonian divided by hbar, in rad/s, of shape (..., 4, 4)
    over the shape of the field magnitude b (T), at the angle theta (rad)
    from the c-axis.  D (rad/s) is negative for ruby; the zero-field
    splitting between the two Kramers doublets is 2|D|.

    H/hbar = (g_par mu_B / hbar) b cos(theta) S_z
             + (g_perp mu_B / hbar) b sin(theta) S_x + D [S_z^2 - S(S+1)/3]

    The field lies in the x-z plane: the g-tensor is axial, so an azimuth
    would move no energy.  Exactly Hermitian: real coefficients times
    Hermitian spin matrices.
    """
    check_g_factors(g_par, g_perp)
    b = np.asarray(b, dtype=float)
    if not np.all(b >= 0):
        raise ValueError("field magnitude must be >= 0")
    if not 0.0 <= theta <= math.pi:
        raise ValueError("theta must lie in [0, pi]")
    b = b[..., None, None]
    # b sin(theta) S_x is formed before its coefficient multiplies it: the
    # pinned outputs of tests/test_outputs.py hold this rounding
    zeeman = (g_par * CONST.mu_B / CONST.hbar) * (b * math.cos(theta)) * _SZ \
        + (g_perp * CONST.mu_B / CONST.hbar) * ((b * math.sin(theta)) * _SX)
    zfs = D * (_SZ @ _SZ - (1.5 * 2.5 / 3.0) * np.eye(4))
    return zeeman + zfs


def _fix_degenerate_subspaces(energies: np.ndarray, states: np.ndarray,
                              scale: float) -> np.ndarray:
    """Deterministic eigenvector basis inside degenerate clusters.

    Within each cluster the basis is rebuilt greedily: project the standard
    basis vectors onto the subspace, pick the largest projection, orthonormalize,
    repeat.  Vectors outside clusters are returned as given.
    """
    out = states.copy()
    n = len(energies)
    tol = 1e-9 * max(scale, 1.0)
    i = 0
    while i < n:
        j = i + 1
        while j < n and abs(energies[j] - energies[i]) <= tol:
            j += 1
        if j - i > 1:
            block = out[:, i:j]
            proj = block @ block.conj().T
            basis = []
            for _ in range(j - i):
                cand = proj.copy()
                for b in basis:
                    cand -= np.outer(b, b.conj() @ cand)
                norms = np.linalg.norm(cand, axis=0)
                k = int(np.argmax(np.round(norms / norms.max(), 12)))
                basis.append(cand[:, k] / norms[k])
            out[:, i:j] = np.column_stack(basis)
        i = j
    return out


def eigensolve(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a Hermitian matrix, or a stack of them of shape
    (..., m, m), in one pass.

    Returns (energies, states) as numpy.linalg.eigh does: ascending
    eigenenergies (rad/s) of shape (..., m) and orthonormal eigenvectors of
    shape (..., m, m), states[..., :, k] belonging to energies[..., k].

    Raises ValueError when any ||H - H^dagger|| exceeds 1e-9 ||H||.
    Only the matrices with a degenerate cluster go through
    _fix_degenerate_subspaces.  No vector's phase is fixed: track_levels
    and transition read only squared magnitudes, which no phase changes.
    """
    shape = np.shape(h)
    h = np.asarray(h, dtype=complex).reshape(-1, *shape[-2:])
    norm_h = np.linalg.norm(h, axis=(1, 2))
    skew = np.linalg.norm(h - np.swapaxes(h, 1, 2).conj(), axis=(1, 2))
    tol = 1e-9 * np.maximum(norm_h, 1.0)
    if np.any(skew > tol):
        raise ValueError("matrix is not Hermitian within tolerance")
    energies, vecs = np.linalg.eigh(h)
    degenerate = (np.diff(energies, axis=1) <= tol[:, None]).any(axis=1)
    for r in np.flatnonzero(degenerate):
        vecs[r] = _fix_degenerate_subspaces(energies[r], vecs[r], norm_h[r])
    return energies.reshape(shape[:-1]), vecs.reshape(shape)


def transition(energies: np.ndarray, states: np.ndarray,
               i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """(frequency, amplitude) of the i<->j transition over an eigensolve
    stack: energies of shape (..., 4), states of shape (..., 4, 4).

    Frequency is |E_j - E_i| in rad/s; the amplitude is the drive matrix
    element |<i|S_x|j>|^2, zero for transitions forbidden at theta = 0.
    Both take the stack's shape, so one solution gives numpy scalars.
    """
    if i == j or not (0 <= i <= 3 and 0 <= j <= 3):
        raise IndexError(f"invalid level pair ({i}, {j})")
    freq = np.abs(energies[..., j] - energies[..., i])
    amp = np.abs(np.einsum("...k,kl,...l->...", states[..., :, i].conj(),
                           _SX, states[..., :, j])) ** 2
    return freq, amp


def track_levels(energies: np.ndarray,
                 states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An eigensolve stack along any path, of shapes (n, m) and (n, m, m),
    with each row's levels permuted by adiabatic continuity.

    Each row is matched to the previous one through maximal eigenvector
    overlap, greedily, strongest first and row-major on ties, so crossing
    levels do not swap and transition(energies, states, i, j) follows the
    levels that are i and j in the first row.
    """
    m = energies.shape[-1]
    # |<previous row's states|this row's states>|^2 for every row at once
    overlaps = np.abs(np.swapaxes(states[:-1], 1, 2).conj()
                      @ states[1:]) ** 2
    rows = np.arange(len(overlaps))
    # perms[r + 1, p]: the column of row r + 1 that continues row r's column p
    perms = np.empty((len(energies), m), dtype=int)
    perms[0] = np.arange(m)
    for _ in range(m):
        p, c = np.divmod(np.argmax(overlaps.reshape(-1, m * m), axis=1), m)
        perms[rows + 1, p] = c
        overlaps[rows, p, :] = overlaps[rows, :, c] = -1.0
    # compose them along the path in log2(n) steps, so that perms[r, a] is
    # the column of row r that continues the first row's level a
    step = 1
    while step < len(perms):
        perms[step:] = np.take_along_axis(perms[step:], perms[:-step], axis=1)
        step *= 2
    return (np.take_along_axis(energies, perms, axis=1),
            np.take_along_axis(states, perms[:, None, :], axis=2))


def energy_level_sweep(D: float, g_par: float, g_perp: float, theta: float,
                       b_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tracked eigenpairs versus field magnitude at a fixed orientation:
    track_levels of the eigensolve at the n field magnitudes b_values,
    shapes (n, 4) and (n, 4, 4)."""
    b_values = np.asarray(b_values, dtype=float)
    if b_values.size < 2:
        raise ValueError("need at least two field points")
    if np.any(np.diff(b_values) <= 0):
        raise ValueError("field points must be strictly increasing")
    return track_levels(*eigensolve(
        build_hamiltonian(D, g_par, g_perp, b_values, theta)))


def render_energy_sweep_csv(path, b_values: np.ndarray, energies: np.ndarray) -> str:
    """CSV columns B_gauss, E1_Hz..E4_Hz (plain frequencies, not angular)."""
    return render_columns(path, ("B_gauss", "E1_Hz", "E2_Hz", "E3_Hz", "E4_Hz"),
                          np.column_stack([np.multiply(b_values, 1e4),
                                           np.divide(energies, math.tau)]))
