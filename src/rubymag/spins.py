"""Cr3+ ground-state spin Hamiltonian: construction, diagonalization, transitions.

The spin is fixed at S = 3/2 and the basis is ordered
m_s = (+3/2, +1/2, -1/2, -3/2).  All energies are angular frequencies in
rad/s and all magnetic fields are in tesla.  Eigenpairs come from
numpy.linalg.eigh, with the eigenvectors of degenerate levels fixed to a
deterministic basis and phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import CONST
from .csvio import write_columns
from .errors import EmptyRange, IndexOutOfRange, NonHermitianInput

_TWO_PI = 2.0 * math.pi

# m_s values in basis order (+3/2, +1/2, -1/2, -3/2)
_MS = np.array([1.5, 0.5, -0.5, -1.5])


@dataclass(frozen=True)
class SpinSystem:
    """Zero-field splitting and g-factors of the Cr3+ ground state.

    D is negative for ruby; the zero-field splitting between the two Kramers
    doublets is 2|D|.
    """

    D: float = -_TWO_PI * 5.745e9   # rad/s
    g_par: float = 2.0
    g_perp: float = 2.0

    def __post_init__(self):
        if self.g_par <= 0 or self.g_perp <= 0:
            raise ValueError("g-factors must be positive")


@dataclass(frozen=True)
class FieldVector:
    """Bias field in spherical coordinates, theta measured from the c-axis."""

    magnitude: float            # T
    theta: float = 0.0          # rad
    phi: float = 0.0            # rad

    def __post_init__(self):
        if self.magnitude < 0:
            raise ValueError("field magnitude must be >= 0")
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError("theta must lie in [0, pi]")
        if not 0.0 <= self.phi < _TWO_PI:
            raise ValueError("phi must lie in [0, 2*pi)")

    @property
    def cartesian(self) -> tuple[float, float, float]:
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


@dataclass(frozen=True)
class EigenSolution:
    """Ascending eigenenergies (rad/s) and matching orthonormal eigenvectors."""

    energies: np.ndarray = field(repr=False)
    states: np.ndarray = field(repr=False)   # states[:, k] belongs to energies[k]


def build_hamiltonian(sys: SpinSystem, fld: FieldVector) -> np.ndarray:
    """4x4 Hermitian Hamiltonian divided by hbar, in rad/s.

    H/hbar = (g_par mu_B / hbar) B_z S_z + (g_perp mu_B / hbar)(B_x S_x + B_y S_y)
             + D [S_z^2 - S(S+1)/3]
    """
    bx, by, bz = fld.cartesian
    zeeman = (sys.g_par * CONST.mu_B / CONST.hbar) * bz * _SZ \
        + (sys.g_perp * CONST.mu_B / CONST.hbar) * (bx * _SX + by * _SY)
    zfs = sys.D * (_SZ @ _SZ - (1.5 * 2.5 / 3.0) * np.eye(4))
    h = zeeman + zfs
    # symmetrize so the output is exactly equal to its conjugate transpose
    return (h + h.conj().T) / 2.0


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


def eigensolve(h: np.ndarray) -> EigenSolution:
    """Diagonalize a Hermitian matrix; energies ascending.

    Raises NonHermitianInput when ||H - H^dagger|| exceeds 1e-9 ||H||.
    """
    h = np.asarray(h, dtype=complex)
    norm_h = np.linalg.norm(h)
    if np.linalg.norm(h - h.conj().T) > 1e-9 * max(norm_h, 1.0):
        raise NonHermitianInput("matrix is not Hermitian within tolerance")
    energies, states = np.linalg.eigh(h)
    states = _fix_degenerate_subspaces(energies, states, norm_h)
    return EigenSolution(energies=energies, states=states)


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


def transition(sol: EigenSolution, i: int, j: int) -> tuple[float, float]:
    """(frequency, amplitude) of the i<->j transition.

    Frequency is |E_j - E_i| in rad/s; the amplitude is the drive matrix
    element |<i|S_x|j>|^2, zero for transitions forbidden at theta = 0.
    """
    if i == j or not (0 <= i <= 3 and 0 <= j <= 3):
        raise IndexOutOfRange(f"invalid level pair ({i}, {j})")
    freq = abs(sol.energies[j] - sol.energies[i])
    amp = abs(sol.states[:, i].conj() @ (_SX @ sol.states[:, j])) ** 2
    return freq, float(amp)


def energy_level_sweep(sys: SpinSystem, theta: float, b_range: tuple[float, float],
                       n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenenergies versus field magnitude at a fixed orientation.

    Returns (b_values, energies) with energies of shape (n_points, 4).  Levels
    are tracked by adiabatic continuity: each row is matched to the previous
    one through maximal eigenvector overlap, so crossing levels do not swap.
    """
    if n_points < 2:
        raise EmptyRange("need at least two field points")
    b_lo, b_hi = b_range
    if b_hi <= b_lo:
        raise EmptyRange("field range must be increasing")
    b_values = np.linspace(b_lo, b_hi, n_points)
    energies = np.empty((n_points, 4))
    prev_states = None
    for r, b in enumerate(b_values):
        sol = eigensolve(build_hamiltonian(sys, FieldVector(b, theta)))
        if prev_states is None:
            energies[r] = sol.energies
            prev_states = sol.states
        else:
            overlap = np.abs(prev_states.conj().T @ sol.states) ** 2
            perm = np.full(4, -1, dtype=int)
            taken = np.zeros(4, dtype=bool)
            # greedy assignment, strongest overlaps first
            for _ in range(4):
                flat = np.argmax(np.where(taken[None, :] | (perm[:, None] >= 0),
                                          -1.0, overlap))
                a, c = divmod(int(flat), 4)
                perm[a] = c
                taken[c] = True
            energies[r] = sol.energies[perm]
            prev_states = sol.states[:, perm]
    return b_values, energies


def write_energy_sweep_csv(path, b_values: np.ndarray, energies: np.ndarray) -> None:
    """CSV columns B_gauss, E1_Hz..E4_Hz (plain frequencies, not angular)."""
    write_columns(path, ("B_gauss", "E1_Hz", "E2_Hz", "E3_Hz", "E4_Hz"),
                  np.column_stack([np.asarray(b_values, dtype=float) * 1e4,
                                   np.asarray(energies, dtype=float) / _TWO_PI]))
