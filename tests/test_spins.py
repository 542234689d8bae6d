import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rubymag import constants as CONST
from rubymag.config import parse_config
from rubymag.errors import EmptyRange, IndexOutOfRange, NonHermitianInput
from rubymag.spins import (FieldVector, _fix_degenerate_subspaces,
                           analytic_energies_axial, build_hamiltonian,
                           eigensolve, energy_level_sweep,
                           render_energy_sweep_csv, spin_matrices, transition)

TWO_PI = 2.0 * math.pi
SYS = parse_config({}).spin_system()


def test_spin_matrices_algebra():
    sx, sy, sz = spin_matrices()
    for m in (sx, sy, sz):
        assert np.allclose(m, m.conj().T)
        assert abs(np.trace(m)) < 1e-12
    assert np.allclose(sx @ sy - sy @ sx, 1j * sz, atol=1e-12)
    assert np.allclose(sy @ sz - sz @ sy, 1j * sx, atol=1e-12)
    assert np.allclose(sz @ sx - sx @ sz, 1j * sy, atol=1e-12)
    assert np.allclose(np.diag(sz), [1.5, 0.5, -0.5, -1.5])


def test_hamiltonian_zero_field_diagonal():
    h = build_hamiltonian(SYS, FieldVector(0.0))
    assert np.allclose(h, np.diag([SYS.D, -SYS.D, -SYS.D, SYS.D]))


def test_hamiltonian_transverse_field_structure():
    b = 0.1
    h = build_hamiltonian(SYS, FieldVector(b, theta=math.pi / 2.0))
    scale = SYS.g_perp * CONST.mu_B * b / CONST.hbar
    expected_off = scale * np.array([math.sqrt(3) / 2.0, 1.0,
                                     math.sqrt(3) / 2.0])
    assert np.allclose(np.diag(h, 1), expected_off)
    assert np.allclose(np.diag(h), [SYS.D, -SYS.D, -SYS.D, SYS.D])


def test_hamiltonian_axial_31_gauss():
    b = 31e-4
    h = build_hamiltonian(SYS, FieldVector(b))
    zeeman = SYS.g_par * CONST.mu_B * b / CONST.hbar
    expected = np.diag(SYS.D * np.array([1, -1, -1, 1])
                       + zeeman * np.array([1.5, 0.5, -0.5, -1.5]))
    assert np.allclose(h, expected)


def test_eigensolve_zero_field_doublets():
    energies, _ = eigensolve(build_hamiltonian(SYS, FieldVector(0.0)))
    gap = energies[2] - energies[1]
    assert gap == pytest.approx(TWO_PI * 11.49e9, rel=1e-9)
    assert energies[0] == pytest.approx(energies[1], abs=1e-10 * abs(SYS.D))
    assert energies[2] == pytest.approx(energies[3], abs=1e-10 * abs(SYS.D))


def test_eigensolve_rejects_non_hermitian():
    h = build_hamiltonian(SYS, FieldVector(0.01)).copy()
    h[0, 1] += 0.01 * np.linalg.norm(h)
    with pytest.raises(NonHermitianInput):
        eigensolve(h)


def test_eigensolve_equals_per_matrix_fix():
    """The batched phase fix, and the cluster fix on degenerate rows only,
    give bit for bit _fix_degenerate_subspaces applied to each eigh result:
    on Hamiltonians and on random Hermitian matrices with a degenerate pair
    in a rotated basis."""
    rng = np.random.default_rng(9)
    mats = [build_hamiltonian(SYS, FieldVector(*map(float, field)))
            for field in zip(rng.uniform(0, 0.5, 20), rng.uniform(0, 3, 20),
                             rng.uniform(0, 6, 20))]
    mats.append(build_hamiltonian(SYS, FieldVector(0.0)))
    for _ in range(30):
        q, _ = np.linalg.qr(rng.standard_normal((4, 4))
                            + 1j * rng.standard_normal((4, 4)))
        h = (q * [1e9, 1e9, 2e9, 3e9]) @ q.conj().T
        mats.append((h + h.conj().T) / 2.0)
    for h in mats:
        energies, states = np.linalg.eigh(h)
        want = _fix_degenerate_subspaces(energies, states, np.linalg.norm(h))
        assert eigensolve(h)[1].tobytes() == want.tobytes()


def test_eigensolve_stack_equals_each_matrix():
    """A (3, 7, 4, 4) stack of Hamiltonians at random fields, the zero-field
    matrix and random Hermitian matrices with a degenerate pair solves bit
    for bit as each matrix alone; one non-Hermitian matrix anywhere in the
    stack is refused."""
    rng = np.random.default_rng(11)
    mats = [build_hamiltonian(SYS, FieldVector(*map(float, field)))
            for field in zip(rng.uniform(0, 0.5, 12), rng.uniform(0, 3, 12),
                             rng.uniform(0, 6, 12))]
    mats.append(build_hamiltonian(SYS, FieldVector(0.0)))
    for _ in range(8):
        q, _ = np.linalg.qr(rng.standard_normal((4, 4))
                            + 1j * rng.standard_normal((4, 4)))
        h = (q * [1e9, 1e9, 2e9, 3e9]) @ q.conj().T
        mats.append((h + h.conj().T) / 2.0)
    stack = np.array(mats)[rng.permutation(21)].reshape(3, 7, 4, 4)
    energies, states = eigensolve(stack)
    assert energies.shape == (3, 7, 4)
    assert states.shape == (3, 7, 4, 4)
    for idx in np.ndindex(3, 7):
        one_e, one_s = eigensolve(stack[idx])
        assert one_e.shape == (4,) and one_s.shape == (4, 4)
        assert energies[idx].tobytes() == one_e.tobytes()
        assert states[idx].tobytes() == one_s.tobytes()
    bad = stack.copy()
    bad[2, 4, 0, 1] += 0.01 * np.linalg.norm(bad[2, 4])
    with pytest.raises(NonHermitianInput):
        eigensolve(bad)


def test_build_hamiltonian_takes_an_array_of_fields():
    """An array of magnitudes at one orientation builds, bit for bit, the
    stack of per-field Hamiltonians; a negative entry is refused."""
    rng = np.random.default_rng(12)
    b = rng.uniform(0, 0.5, (2, 5))
    b[1, 2] = 0.0
    for theta, phi in ((0.0, 0.0), (0.7, 2.1), (math.pi / 2.0, 5.0)):
        got = build_hamiltonian(SYS, FieldVector(b, theta, phi))
        assert got.shape == (2, 5, 4, 4)
        for idx in np.ndindex(2, 5):
            want = build_hamiltonian(SYS, FieldVector(float(b[idx]), theta,
                                                      phi))
            assert got[idx].tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="magnitude"):
        FieldVector(np.array([0.1, -1e-3, 0.2]), 0.3)


def test_eigensolution_invariants_random_fields():
    rng = np.random.default_rng(7)
    for _ in range(50):
        fld = FieldVector(float(rng.uniform(0, 0.5)),
                          float(rng.uniform(0, math.pi)),
                          float(rng.uniform(0, TWO_PI - 1e-9)))
        h = build_hamiltonian(SYS, fld)
        energies, states = eigensolve(h)
        assert np.all(np.diff(energies) >= -1e-6)
        # orthonormality and residual
        assert np.allclose(states.conj().T @ states, np.eye(4),
                           atol=1e-10)
        resid = h @ states - states * energies[None, :]
        assert np.linalg.norm(resid) < 1e-8 * np.linalg.norm(h)


def test_axial_oracle_1000_random_fields():
    rng = np.random.default_rng(0)
    for b in rng.uniform(0.0, 0.5, size=1000):
        energies, _ = eigensolve(build_hamiltonian(SYS, FieldVector(float(b))))
        expected = analytic_energies_axial(SYS, float(b))
        scale = np.max(np.abs(expected))
        assert np.allclose(energies, expected, rtol=0, atol=1e-9 * scale)


def test_eigensolve_matches_numpy_oracle():
    rng = np.random.default_rng(3)
    for _ in range(100):
        fld = FieldVector(float(rng.uniform(0, 0.5)),
                          float(rng.uniform(0, math.pi)),
                          float(rng.uniform(0, TWO_PI - 1e-9)))
        h = build_hamiltonian(SYS, fld)
        expected = np.linalg.eigvalsh(h)
        got, _ = eigensolve(h)
        assert np.allclose(got, expected, rtol=0,
                           atol=1e-9 * np.max(np.abs(expected)))


@given(theta=st.floats(0.0, math.pi), phi=st.floats(0.0, TWO_PI - 1e-9))
@settings(max_examples=50, deadline=None)
def test_kramers_degeneracy_any_orientation(theta, phi):
    energies, _ = eigensolve(build_hamiltonian(
        SYS, FieldVector(0.0, theta, phi)))
    tol = 1e-10 * abs(SYS.D)
    assert abs(energies[1] - energies[0]) < tol
    assert abs(energies[3] - energies[2]) < tol


@given(b=st.floats(1e-4, 0.5), theta=st.floats(0.0, math.pi),
       phi1=st.floats(0.0, TWO_PI - 1e-9), phi2=st.floats(0.0, TWO_PI - 1e-9))
@settings(max_examples=50, deadline=None)
def test_azimuthal_invariance(b, theta, phi1, phi2):
    e1, _ = eigensolve(build_hamiltonian(SYS, FieldVector(b, theta, phi1)))
    e2, _ = eigensolve(build_hamiltonian(SYS, FieldVector(b, theta, phi2)))
    scale = np.max(np.abs(e1)) + abs(SYS.D)
    assert np.allclose(e1, e2, rtol=0, atol=1e-10 * scale)


@given(b=st.floats(0.0, 0.5), theta=st.floats(0.0, math.pi))
@settings(max_examples=50, deadline=None)
def test_trace_conservation(b, theta):
    e, _ = eigensolve(build_hamiltonian(SYS, FieldVector(b, theta)))
    assert abs(np.sum(e)) < 1e-9 * abs(SYS.D)


def test_analytic_axial_zero_field():
    e = analytic_energies_axial(SYS, 0.0)
    assert sorted(e) == pytest.approx(sorted([SYS.D, SYS.D, -SYS.D, -SYS.D]))


def test_transition_frequency_31_gauss_band():
    b = 31e-4
    e = analytic_energies_axial(SYS, b)
    # closed form: 2|D| - g mu_B B / hbar
    expected = 2.0 * abs(SYS.D) - SYS.g_par * CONST.mu_B * b / CONST.hbar
    energies, states = eigensolve(build_hamiltonian(SYS, FieldVector(b)))
    # the +3/2 <-> +1/2 transition: identify by dominant components
    idx = {int(np.argmax(np.abs(states[:, k]))): k for k in range(4)}
    freq, amp = transition(energies, states, idx[0], idx[1])
    assert freq == pytest.approx(expected, rel=1e-9)
    assert TWO_PI * 11.39e9 < freq < TWO_PI * 11.42e9


def test_transition_slope_axial():
    h = 1e-6
    freqs = []
    for b in (31e-4, 31e-4 + h):
        energies, states = eigensolve(build_hamiltonian(SYS, FieldVector(b)))
        idx = {int(np.argmax(np.abs(states[:, k]))): k for k in range(4)}
        freqs.append(transition(energies, states, idx[0], idx[1])[0])
    slope = abs(freqs[1] - freqs[0]) / h
    expected = SYS.g_par * CONST.mu_B / CONST.hbar
    assert slope == pytest.approx(expected, rel=1e-3)
    assert expected == pytest.approx(TWO_PI * 28.0e9, rel=2e-3)


def test_transition_amplitudes_axial():
    energies, states = eigensolve(build_hamiltonian(SYS, FieldVector(31e-4)))
    idx = {int(np.argmax(np.abs(states[:, k]))): k for k in range(4)}
    _, amp_allowed = transition(energies, states, idx[0], idx[1])
    _, amp_forbidden = transition(energies, states, idx[0], idx[2])
    assert amp_allowed == pytest.approx(0.75, abs=1e-9)
    assert amp_forbidden == pytest.approx(0.0, abs=1e-9)


def test_transition_forbidden_becomes_allowed_when_tilted():
    sol = eigensolve(build_hamiltonian(
        SYS, FieldVector(0.05, theta=math.radians(30))))
    # Delta m = 2 style pairs acquire weight off-axis
    amps = [transition(*sol, 0, 2)[1], transition(*sol, 1, 3)[1]]
    assert max(amps) > 1e-4


def test_transition_index_validation():
    sol = eigensolve(build_hamiltonian(SYS, FieldVector(0.01)))
    with pytest.raises(IndexOutOfRange):
        transition(*sol, 1, 1)
    with pytest.raises(IndexOutOfRange):
        transition(*sol, 0, 4)


def test_transition_stack_equals_each_solution():
    """transition over a (3, 7) eigensolve stack at 30 degrees equals, for
    every ordered pair, each field's own solve: the frequency bit for bit,
    the amplitude to rel 1e-14 against transition on that one solution (a
    numpy scalar) and to a few ulps against |<i|S_x|j>|^2 written out as a
    matrix-vector product.  An invalid pair on the stack is refused."""
    theta = math.radians(30.0)
    b = np.random.default_rng(13).uniform(0.0, 0.5, (3, 7))
    energies, states = eigensolve(build_hamiltonian(
        SYS, FieldVector(b, theta)))
    sx = spin_matrices()[0]
    for i, j in itertools.permutations(range(4), 2):
        freq, amp = transition(energies, states, i, j)
        assert freq.shape == amp.shape == (3, 7)
        for idx in np.ndindex(3, 7):
            one_e, one_s = eigensolve(build_hamiltonian(
                SYS, FieldVector(float(b[idx]), theta)))
            one_f, one_a = transition(one_e, one_s, i, j)
            assert np.ndim(one_f) == np.ndim(one_a) == 0
            assert freq[idx].tobytes() == one_f.tobytes()
            assert freq[idx] == abs(one_e[j] - one_e[i])
            assert amp[idx] == pytest.approx(one_a, rel=1e-14)
            # amplitudes are at most 9/4: a few ulps of 1 bound the rounding
            want = abs(one_s[:, i].conj() @ (sx @ one_s[:, j])) ** 2
            assert amp[idx] == pytest.approx(want, rel=1e-14, abs=1e-15)
    with pytest.raises(IndexOutOfRange):
        transition(energies, states, 1, 1)
    with pytest.raises(IndexOutOfRange):
        transition(energies, states, 0, 4)


def test_energy_level_sweep_axial_lines():
    b_values = np.linspace(0.0, 0.1, 21)
    energies = energy_level_sweep(SYS, 0.0, b_values)
    slope_scale = SYS.g_par * CONST.mu_B / CONST.hbar
    slopes = (energies[-1] - energies[0]) / (b_values[-1] - b_values[0])
    expected = sorted(slope_scale * np.array([1.5, 0.5, -0.5, -1.5]))
    assert np.allclose(sorted(slopes), expected, rtol=1e-6)
    # linearity: mid-point matches line through endpoints
    mid = (energies[0] + energies[-1]) / 2.0
    assert np.allclose(energies[10], mid, rtol=0, atol=1e-3 * abs(SYS.D))


def test_energy_level_sweep_transverse_kramers_limit():
    energies = energy_level_sweep(SYS, math.pi / 2.0,
                                  np.linspace(1e-8, 0.01, 5))
    first = np.sort(energies[0])
    assert abs(first[1] - first[0]) < 1e-4 * abs(SYS.D)
    assert abs(first[3] - first[2]) < 1e-4 * abs(SYS.D)


def test_allowed_transition_slope_largest_at_axial_and_transverse():
    # steepest strongly-allowed transition (drive amplitude > 0.5) in the
    # probe band, per orientation
    slopes = {}
    b_values = np.linspace(28e-4, 34e-4, 7)
    for deg in (0, 30, 60, 90):
        sol = eigensolve(build_hamiltonian(
            SYS, FieldVector(b_values, math.radians(deg))))
        best = 0.0
        for i in range(4):
            for j in range(i + 1, 4):
                freqs, amps = transition(*sol, i, j)
                in_band = TWO_PI * 10.5e9 < freqs[3] < TWO_PI * 12.5e9
                if min(amps) > 0.5 and in_band:
                    best = max(best, abs(np.polyfit(b_values, freqs, 1)[0]))
        slopes[deg] = best
    assert min(slopes[0], slopes[90]) > max(slopes[30], slopes[60])


def _sweep_row_by_row(theta, b_range, n_points):
    """energy_level_sweep as one eigensolve per field and a numpy greedy
    assignment per row: the reference for the batched sweep."""
    b_values = np.linspace(*b_range, n_points)
    energies = np.empty((n_points, 4))
    prev = None
    for r, b in enumerate(b_values):
        row, states = eigensolve(build_hamiltonian(SYS, FieldVector(b, theta)))
        if prev is None:
            energies[r], prev = row, states
            continue
        overlap = np.abs(prev.conj().T @ states) ** 2
        perm = np.full(4, -1)
        taken = np.zeros(4, dtype=bool)
        for _ in range(4):
            flat = np.argmax(np.where(taken[None, :] | (perm[:, None] >= 0),
                                      -1.0, overlap))
            a, c = divmod(int(flat), 4)
            perm[a] = c
            taken[c] = True
        energies[r], prev = row[perm], states[:, perm]
    return b_values, energies


@pytest.mark.parametrize("theta_deg", [0.0, 17.0, 45.0, 90.0, 180.0])
def test_energy_level_sweep_equals_row_by_row(theta_deg):
    """Bit for bit the per-field solve, through the zero-field Kramers
    doublets (the only row with a degenerate cluster) and, at 0 and 180
    degrees, the axial level crossing near 0.41 T."""
    theta = math.radians(theta_deg)
    for b_range, n_points in (((0.0, 0.2), 201), ((0.0, 0.8), 97),
                              ((1e-3, 0.05), 13)):
        b_values, want = _sweep_row_by_row(theta, b_range, n_points)
        got = energy_level_sweep(SYS, theta, b_values)
        assert got.tobytes() == want.tobytes()


def test_energy_level_sweep_checks_the_field_vector():
    with pytest.raises(ValueError, match="theta"):
        energy_level_sweep(SYS, math.pi + 0.1, np.linspace(0.0, 0.1, 5))
    with pytest.raises(ValueError, match="magnitude"):
        energy_level_sweep(SYS, 0.0, np.linspace(-0.1, 0.1, 5))


def test_energy_level_sweep_validation():
    with pytest.raises(EmptyRange):
        energy_level_sweep(SYS, 0.0, np.array([0.0]))
    with pytest.raises(EmptyRange):
        energy_level_sweep(SYS, 0.0, np.linspace(0.1, 0.0, 10))
    with pytest.raises(EmptyRange):
        energy_level_sweep(SYS, 0.0, np.array([0.0, 0.1, 0.1]))


def test_energy_sweep_csv_round_trip(tmp_path):
    b_values = np.linspace(0.0, 0.2, 11)
    energies = energy_level_sweep(SYS, 0.0, b_values)
    path = tmp_path / "levels.csv"
    path.write_text(render_energy_sweep_csv(path, b_values, energies))
    lines = path.read_text().splitlines()
    assert lines[0] == "B_gauss,E1_Hz,E2_Hz,E3_Hz,E4_Hz"
    assert len(lines) == 12
    row = [float(x) for x in lines[1].split(",")]
    assert row[0] == pytest.approx(0.0)
    assert np.allclose(sorted(row[1:]),
                       sorted(energies[0] / TWO_PI), rtol=1e-12)
