"""Tests for the vertical-spectrum solver.

The matrix-element oracle here is independent of the package: closed-form
m = 1, 2 wavefunctions integrated by adaptive quadrature, plus published
hydrogenic expectation values (<z>_m = 3 m^2 r_B / 2 for these states).
"""
import mpmath
import numpy as np
import pytest
from scipy import integrate

from helioq import hydrogenic, qubits, units
from helioq.hydrogenic import (
    ConvergenceError,
    HydrogenicBasisSpec,
    levels,
    rydberg_scales,
    stark_rate,
    transition_K,
)

LAM = units.image_strength(1.057)


@pytest.fixture(scope="module")
def basis():
    return HydrogenicBasisSpec(lam=LAM)


def _register_at(basis, e_perp):
    """A one-site register at pressing field e_perp, for its dipoles <m|z|n>."""
    geom = qubits.DeviceGeometry(pitch=0.5e-4, sites=((0, 0),), e_perp=e_perp)
    return qubits.build(geom, basis=basis)


@pytest.fixture(scope="module")
def zero_field(basis):
    return _register_at(basis, 0.0)


# closed-form ground and first-excited wavefunctions (x in Bohr radii)
def _u1(x):
    return 2.0 * x * np.exp(-x)


def _u2(x):
    return x * (1.0 - 0.5 * x) * np.exp(-0.5 * x) / np.sqrt(2.0)


def test_rydberg_scales_match_quoted_values():
    r, r_b = rydberg_scales(LAM)
    assert r == pytest.approx(7.577203088557404, rel=1e-12)
    assert r * units.K_TO_GHZ == pytest.approx(157.883, rel=1e-4)
    assert r_b * 1e8 == pytest.approx(76.387194, rel=1e-6)   # angstrom


def test_rydberg_scaling_laws():
    r1, b1 = rydberg_scales(LAM)
    r2, b2 = rydberg_scales(2 * LAM)
    assert r2 == pytest.approx(4 * r1, rel=1e-12)
    assert b2 == pytest.approx(b1 / 2, rel=1e-12)


def test_zero_field_levels_are_hydrogenic(basis):
    r, _ = rydberg_scales(LAM)
    energies = levels(basis, 0.0)
    for m in range(1, basis.size - 5 + 1):
        assert energies[m - 1] == pytest.approx(-r / m**2, rel=1e-6)


def test_transition_frequency(basis):
    # nu_12 = (3/4) R / h
    nu = transition_K(basis, 0.0) * units.K_TO_GHZ
    assert nu == pytest.approx(118.412471, rel=1e-6)
    assert nu == pytest.approx(120.0, rel=0.05)


def test_diagonal_elements_against_oracle(zero_field):
    _, r_b = rydberg_scales(LAM)
    z11, _ = integrate.quad(lambda x: _u1(x) * x * _u1(x), 0, 60)
    z22, _ = integrate.quad(lambda x: _u2(x) * x * _u2(x), 0, 120)
    assert zero_field.z11_cm[0] == pytest.approx(z11 * r_b, rel=1e-10)
    assert zero_field.z22_cm[0] == pytest.approx(z22 * r_b, rel=1e-10)
    # and the closed forms: 1.5 r_B ~ 11.4 nm, 6 r_B ~ 45.6 nm
    assert zero_field.z11_cm[0] == pytest.approx(1.5 * r_b, rel=1e-10)
    assert zero_field.z22_cm[0] == pytest.approx(6.0 * r_b, rel=1e-10)
    assert zero_field.z11_cm[0] * 1e7 == pytest.approx(11.458, abs=2e-2)
    assert zero_field.z22_cm[0] * 1e7 == pytest.approx(45.832, abs=2e-2)


def test_offdiagonal_element_against_oracle(zero_field):
    val, _ = integrate.quad(lambda x: _u1(x) * x * _u2(x), 0, 80)
    assert abs(val) == pytest.approx(0.5587016542708524, rel=1e-10)  # 32 sqrt(2)/81
    assert abs(zero_field.z12_cm[0]) == pytest.approx(
        abs(val) * rydberg_scales(LAM)[1], rel=1e-10
    )


def test_wavefunctions_normalized(basis):
    # adaptive-quadrature oracle on the closed-form wavefunctions
    for m, u, hi in ((1, _u1, 60), (2, _u2, 120)):
        norm, _ = integrate.quad(lambda x: u(x) ** 2, 0, hi)
        assert norm == pytest.approx(1.0, abs=1e-10)
    # basis orthonormality through the solver's quadrature, all states
    from helioq.hydrogenic import _QUAD_ORDER, _moment_matrix

    gram = _moment_matrix(basis.size, 0, _QUAD_ORDER)
    assert np.abs(gram - np.eye(basis.size)).max() < 1e-8


def test_z_matrix_symmetric(basis):
    # the moment table is the zero-field z matrix in Bohr radii
    z = hydrogenic._moment_matrix(basis.size, 1, hydrogenic._QUAD_ORDER)
    assert np.abs(z - z.T).max() <= 1e-10 * np.abs(z).max()


def test_stark_rates_match_quoted_values(basis, zero_field):
    r1 = stark_rate(basis, 1)
    r2 = stark_rate(basis, 2)
    assert r1 == pytest.approx(0.27705512, rel=1e-6)
    assert r2 == pytest.approx(1.10822049, rel=1e-6)
    # the pair responds at ~1 GHz per V/cm
    assert r2 - r1 == pytest.approx(0.83116537, rel=1e-6)
    # first-order identity: rate_m = e <m|z|m> / h
    for z_mm, rate in ((zero_field.z11_cm[0], r1), (zero_field.z22_cm[0], r2)):
        expect = units.EVCM_K * z_mm * units.K_TO_GHZ
        assert rate == pytest.approx(expect, rel=1e-6)


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_stark_rate_matches_finite_difference_oracle(basis, m):
    # symmetric differences of the solved levels at +-1e-3 and +-5e-4 V/cm,
    # Richardson-extrapolated in the step
    def central(step):
        up = levels(basis, step)[m - 1]
        dn = levels(basis, -step)[m - 1]
        return (up - dn) / (2.0 * step) * units.K_TO_GHZ

    coarse, fine = central(1e-3), central(5e-4)
    assert stark_rate(basis, m) == pytest.approx((4.0 * fine - coarse) / 3.0, rel=1e-8)


def test_stark_rate_is_the_closed_form_dipole(basis):
    # <m|z|m> = 3 m^2 r_B / 2 for the hard-wall image states; the rate is
    # e <m|z|m> / h, written here in erg and Hz
    r_b = rydberg_scales(LAM)[1]
    for m in range(1, basis.size + 1):
        expect = 1.5 * m**2 * r_b * units.EV_ERG / units.H_PLANCK / 1e9
        assert abs(stark_rate(basis, m) - expect) <= 1e-15 * expect
    with pytest.raises(ValueError, match="outside basis"):
        stark_rate(basis, basis.size + 1)


def test_hellmann_feynman_at_operating_field(basis):
    # dE_m/dE_perp of the levels, by symmetric differences at +-1e-2 and
    # +-5e-3 V/cm Richardson-extrapolated in the step, equals e <m|z|m> of
    # build's Stark-perturbed states
    def central(e0, m, step):
        up = levels(basis, e0 + step)[m - 1]
        dn = levels(basis, e0 - step)[m - 1]
        return (up - dn) / (2.0 * step)

    for e0 in (0.5, 1.3, 5.0, 10.0, 20.0, 37.0, 60.0, 98.5, 100.0):
        register = _register_at(basis, e0)
        for m, z_mm in ((1, register.z11_cm[0]), (2, register.z22_cm[0])):
            fd = (4.0 * central(e0, m, 5e-3) - central(e0, m, 1e-2)) / 3.0
            assert fd == pytest.approx(units.EVCM_K * z_mm, rel=1e-9), (e0, m)


def test_transition_dipole_keeps_its_sign(basis):
    # each qubit state is signed by its dominant zero-field component, so
    # <1|z|2> stays negative from zero field to past the Stark map's domain
    for e0 in np.linspace(0.0, 118.0, 60):
        z12 = _register_at(basis, float(e0)).z12_cm[0]
        assert -4.31e-7 < z12 < -2.86e-7


def test_stark_shift_linearity(basis):
    base = levels(basis, 0.0)
    for m in (1, 2):
        s1 = levels(basis, 1.0)[m - 1] - base[m - 1]
        s2 = levels(basis, 2.0)[m - 1] - base[m - 1]
        assert s2 == pytest.approx(2 * s1, rel=1e-2)


def test_transition_monotone_in_field(basis):
    fields = np.linspace(0.0, 100.0, 21)
    nus = [transition_K(basis, f) for f in fields]
    assert np.all(np.diff(nus) > 0)


def test_sum_rule_quantifies_truncation():
    """The bound-state dipole sum approaches its converged value by M = 20.

    The full closure sum <1|z^2|1> = 3 r_B^2 is NOT reached by bound
    states alone: adaptive-quadrature summation converges to 0.89119 of
    it as M grows, the remainder being continuum weight.  What truncation
    must deliver is stability of the bound sum.
    """
    # at zero field the states are the basis states, whose <1|z|n> in Bohr
    # radii is the first row of the moment table
    small = hydrogenic._moment_matrix(20, 1, hydrogenic._QUAD_ORDER)
    bound_sum = float(np.sum(small[0, :] ** 2))
    # frozen oracle: sum_{n<=20} |<1|z|n>|^2 from independent quadrature
    assert bound_sum == pytest.approx(2.672354865841365, rel=1e-6)
    # truncation is converged: 5 more states move the sum by < 1e-3 of total
    big = hydrogenic._moment_matrix(25, 1, hydrogenic._QUAD_ORDER)
    big_sum = float(np.sum(big[0, :] ** 2))
    assert abs(big_sum - bound_sum) < 1e-3 * 3.0
    # and the continuum deficit is the known ~10.9%
    assert bound_sum / 3.0 == pytest.approx(0.89078, abs=5e-4)


def test_solve_rejects_overwhelming_field(basis):
    with pytest.raises(ConvergenceError):
        levels(basis, 1e5)


@pytest.mark.parametrize("e_perp", [0.0, 1.0, 37.0, 100.0, -1e-3])
def test_transition_K_matches_solve_exactly(basis, e_perp):
    # the eigenvector-reading solve of `build` and the energies-only one agree
    energies = levels(basis, e_perp)
    assert transition_K(basis, e_perp) == _register_at(basis, e_perp).eps_K[0]
    assert transition_K(basis, e_perp, 3, 2) == energies[2] - energies[1]


def test_levels_are_solve_energies_bit_for_bit(basis):
    # asking for the eigenvectors, as `build` does, leaves the energies' bits
    for e_perp in (-4.0, -1.0, -1e-3, 0.0, 1e-3, 2.5, 37.0, 100.0, 120.0):
        with_vectors = hydrogenic._checked_eigensystem(basis, e_perp, vectors=True)[0]
        assert np.array_equal(levels(basis, e_perp), with_vectors)


def test_transition_K_and_solve_fail_alike(basis):
    # 200 V/cm lies past the range the default 32-state basis converges over
    with pytest.raises(ConvergenceError) as direct:
        transition_K(basis, 200.0)
    with pytest.raises(ConvergenceError) as full:
        _register_at(basis, 200.0)
    assert direct.value.shift == full.value.shift
    assert direct.value.shift > 1e-4


def test_vanishing_negative_field_solves(basis):
    # below ~1e-289 V/cm the barrier top underflows to 0 K; the level-order
    # check must not divide by it
    assert transition_K(basis, -1e-300) == transition_K(basis, -1e-200) == 5.682902316418053
    assert _register_at(basis, -1e-300).eps_K[0] == 5.682902316418053


def test_small_basis_rejected():
    with pytest.raises(ValueError):
        HydrogenicBasisSpec(lam=LAM, size=2)


def _stark_matrix(spec, e_perp):
    """The truncated Stark matrix (K) that `transition_K` diagonalizes."""
    rydberg_K, r_b = spec.scales
    m = np.arange(1, spec.size + 1)
    z_cm = hydrogenic._moment_matrix(spec.size, 1, max(hydrogenic._QUAD_ORDER, spec.size + 8)) * r_b
    return np.diag(-rydberg_K / m**2) + units.EVCM_K * e_perp * z_cm


@pytest.mark.parametrize("e_perp", [0.0, 37.0, 100.0])
def test_transition_K_matches_extended_precision_eigensolve(basis, e_perp):
    # independent eigensolver: mpmath's Jacobi iteration at 30 digits on the
    # same 32-state matrix
    h = mpmath.matrix(_stark_matrix(basis, e_perp).tolist())
    with mpmath.workdps(30):
        energies = sorted(mpmath.eigsy(h, eigvals_only=True))
        splitting = float(energies[1] - energies[0])
    assert transition_K(basis, e_perp) == pytest.approx(splitting, rel=1e-13, abs=0)


def test_transition_K_matches_eigh_over_a_sweep(basis):
    for e_perp in (-1e-3, 0.0, 1e-3, 1.0, 10.0, 37.0, 60.0, 100.0, 120.0):
        energies = np.linalg.eigh(_stark_matrix(basis, e_perp))[0]
        splitting = energies[1] - energies[0]
        assert abs(transition_K(basis, e_perp) - splitting) <= 1e-12 * splitting


class _EighCalled(Exception):
    pass


def test_eigenvectors_only_where_they_are_read(basis, monkeypatch):
    # pins the cost of a Stark lookup: energies come from eigvalsh, and eigh
    # runs only where eigenvectors are read
    expected = transition_K(basis, 12.5)

    def eigh(*args, **kwargs):
        raise _EighCalled

    monkeypatch.setattr(hydrogenic.np.linalg, "eigh", eigh)
    assert transition_K(basis, 0.0) > 0
    assert transition_K(basis, 12.5) == expected
    # above its Chebyshev domain the Stark map is the checked solve itself
    assert qubits._StarkMap(basis).exact(125.0) == transition_K(basis, 125.0)
    # the level assignment at negative fields and build's dipoles still need it
    with pytest.raises(_EighCalled):
        transition_K(basis, -1e-3)
    with pytest.raises(_EighCalled):
        _register_at(basis, 12.5)
    # inside the domain, a lookup after the map's build solves nothing
    stark = qubits._StarkMap(basis)
    stark.exact(0.0)
    monkeypatch.setattr(hydrogenic.np.linalg, "eigvalsh", eigh)
    assert stark.exact(12.5) == pytest.approx(expected, rel=1e-12, abs=0)


def _laguerre_grids(size, order):
    """(m, n, x) for each pair m <= n of the moment table, x its quadrature grid."""
    t, _ = np.polynomial.laguerre.laggauss(order)
    for m in range(1, size + 1):
        for n in range(m, size + 1):
            x = t / (1.0 / m + 1.0 / n)
            yield m, n, x


def _scipy_moment_matrix(size, power, order):
    """The per-pair moment table on SciPy's eval_genlaguerre."""
    from scipy.special import eval_genlaguerre

    _, w = np.polynomial.laguerre.laggauss(order)
    out = np.empty((size, size))
    for m, n, x in _laguerre_grids(size, order):
        a = 1.0 / m + 1.0 / n
        poly = (
            (2.0 / m**2.5) * (2.0 / n**2.5) * x ** (2 + power)
            * eval_genlaguerre(m - 1, 1, 2.0 * x / m)
            * eval_genlaguerre(n - 1, 1, 2.0 * x / n)
        )
        out[m - 1, n - 1] = out[n - 1, m - 1] = np.dot(w, poly) / a
    return out


@pytest.mark.parametrize("size", [5, 32, 37])
def test_moment_table_is_scipys_bit_for_bit(size):
    order = max(hydrogenic._QUAD_ORDER, size + 8)
    built = hydrogenic._moment_matrix.__wrapped__(size, 1, order)
    assert np.array_equal(built, _scipy_moment_matrix(size, 1, order))


def test_laggauss_is_numpys_bit_for_bit():
    # every order up to 130, which covers _QUAD_ORDER and size + 8 of every basis tested
    assert max(hydrogenic._QUAD_ORDER, 37 + 8) <= 130
    for order in range(1, 131):
        nodes, weights = hydrogenic._laggauss(order)
        ref_nodes, ref_weights = np.polynomial.laguerre.laggauss(order)
        assert np.array_equal(nodes, ref_nodes), order
        assert np.array_equal(weights, ref_weights), order


@pytest.mark.parametrize("size", [5, 32, 37])
def test_laguerre_recurrence_is_scipys_bit_for_bit(size):
    from scipy.special import eval_genlaguerre

    order = max(hydrogenic._QUAD_ORDER, size + 8)
    # every grid of the table, each at every degree 0-44
    ys = np.array([2.0 * x / k for m, n, x in _laguerre_grids(size, order) for k in {m, n}])
    for deg in range(45):
        got = hydrogenic._laguerre1(np.full(len(ys), deg), ys)
        assert np.array_equal(got, eval_genlaguerre(deg, 1, ys)), deg
