"""Tests for the geometry -> register-parameter mapping."""
import math

import numpy as np
import pytest

from helioq import hydrogenic, qubits, units

LAM = units.image_strength(1.057)


@pytest.fixture(scope="module")
def pair_geometry():
    return qubits.DeviceGeometry(pitch=0.5e-4, sites=((0.0, 0.0), (1.0, 0.0)))


@pytest.fixture(scope="module")
def pair_register(pair_geometry):
    return qubits.build(pair_geometry)


def test_site_field_lever_arm(pair_geometry):
    # 1 mV over half a micron is 20 V/cm
    assert qubits.site_field(pair_geometry, 1e-3) == pytest.approx(20.0, rel=1e-12)
    assert qubits.site_field(pair_geometry, 0.0) == pair_geometry.e_perp
    shifted = qubits.DeviceGeometry(
        pitch=0.5e-4, sites=((0, 0),), e_perp=5.0, c_geom=0.7
    )
    assert qubits.site_field(shifted, 1e-3) == pytest.approx(5.0 + 14.0, rel=1e-12)


def test_frequency_tuning_order(pair_geometry):
    # transition retuning per millivolt: the Stark-rate chain gives
    # ~17 GHz/mV at c_geom = 1; the lever-arm estimate e r_B dV/(d hbar)
    # is ~3.7 GHz/mV -- both at the "about a GHz or more per mV" order
    basis = hydrogenic.HydrogenicBasisSpec(lam=LAM)
    r1 = hydrogenic.stark_rate(basis, 1)
    r2 = hydrogenic.stark_rate(basis, 2)
    tuning = (r2 - r1) * qubits.site_field(pair_geometry, 1e-3)  # GHz per mV
    assert 1.0 <= tuning <= 30.0
    assert tuning == pytest.approx(16.62, rel=1e-3)


def test_couplings_quoted_scale(pair_register):
    a, b = pair_register.a_K, pair_register.b_K
    assert a[0, 1] == pytest.approx(0.15795561, rel=1e-6)
    assert b[0, 1] == pytest.approx(4.8696744e-3, rel=1e-6)
    # exchange rate B/(2 hbar) sits at the quoted 3e8 s^-1 scale
    swap_rate = b[0, 1] * units.K_B / (2 * units.HBAR)
    assert swap_rate == pytest.approx(3.1876971e8, rel=1e-6)
    assert 1.5e8 < swap_rate < 6e8


def test_couplings_inverse_cube():
    near = qubits.build(qubits.DeviceGeometry(pitch=0.5e-4, sites=((0, 0), (1, 0))))
    far = qubits.build(qubits.DeviceGeometry(pitch=0.5e-4, sites=((0, 0), (2, 0))))
    assert far.a_K[0, 1] == pytest.approx(near.a_K[0, 1] / 8, rel=1e-9)
    assert far.b_K[0, 1] == pytest.approx(near.b_K[0, 1] / 8, rel=1e-9)


def test_coupling_ratio_site_independent(pair_register):
    # B/A = 2 |z12|^2 / (z11 - z22)^2 for every coupled pair
    ham = qubits.build(
        qubits.DeviceGeometry(pitch=0.5e-4, sites=((0, 0), (1, 0), (0, 1)))
    )
    dz = ham.z11_cm[0] - ham.z22_cm[0]
    expect = 2 * ham.z12_cm[0] ** 2 / dz**2
    off = ~np.eye(3, dtype=bool)
    ratios = ham.b_K[off] / ham.a_K[off]
    assert np.allclose(ratios, expect, rtol=1e-12)


def test_confinement_scale(pair_geometry):
    scale = qubits.confinement_scale(pair_geometry)
    assert scale == pytest.approx(0.34381472, rel=1e-6)
    assert scale == pytest.approx(0.3, rel=0.2)
    # d^{-3/2} scaling
    big = qubits.DeviceGeometry(pitch=2e-4, sites=((0, 0),))
    assert qubits.confinement_scale(big) == pytest.approx(scale / 8, rel=1e-12)
    # consistency with the magnetic scales: omega_par^2 = omega_zb*omega_c/(2 pi)
    from helioq.medium import magnetic_quantities
    from helioq.units import HBAR, K_B

    ms = magnetic_quantities(1.5, pair_geometry.pitch)
    lhs = (scale * K_B / HBAR) ** 2
    rhs = (ms.omega_zb_K * K_B / HBAR) * (ms.omega_c_K * K_B / HBAR) / (2 * math.pi)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_build_single_qubit_trivial():
    ham = qubits.build(qubits.DeviceGeometry(pitch=0.5e-4, sites=((0, 0),)))
    assert ham.n_qubits == 1
    assert ham.a_K.shape == (1, 1) and ham.a_K[0, 0] == 0
    assert ham.eps_GHz[0] == pytest.approx(118.412471, rel=1e-6)


def test_build_resonant_pair(pair_register):
    assert pair_register.eps_K[0] == pair_register.eps_K[1]


def test_build_detuned_pair(pair_geometry):
    ham = qubits.build(pair_geometry, voltages=np.array([0.0, 1e-4]))
    assert ham.eps_K[1] > ham.eps_K[0]
    # flip-flop gap at resonance equals B: checked against the 2x2 block
    block = np.array(
        [
            [0.0, ham.b_K[0, 1] / 2],
            [ham.b_K[0, 1] / 2, 0.0],
        ]
    )
    gap = np.linalg.eigvalsh(block)
    assert gap[1] - gap[0] == pytest.approx(ham.b_K[0, 1], rel=1e-12)


def test_drive_coefficient(pair_register):
    assert pair_register.drive_coeff == pytest.approx(6.4838767e8, rel=1e-6)


def test_voltage_offset_equivalence(pair_geometry):
    # adding a constant to all voltages equals shifting the global field
    # by c_geom * c / d
    c = 2e-4  # volts
    ham_a = qubits.build(pair_geometry, voltages=np.array([1e-4, 3e-4]) + c)
    geom_b = qubits.DeviceGeometry(
        pitch=pair_geometry.pitch,
        sites=pair_geometry.sites,
        e_perp=pair_geometry.e_perp + pair_geometry.c_geom * c / pair_geometry.pitch,
        c_geom=pair_geometry.c_geom,
    )
    ham_b = qubits.build(geom_b, voltages=np.array([1e-4, 3e-4]))
    assert np.allclose(ham_a.eps_K, ham_b.eps_K, rtol=1e-12)
    assert np.allclose(ham_a.b_K, ham_b.b_K, rtol=1e-12)


def test_build_deterministic(pair_geometry):
    h1 = qubits.build(pair_geometry, voltages=np.array([0.0, 2e-4]))
    h2 = qubits.build(pair_geometry, voltages=np.array([0.0, 2e-4]))
    assert np.array_equal(h1.eps_K, h2.eps_K)
    assert np.array_equal(h1.a_K, h2.a_K)
    assert np.array_equal(h1.b_K, h2.b_K)
    import json

    assert json.dumps(h1.to_dict(), sort_keys=True) == json.dumps(
        h2.to_dict(), sort_keys=True
    )


@pytest.mark.parametrize("volts_mV,solves", [
    ([0.0] * 5, 1), ([0.0, 0.1, 0.0, 0.1, 0.2], 3), ([0.0, 0.05, 0.1, 0.15, 0.2], 5),
])
def test_build_solves_each_distinct_site_field_once(monkeypatch, volts_mV, solves):
    grid = qubits.DeviceGeometry(pitch=0.5e-4, sites=tuple((i % 3, i // 3) for i in range(5)))
    fields = []
    checked = qubits._checked_eigensystem

    def counted(spec, e_perp, vectors=False):
        fields.append(e_perp)
        return checked(spec, e_perp, vectors)

    monkeypatch.setattr(qubits, "_checked_eigensystem", counted)
    volts = np.array(volts_mV) * 1e-3
    ham = qubits.build(grid, voltages=volts)
    assert len(fields) == solves == len(set(fields))
    # each site reads what a one-site build at its own voltage solves
    for i, v in enumerate(volts):
        alone = qubits.build(qubits.DeviceGeometry(pitch=0.5e-4, sites=((0, 0),)), voltages=v)
        for name in ("eps_K", "z11_cm", "z22_cm", "z12_cm"):
            assert getattr(ham, name)[i] == getattr(alone, name)[0]


def test_stark_map_memory_is_bounded(pair_geometry):
    # a map holds one fixed coefficient series, shared by every map of its
    # basis, that no number of lookups grows; the per-basis cache of those
    # series is itself bounded
    stark = qubits.build(pair_geometry).stark_map
    stark.exact(1.0)
    series = stark._coefficients
    assert series is qubits._stark_fit(stark.basis) and len(series) <= qubits._FIT_DEGREE + 1
    for f in np.linspace(0.0, 50.0, 1044):
        stark.exact(f)
    assert vars(stark) == {"basis": stark.basis, "_coefficients": series}
    assert stark._coefficients is series
    limit = qubits._stark_fit.cache_info().maxsize
    assert limit is not None and limit <= 8
    for k in range(limit + 2):
        other = hydrogenic.HydrogenicBasisSpec(lam=LAM * (1.01 + 0.01 * k))
        qubits._StarkMap(other).exact(1.0)
        assert qubits._stark_fit.cache_info().currsize <= limit


def test_stark_map_matches_the_checked_solve():
    # cross-path: the Chebyshev map against transition_K over its domain,
    # and transition_K itself, bit for bit, outside it
    basis = hydrogenic.HydrogenicBasisSpec(lam=LAM)
    stark = qubits._StarkMap(basis)
    rng = np.random.default_rng(21)
    inside = np.concatenate([[0.0, qubits._FIT_MAX], rng.uniform(0.0, qubits._FIT_MAX, 240)])
    for f in inside:
        splitting = hydrogenic.transition_K(basis, f)
        assert abs(stark.exact(f) - splitting) <= 1e-12 * splitting, f
    above = np.nextafter(qubits._FIT_MAX, np.inf)
    for f in (-1e-12, -1e-3, -0.3, -1.5, -4.0, above, 125.0, 135.0):
        assert stark.exact(f) == hydrogenic.transition_K(basis, f), f


def test_stark_map_without_a_fit_is_the_checked_solve():
    # a basis that fails its guard inside the domain (24 states converge
    # only below ~67 V/cm) keeps every lookup on the checked solve
    small = hydrogenic.HydrogenicBasisSpec(lam=LAM, size=24)
    assert qubits._stark_fit(small) == ()
    stark = qubits._StarkMap(small)
    for f in (0.0, 1.0, 12.5):
        assert stark.exact(f) == hydrogenic.transition_K(small, f)
    with pytest.raises(hydrogenic.ConvergenceError, match="not converged"):
        stark.exact(qubits._FIT_MAX)


def test_stark_fit_recovers_a_polynomial(monkeypatch):
    # the transform and the chop, on a node solve with a known series: a
    # cubic comes back in four terms and sums to its own values
    def cubic(spec, f):
        return 5.0 + 2e-2 * f + 3e-4 * f**2 - 1e-6 * f**3

    basis = hydrogenic.HydrogenicBasisSpec(lam=LAM * 1.7)
    monkeypatch.setattr(qubits, "transition_K", cubic)
    assert len(qubits._stark_fit(basis)) == 4
    stark = qubits._StarkMap(basis)
    for f in np.linspace(0.0, qubits._FIT_MAX, 37):
        assert stark.exact(f) == pytest.approx(cubic(basis, f), rel=1e-14)
    qubits._stark_fit.cache_clear()


def test_stark_fit_rejects_a_tail_that_does_not_decay(monkeypatch):
    # a kink in the node solve leaves Chebyshev coefficients that fall only
    # as k^-2, so the series never levels off at rounding
    basis = hydrogenic.HydrogenicBasisSpec(lam=LAM * 1.3)
    monkeypatch.setattr(qubits, "transition_K", lambda spec, f: 5.0 + abs(f - 37.0) / 100)
    stark = qubits._StarkMap(basis)
    for _ in range(2):  # a failed fit is not cached
        with pytest.raises(hydrogenic.ConvergenceError, match="Stark map .* degree 160"):
            stark.exact(10.0)
    assert stark._coefficients == ()


def test_geometry_validation():
    with pytest.raises(ValueError, match="distinct"):
        qubits.DeviceGeometry(pitch=0.5e-4, sites=((0, 0), (0, 0)))
    with pytest.raises(ValueError, match="closer than one pitch"):
        qubits.DeviceGeometry(pitch=0.5e-4, sites=((0, 0), (0.5, 0)))
    with pytest.raises(ValueError, match="pitch"):
        qubits.DeviceGeometry(pitch=-1.0, sites=((0, 0),))


def test_synthetic_register():
    ham = qubits.QubitArrayHamiltonian.from_parameters(
        eps_K=[1.0, 1.0], b_K=np.array([[0.0, 0.1], [0.1, 0.0]])
    )
    assert ham.n_qubits == 2
    assert ham.stark_map is None
    with pytest.raises(ValueError, match="symmetric"):
        qubits.QubitArrayHamiltonian.from_parameters(
            eps_K=[1.0, 1.0], b_K=np.array([[0.0, 0.1], [0.2, 0.0]])
        )


@pytest.mark.parametrize("name", ["a_K", "b_K"])
@pytest.mark.parametrize("skew,symmetric", [(0.9e-13, True), (1.1e-13, False)], ids=["inside", "outside"])
def test_symmetry_tolerance_is_1e_12_of_the_largest_entry(name, skew, symmetric):
    # 1e-12 of the largest |entry|, 0.1 here: an asymmetry of 0.9e-13 passes, one of 1.1e-13 does not
    m = np.array([[0.0, 0.1], [0.1 + skew, 0.0]])
    if symmetric:
        ham = qubits.QubitArrayHamiltonian.from_parameters(eps_K=[1.0, 1.0], **{name: m})
        assert np.array_equal(getattr(ham, name), m)
    else:
        with pytest.raises(ValueError, match=f"^{name} must be symmetric$"):
            qubits.QubitArrayHamiltonian.from_parameters(eps_K=[1.0, 1.0], **{name: m})
