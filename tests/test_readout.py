"""Tests for the tunneling readout.

The rate oracle here recomputes the barrier integral with an entirely
different method (arbitrary-precision tanh-sinh quadrature on the raw
square-root integrand) and the turning points from the quadratic closed
form, independent of the package's complete-elliptic closed form.
"""
import math

import mpmath as mp
import numpy as np
import pytest

from helioq import dynamics, pulses, qubits, readout, units
from helioq.hydrogenic import HydrogenicBasisSpec, levels

LAM = units.image_strength(1.057)


@pytest.fixture(scope="module")
def energies():
    return levels(HydrogenicBasisSpec(lam=LAM), 0.0)


def oracle_exponent(level_K, e_plus):
    energy = level_K * units.K_B
    lam_esq = LAM * units.E_SQ
    force = units.EV_ERG * e_plus
    disc = energy**2 - 4.0 * lam_esq * force
    if disc <= 0:
        return 0.0
    z1 = (-energy - math.sqrt(disc)) / (2 * force)
    z2 = (-energy + math.sqrt(disc)) / (2 * force)
    z1, z2 = min(z1, z2), max(z1, z2)

    def integrand(z):
        return mp.sqrt(2 * units.M_E * force * (z - z1) * (z2 - z) / z)

    with mp.workdps(40):
        val = mp.quad(integrand, [z1, z2])
    return 2.0 * float(val) / units.HBAR


def barrier_top_field(level_K):
    """Reverse field (V/cm) at which the barrier top 2 sqrt(lam e^2 eE) meets E_m."""
    energy = level_K * units.K_B
    return energy**2 / (4.0 * LAM * units.E_SQ * units.EV_ERG)


@pytest.mark.parametrize("m,e_plus", [
    (1, 5.0), (1, 20.0), (1, 60.0), (2, 1.0), (2, 4.0), (1, 1e-3), (2, 1e-3),
])
def test_exponent_matches_independent_oracle(energies, m, e_plus):
    # every field here has W >= 1; 1e-3 V/cm puts W near 1e5-1e6
    ours = readout.wkb_exponent(LAM, energies[m - 1], e_plus)
    oracle = oracle_exponent(energies[m - 1], e_plus)
    assert oracle >= 1.0
    assert ours == pytest.approx(oracle, rel=1e-14)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("below", [1e-3, 1e-4, 1e-6])
def test_exponent_matches_independent_oracle_near_barrier_top(energies, m, below):
    # W falls linearly in 1 - E/E_top to 0 at the top: E(k) and K(k) cancel
    # there, so the closed form is held to an absolute bound
    level = energies[m - 1]
    e_plus = barrier_top_field(level) * (1.0 - below)
    ours = readout.wkb_exponent(LAM, level, e_plus)
    oracle = oracle_exponent(level, e_plus)
    assert 0.0 < oracle < 0.1
    assert abs(ours - oracle) < 1e-13
    assert readout.wkb_exponent(LAM, level, barrier_top_field(level) * (1.0 + below)) == 0.0


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("e_plus", [1e-10, 1e-14, 1e-18, 1e-290])
def test_exponent_at_weak_field_is_the_triangular_barriers(energies, m, e_plus):
    # far below the barrier top z1/z2 -> 0 and W -> (4/3) sqrt(2 m_e) |E|^(3/2) / (hbar e E_+);
    # below ~1e-13 V/cm, k^2 = 1 - z1/z2 rounds to 1, so the exponent takes z1/z2 itself;
    # at 1e-290 V/cm the force e E_+ times m_e underflows unless F z2 ~ |E| is formed first
    level = abs(energies[m - 1]) * units.K_B
    limit = 4.0 / 3.0 * math.sqrt(2.0 * units.M_E) * level**1.5 / (units.HBAR * units.EV_ERG) / e_plus
    assert readout.wkb_exponent(LAM, energies[m - 1], e_plus) == pytest.approx(limit, rel=1e-8)


def test_complete_elliptic_integrals_match_mpmath():
    # K(m) and E(m) at m = 1 - m1, from the complementary m1 = z1/z2 of the
    # exponent: m in [0, 1 - 1e-15], and on to m1 = 1e-300; E loses most near
    # m = 1, where 1 - sum 2^(n-1) c_n^2 cancels (measured: 4.8e-16 for K,
    # 3.8e-15 for E)
    grid = np.concatenate([np.linspace(1e-15, 1.0, 801), np.logspace(-300, -1, 100)])
    for m1 in grid.tolist():
        k, e = readout._ellipke(m1)
        with mp.workdps(340):   # 1 - m1 exact to the last digit of m1
            m = 1 - mp.mpf(m1)
            assert k == pytest.approx(float(mp.ellipk(m)), rel=1e-14, abs=0), m1
            assert e == pytest.approx(float(mp.ellipe(m)), rel=1e-14, abs=0), m1


_ROOT_FUNCTIONS = [
    lambda x: x**3 - 2.0 * x - 5.0,
    lambda x: math.cos(x) - x,
    lambda x: math.exp(x) - 3.0,
    lambda x: 1e-3 * math.atan(x - 0.3),
    lambda x: (x - 1.0) ** 5 + 1e-9 * x,
    lambda x: math.tanh(50.0 * (x - 0.7)),
    lambda x: math.sin(3.0 * x) + 0.1,
    # slopes whose product underflows to 0, where the C code divides to inf and bisects
    lambda x: 1e-160 * (math.sin(3.0 * x) + 0.1),
]


@pytest.mark.parametrize("scale, tolerances", [
    (1.0, {}),                                # SciPy's defaults: xtol 2e-12, rtol 4 eps
    (1.0, {"xtol": 1e-12, "rtol": 1e-14}),    # `plan`'s reverse field
    (1e-9, {"xtol": 1e-12 * 1e-9}),           # `pulses._refine_dwell`: 1e-12 of a ns dwell
    (1.0, {"xtol": 5e-324}),                  # as tight as the doubles allow
], ids=["defaults", "plan", "refine", "tightest"])
def test_brentq_port_returns_scipys_roots(scale, tolerances):
    from scipy.optimize import brentq

    rng = np.random.default_rng(2024)
    compared = 0
    for trial in range(400):
        g = _ROOT_FUNCTIONS[trial % len(_ROOT_FUNCTIONS)]
        a, b = (scale * rng.uniform(-3.0, 3.0, 2)).tolist()

        def f(x):
            return g(x / scale)

        if (f(a) > 0) == (f(b) > 0):
            continue
        assert readout._brentq(f, a, b, **tolerances) == brentq(f, a, b, **tolerances), (trial, a, b)
        compared += 1
    assert compared > 150


def test_brentq_port_raises_as_scipy_does():
    from scipy.optimize import brentq

    for solver in (readout._brentq, brentq):
        with pytest.raises(ValueError, match="different signs"):
            solver(lambda x: x * x + 1.0, -1.0, 1.0)
        with pytest.raises(RuntimeError, match="converge"):
            solver(lambda x: math.cos(x) - x, 0.0, 1.0, maxiter=3)
        # an endpoint on a root is returned before the signs are compared
        assert solver(lambda x: x * x - 1.0, 1.0, 5.0) == 1.0
        assert solver(lambda x: x * x - 1.0, -3.0, -1.0) == -1.0


def test_exponent_monotone_in_field(energies):
    fields = np.linspace(0.5, 50.0, 25)
    expo = [readout.wkb_exponent(LAM, energies[0], f) for f in fields]
    assert all(b < a for a, b in zip(expo, expo[1:]))


def test_rate_vanishes_at_weak_field(energies):
    # barrier width diverges as the field is removed
    assert readout.tunnel_rate(LAM, energies[0], 1.0) < 1e-200
    assert readout.tunnel_rate(LAM, energies[1], 0.2) < 1e-60
    # where the force e E_+ underflows to 0 the exponent is the limit's overflow
    assert readout.wkb_exponent(LAM, energies[0], 1e-320) == math.inf
    assert readout.tunnel_rate(LAM, energies[0], 1e-320) == 0.0


def test_excited_always_faster_when_both_bound(energies):
    for e_plus in (0.5, 1.0, 2.0, 4.0, 6.0):
        r1 = readout.tunnel_rate(LAM, energies[0], e_plus)
        r2 = readout.tunnel_rate(LAM, energies[1], e_plus)
        assert r2 > r1


def test_over_barrier_rate_is_attempt_frequency(energies):
    # the excited state clears the barrier above ~6.7 V/cm
    nu2 = abs(energies[1]) * units.K_B / units.HBAR
    assert readout.tunnel_rate(LAM, energies[1], 50.0) == pytest.approx(nu2, rel=1e-12)
    assert nu2 == pytest.approx(2.48e11, rel=0.01)


def test_plan_meets_selectivity_window(energies):
    wait = 1e-6
    plan = readout.plan(LAM, energies, wait, 1e6)
    # frozen from the oracle scan: rate_2 * wait = 5 at ~4.214 V/cm
    assert plan.e_plus == pytest.approx(4.2139556, rel=1e-6)
    assert plan.t_2 == pytest.approx(wait / 5.0, rel=1e-9)
    assert plan.t_2 <= 1e-6
    assert plan.t_1 / plan.t_2 >= 1e6
    assert plan.t_2 < wait < plan.t_1


def test_plan_brackets_below_the_starting_field():
    # just below E_2's zero crossing the excited state is barely bound, so
    # its barrier top (1.04e-3 V/cm here, where the bracket starts) and its
    # escape field sit near 1e-3 V/cm, against 6.7 V/cm at zero field
    from scipy.optimize import brentq

    basis = HydrogenicBasisSpec(lam=LAM)
    crossing = brentq(lambda f: levels(basis, f)[1], 20.0, 60.0)
    weak = levels(basis, crossing - 0.5)
    assert -0.1 < weak[1] < 0.0
    wait = 1e-6
    plan = readout.plan(LAM, weak, wait, 1e6)
    assert 0.0 < plan.e_plus < 1e-3
    assert plan.t_2 == pytest.approx(wait / 5.0, rel=1e-7)
    assert plan.t_2 < wait < plan.t_1


def test_plan_raises_when_even_the_barrier_top_is_too_slow(energies):
    # above the barrier top the excited state escapes at its attempt
    # frequency nu_2 ~ 2.5e11 / s; five escape times in a 1 ps wait need 5e12 / s
    with pytest.raises(RuntimeError, match="no reverse field drives the excited state out"):
        readout.plan(LAM, energies, 1e-12, 1e6)


def test_plan_reports_frontier_when_unreachable(energies):
    # a selectivity beyond the ground state's protection cannot be met:
    # at the chosen field t_1/t_2 ~ 7e104, so ask for more than that
    with pytest.raises(RuntimeError, match="frontier"):
        readout.plan(LAM, energies, 1e-6, 1e300)


def test_plan_rejects_degenerate_selectivity(energies):
    with pytest.raises(ValueError):
        readout.plan(LAM, energies, 1e-6, 1.0)


def test_shot_sampling_statistics(energies):
    plan = readout.plan(LAM, energies, 1e-6, 1e6)
    shots = 10_000
    p_survive = 0.3
    escaped, image = readout.sample_shots([p_survive], plan, shots, seed=123)
    tunneled = escaped[:, 0].sum()
    expect = shots * (1 - p_survive)
    sigma = math.sqrt(shots * p_survive * (1 - p_survive))
    assert abs(tunneled - expect) <= 3 * sigma
    assert image[(0, 0)] == tunneled


def test_shot_sampling_certain_escape(energies):
    plan = readout.plan(LAM, energies, 1e-6, 1e6)
    escaped, image = readout.sample_shots([0.0, 1.0], plan, 100, seed=5)
    assert escaped[:, 0].all()
    assert not escaped[:, 1].any()
    assert image[(0, 0)] == 100


def test_shot_sampling_reproducible(energies):
    plan = readout.plan(LAM, energies, 1e-6, 1e6)
    a = readout.sample_shots([0.4, 0.7], plan, 500, seed=99)
    b = readout.sample_shots([0.4, 0.7], plan, 500, seed=99)
    assert np.array_equal(a[0], b[0])
    assert a[1] == b[1]
    c = readout.sample_shots([0.4, 0.7], plan, 500, seed=100)
    assert not np.array_equal(a[0], c[0])


def test_shot_frequency_error_scales_inverse_sqrt(energies):
    # aggregate frequencies converge at the 1/sqrt(shots) rate: the
    # variance of the empirical rate over seed blocks falls by ~4x when
    # the shot count quadruples
    plan = readout.plan(LAM, energies, 1e-6, 1e6)
    p = 0.37

    def block_variance(shots):
        freqs = []
        for seed in range(20):
            escaped, _ = readout.sample_shots([p], plan, shots, seed=seed)
            freqs.append(escaped[:, 0].sum() / shots)
        return np.var(freqs)

    v1 = block_variance(500)
    v4 = block_variance(2000)
    assert v1 / v4 == pytest.approx(4.0, rel=0.6)


def test_pixel_aggregation(energies):
    # two sites half a micron apart with one-micron pixels share a pixel
    positions = np.array([[0.0, 0.0], [0.5e-4, 0.0]])
    plan = readout.plan(LAM, energies, 1e-6, 1e6, pixel_size=1e-4,
                        site_positions_cm=positions)
    assert plan.site_pixels == ((0, 0), (0, 0))
    escaped, image = readout.sample_shots([0.0, 0.0], plan, 50, seed=1)
    assert image == {(0, 0): 100}
    assert escaped[0].sum() == 2


def test_survival_from_trace_record_matches_shots(energies):
    # end-to-end: the tunneling evolution's trace feeds the sampler and the
    # empirical escape fraction agrees within 3 binomial sigma
    plan = readout.plan(LAM, energies, 1e-6, 1e6)
    ham = qubits.QubitArrayHamiltonian.from_parameters(eps_K=[0.75 * 7.5772])
    spec = dynamics.EvolutionSpec(
        sample_times=np.array([plan.wait]),
        tunneling=dynamics.TunnelingSpec(t_f=0.0, t_up=plan.t_2),
    )
    res = dynamics.evolve(
        ham, pulses.PulseSchedule(duration=plan.wait),
        dynamics.RegisterState.density_matrix("u"), spec,
    )
    survival = res.trace[-1]
    assert survival == pytest.approx(math.exp(-plan.wait / plan.t_2), rel=1e-8)
    shots = 10_000
    escaped, _ = readout.sample_shots([survival], plan, shots, seed=7)
    tunneled = escaped[:, 0].sum()
    sigma = math.sqrt(shots * survival * (1 - survival))
    assert abs(tunneled - shots * (1 - survival)) <= 3 * sigma


def test_survival_validation(energies):
    plan = readout.plan(LAM, energies, 1e-6, 1e6)
    with pytest.raises(ValueError):
        readout.sample_shots([1.2], plan, 10, seed=0)
    with pytest.raises(ValueError):
        readout.sample_shots([-0.1], plan, 10, seed=0)


def test_plan_repeats_exactly(energies):
    first = readout.plan(LAM, energies, 1e-6, 1e6)
    for _ in range(2):
        again = readout.plan(LAM, energies, 1e-6, 1e6)
        assert (again.e_plus, again.t_1, again.t_2) == (first.e_plus, first.t_1, first.t_2)


def philox_oracle(seed, shots, n):
    """NumPy's own Philox4x64-10 stream, drawn unchunked: shot k is row k."""
    return np.random.Generator(np.random.Philox(key=seed)).random((shots, n))


def test_shots_cross_the_chunk_boundary(energies):
    plan = readout.plan(LAM, energies, 1e-6, 1e6)
    chunk, n_sites, seed = readout._SHOT_CHUNK, 5, 2**64 + 3
    shots = chunk + 7
    survival = np.linspace(0.2, 0.8, n_sites)
    escaped, image = readout.sample_shots(survival, plan, shots, seed)
    assert escaped.shape == (shots, n_sites)
    assert np.array_equal(escaped, philox_oracle(seed, shots, n_sites) >= survival)
    assert image == {(0, 0): int(escaped.sum())}


def test_seed_outside_the_key_range_raises(energies):
    # the key is 128 bits; NumPy's own range check is no longer on the path
    plan = readout.plan(LAM, energies, 1e-6, 1e6)
    for seed in (-1, 2**128, 2**130):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*128 - 1\]"):
            readout.sample_shots([0.5], plan, 10, seed)
    escaped, _ = readout.sample_shots([0.5], plan, 10, 2**128 - 1)
    assert np.array_equal(escaped, philox_oracle(2**128 - 1, 10, 1) >= 0.5)
