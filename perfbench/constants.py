"""CODATA 2018 constants (CGS-Gaussian) for the benchmark's own closed forms.

Kept apart from the package so that the generator and the output checks
do not depend on its internals.
"""
K_B = 1.380649e-16            # erg/K
H_PLANCK = 6.62607015e-27     # erg s
HBAR = 1.054571817e-27        # erg s
E_SQ = 4.80320471257e-10 ** 2  # erg cm
M_E = 9.1093837015e-28        # g
K_TO_GHZ = K_B / H_PLANCK / 1e9
EPSILON_HE = 1.057            # dielectric constant of liquid helium


def rydberg_K(epsilon: float) -> float:
    """Effective Rydberg R = lam^2 m_e e^4 / (2 hbar^2), kelvin."""
    lam = (epsilon - 1.0) / (4.0 * (epsilon + 1.0))
    return lam**2 * M_E * E_SQ**2 / (2.0 * HBAR**2) / K_B
