"""Tests for the physical constants and derived conversion factors."""
import pytest

from helioq import units


def test_eight_kelvin_is_about_160_ghz():
    # the quoted anchor "8 K ~ 160 GHz" holds at its own (two-digit) precision
    assert 8.0 * units.K_TO_GHZ == pytest.approx(160.0, rel=0.05)
    assert 8.0 * units.K_TO_GHZ == pytest.approx(166.69, rel=1e-2)
    # frozen constant ratio k_B / h
    assert units.K_TO_GHZ == pytest.approx(20.836619123327573, rel=1e-12)


def test_e_squared_consistency():
    assert units.E_SQ_K_CM == pytest.approx(units.E_SQ / units.K_B, rel=1e-12)
    assert units.E_SQ_K_CM == pytest.approx(1.6710094680729608e-3, rel=1e-12)


def test_image_strength_values():
    # helium: formula value, not the one-digit rounding
    assert units.image_strength(1.057) == pytest.approx(0.0069275644, rel=1e-6)
    assert units.image_strength(3.0) == pytest.approx(0.125, rel=1e-12)
    # vanishing dielectric contrast
    assert units.image_strength(1.0 + 1e-9) == pytest.approx(1.25e-10, rel=1e-6)


def test_image_strength_rejects_no_contrast():
    with pytest.raises(ValueError):
        units.image_strength(1.0)
    with pytest.raises(ValueError):
        units.image_strength(0.9)
