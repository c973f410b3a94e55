"""Noise model tests: moments, densities, sampling determinism."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import invgamma

from svrisk import (
    InvalidNoiseModel,
    NoiseModel,
    noise_second_moment,
    sample_noise,
    scale_mixture,
    standard_gaussian,
)

from tests_support import noise_cdf, noise_pdf


class TestModelValidation:
    def test_low_dof_rejected(self):
        with pytest.raises(InvalidNoiseModel):
            scale_mixture(1.5)
        with pytest.raises(InvalidNoiseModel):
            scale_mixture(2.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidNoiseModel):
            NoiseModel("laplace")

    def test_valid_models(self):
        assert standard_gaussian().is_gaussian
        assert scale_mixture(3.0).dof == 3.0


class TestSampling:
    def test_gaussian_variance(self):
        x = sample_noise(standard_gaussian(), 10**6, seed=1)
        assert 0.995 <= x.var() <= 1.005

    def test_mixture_variance_d10(self):
        # E tau = d/(d-2) = 1.25 for d = 10
        x = sample_noise(scale_mixture(10.0), 10**6, seed=1)
        assert abs(x.var() - 1.25) / 1.25 < 0.01

    def test_low_dof_has_no_sampler(self):
        with pytest.raises(InvalidNoiseModel):
            sample_noise(scale_mixture(1.5), 10, seed=0)

    def test_count_validated(self):
        with pytest.raises(ValueError):
            sample_noise(standard_gaussian(), 0, seed=0)

    def test_bitwise_reproducible(self):
        for model in (standard_gaussian(), scale_mixture(4.0)):
            a = sample_noise(model, 1000, seed=42)
            b = sample_noise(model, 1000, seed=42)
            np.testing.assert_array_equal(a, b)
            c = sample_noise(model, 1000, seed=43)
            assert not np.array_equal(a, c)

    def test_mean_near_zero(self):
        x = sample_noise(scale_mixture(10.0), 10**6, seed=7)
        assert abs(x.mean()) < 5e-3

    def test_ks_distance_against_pdf_integral(self):
        # empirical CDF of 1e5 draws vs the integral of noise_pdf
        for model in (standard_gaussian(), scale_mixture(5.0)):
            x = np.sort(sample_noise(model, 10**5, seed=3))
            cdf = noise_cdf(model, x)
            n = len(x)
            ks = max(np.abs(cdf - np.arange(1, n + 1) / n).max(),
                     np.abs(cdf - np.arange(0, n) / n).max())
            assert ks < 0.01


class TestDensity:
    def test_gaussian_at_zero(self):
        assert noise_pdf(standard_gaussian(), 0.0) == pytest.approx(0.3989423, abs=1e-7)

    def test_mixture_matches_numeric_mixing_integral(self):
        # integrating the conditional Gaussian over tau ~ inv-gamma(d/2, d/2)
        # must reproduce the closed-form density
        d = 3.0
        model = scale_mixture(d)
        for x0 in (0.0, 0.7, 2.5):
            val, _ = quad(
                lambda tau: np.exp(-x0 * x0 / (2 * tau)) / np.sqrt(2 * np.pi * tau)
                * invgamma.pdf(tau, d / 2, scale=d / 2), 0, np.inf)
            assert noise_pdf(model, x0) == pytest.approx(val, abs=1e-9)
        assert noise_pdf(model, 0.0) == pytest.approx(0.3675526, abs=1e-7)

    def test_symmetry_exact(self):
        grid = np.linspace(0.0, 8.0, 101)
        for model in (standard_gaussian(), scale_mixture(3.0)):
            np.testing.assert_array_equal(noise_pdf(model, grid), noise_pdf(model, -grid))

    def test_normalization(self):
        for model in (standard_gaussian(), scale_mixture(2.5), scale_mixture(10.0)):
            total, _ = quad(lambda x: noise_pdf(model, x), -np.inf, np.inf)
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_unimodal_at_zero(self):
        grid = np.linspace(0.0, 6.0, 200)
        for model in (standard_gaussian(), scale_mixture(3.0)):
            vals = noise_pdf(model, grid)
            assert np.all(np.diff(vals) < 0)

    def test_cdf_matches_pdf_integral(self):
        model = scale_mixture(4.0)
        for x0 in (-1.0, 0.3, 2.0):
            val, _ = quad(lambda t: noise_pdf(model, t), -np.inf, x0)
            assert noise_cdf(model, x0) == pytest.approx(val, abs=1e-9)


class TestSecondMoment:
    def test_values(self):
        assert noise_second_moment(standard_gaussian()) == 1.0
        assert noise_second_moment(scale_mixture(10.0)) == pytest.approx(1.25)
        assert noise_second_moment(scale_mixture(3.0)) == pytest.approx(3.0)

    def test_monte_carlo_agreement(self):
        x = sample_noise(scale_mixture(10.0), 10**6, seed=11)
        assert abs((x * x).mean() - 1.25) / 1.25 < 0.01
