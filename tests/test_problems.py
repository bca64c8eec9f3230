"""Benchmark initial data and breather exact-solution tests."""

import numpy as np
import pytest

from fracsg import get_problem
from fracsg.problems import breather_amplitude, exact_breather, sech

from oracles import hump_slope


class TestSech:
    def test_basic_values(self):
        assert sech(0.0) == 1.0
        assert sech(1.0) == pytest.approx(1.0 / np.cosh(1.0), rel=1e-15)

    def test_no_overflow_far_out(self):
        with np.errstate(over="raise"):
            vals = sech(np.array([-1000.0, 1000.0]))
        np.testing.assert_array_equal(vals, [0.0, 0.0])


class TestVelocityKick:
    def test_peak_velocity(self):
        p = get_problem("5.1", omega=1.0)
        assert p.phi(np.array([0.0]))[0] == 0.0
        assert p.psi(np.array([0.0]))[0] == pytest.approx(4.0, rel=1e-15)

    def test_scaling_with_omega(self):
        p = get_problem("5.1", omega=1.1)
        assert p.psi(np.array([0.0]))[0] == pytest.approx(4.0 / 1.1, rel=1e-15)

    def test_boundary_decay(self):
        p = get_problem("5.1", omega=1.1)
        edges = np.array([-20.0, 20.0])
        assert np.max(np.abs(p.psi(edges))) < 1e-7
        assert np.max(np.abs(p.phi(edges))) == 0.0

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            get_problem("5.1", omega=0.0)


class TestHumpAtRest:
    def test_peak_displacement(self):
        p = get_problem("5.2")
        assert p.phi(np.array([0.0]))[0] == pytest.approx(3.2, rel=1e-15)
        assert p.psi(np.array([0.0]))[0] == 0.0

    def test_boundary_decay(self):
        p = get_problem("5.2")
        assert np.max(np.abs(p.phi(np.array([-20.0, 20.0])))) < 1e-7

    def test_derivative_consistency(self):
        p = get_problem("5.2")
        x = np.linspace(-3.0, 3.0, 25)
        d = 1e-6
        fd = (p.phi(x + d) - p.phi(x - d)) / (2.0 * d)
        np.testing.assert_allclose(hump_slope(x), fd, atol=1e-8)


@pytest.mark.parametrize("omega", [np.inf, np.nan])
def test_non_finite_omega_is_rejected(omega):
    with pytest.raises(ValueError, match="positive and finite"):
        get_problem("5.1", omega)
    with pytest.raises(ValueError, match="positive and finite"):
        breather_amplitude(1.0, omega)


def test_get_problem_dispatch():
    assert get_problem("5.1", omega=1.3).omega == 1.3
    assert get_problem("5.1").omega == 1.1
    assert get_problem("5.2").key == "5.2"
    assert get_problem("5.2").omega is None
    with pytest.raises(ValueError):
        get_problem("5.3")


@pytest.mark.parametrize("omega", [1.0, 1.1])
def test_hump_at_rest_refuses_omega(omega):
    with pytest.raises(ValueError, match=rf"5\.2.*omega.*{omega}"):
        get_problem("5.2", omega=omega)


def test_exact_solution_is_the_breather_at_omega_1_1():
    x = np.linspace(-20.0, 20.0, 201)
    for t in (0.0, 0.37, 1.0):
        np.testing.assert_array_equal(get_problem("5.1").exact(x, t), exact_breather(x, t, 1.1))
    np.testing.assert_array_equal(get_problem("5.1", omega=0.9).exact(x, 1.0),
                                  exact_breather(x, 1.0, 0.9))


def test_hump_at_rest_has_no_exact_solution():
    assert get_problem("5.2").exact is None


class TestBreather:
    def test_zero_at_initial_time(self):
        x = np.linspace(-20.0, 20.0, 41)
        np.testing.assert_array_equal(exact_breather(x, 0.0, 1.1), np.zeros_like(x))

    def test_center_value_at_unit_frequency(self):
        # omega=1, t=1, x=0: amplitude t * sech(0) = 1 -> 4 atan(1) = pi
        assert exact_breather(0.0, 1.0, 1.0) == pytest.approx(np.pi, rel=1e-15)

    def test_frozen_center_value(self):
        assert exact_breather(0.0, 1.0, 1.1) == pytest.approx(
            2.893421958136416641817, rel=1e-14)

    def test_amplitude_branches_are_continuous(self):
        # the amplitude is Lipschitz in omega across the branch switch, with
        # slope of order t near omega = 1
        d = 1e-6
        for t in (0.5, 1.0, 2.0):
            below = breather_amplitude(t, 1.0 - d)
            at = breather_amplitude(t, 1.0)
            above = breather_amplitude(t, 1.0 + d)
            assert abs(below - at) < 10.0 * t * d
            assert abs(above - at) < 10.0 * t * d

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            breather_amplitude(1.0, -0.5)

    @pytest.mark.parametrize("omega", [0.9, 1.0, 1.1])
    def test_initial_velocity_matches_benchmark_data(self, omega):
        x = np.linspace(-10.0, 10.0, 81)
        d = 1e-5
        fd_velocity = (exact_breather(x, d, omega) - exact_breather(x, -d, omega)) / (2.0 * d)
        expected = (4.0 / omega) * sech(x / omega)
        np.testing.assert_allclose(fd_velocity, expected, atol=1e-6)

    @pytest.mark.parametrize("omega", [0.9, 1.0, 1.1])
    def test_pde_residual(self, omega):
        # u_tt - u_xx + sin u = 0 at scattered interior points, second-order
        # differences with step 1e-3
        x = np.linspace(-4.0, 4.0, 17)
        d = 1e-3
        for t in (0.3, 1.0, 2.7):
            u = exact_breather(x, t, omega)
            u_tt = (exact_breather(x, t + d, omega) - 2.0 * u
                    + exact_breather(x, t - d, omega)) / (d * d)
            u_xx = (exact_breather(x + d, t, omega) - 2.0 * u
                    + exact_breather(x - d, t, omega)) / (d * d)
            residual = u_tt - u_xx + np.sin(u)
            assert np.max(np.abs(residual)) < 1e-4
