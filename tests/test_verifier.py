"""Checks for the stand-alone verification helpers: weighted Poincare
inequalities, the two Gaussian sup constants, raw-vs-damped equivalence
ratios, decay fitting, and the band-budget report; and for the test
oracle of band-multiplier convexity.
"""

import math

import numpy as np
import pytest

from mhdbl.grid import GridSpec, TailViolationError
from mhdbl.scenario import Params, initial_data_standard
from mhdbl.solver import NormSeries, make_state
from mhdbl.verify import (
    fit_decay,
    fit_loglog,
    gh_equivalence_check,
    poincare_check,
    run_poincare_suite,
    run_sup_constants_suite,
    sup_constants,
    theta_report,
)
from oracles import multiplier_convexity_check

ROOT_PI_HALF = math.sqrt(math.pi) / 2.0


def standard_state(ny=513, kappa=1.0):
    g = GridSpec(lx=2.0 * np.pi, nx=32, ymax=16.0, ny=ny)
    p = Params(kappa=kappa, epsilon=1e-3)
    u0, b0, _ = initial_data_standard(g, p)
    return make_state(g, p, u0, b0)


def fft_modes(n, pairs):
    """Spectrum in FFT layout with Hermitian pairs at the given modes."""
    c = np.zeros(n, complex)
    for j, a in pairs:
        c[j] = a
        c[-j] = np.conj(a)
    return c


class TestPoincare:
    def test_gaussian_saturates_first_form(self):
        # f = e^{-y^2/4} turns the first bound into an equality at
        # sqrt(pi)/2; the second form stays strictly below
        lhs, rhs1, rhs2, ok = poincare_check(
            lambda y: np.exp(-y * y / 4.0), 0.0, 1.0)
        assert ok
        assert lhs == pytest.approx(ROOT_PI_HALF, abs=1e-8)
        assert rhs1 == pytest.approx(ROOT_PI_HALF, abs=1e-8)
        assert rhs2 < rhs1

    def test_gaussian_equality_tightens_under_refinement(self):
        gaps = []
        for ny in (2048, 4096):
            lhs, rhs1, _, ok = poincare_check(
                lambda y: np.exp(-y * y / 4.0), 0.0, 1.0, ny=ny)
            assert ok
            gaps.append(abs(lhs - rhs1))
        assert gaps[1] < gaps[0]
        assert gaps[1] < 1e-6

    def test_zero_profile_is_vacuous(self):
        lhs, rhs1, rhs2, ok = poincare_check(lambda y: 0.0 * y, 1.0, 1.0)
        assert (lhs, rhs1, rhs2) == (0.0, 0.0, 0.0)
        assert ok

    def test_top_heavy_profile_rejected(self):
        with pytest.raises(TailViolationError, match=r"near the top of the domain \[0, 26\]"):
            poincare_check(lambda y: np.exp(-((y - 20.0) ** 2)), 0.0, 1.0)

    def test_bad_kappa(self):
        """A kappa or t out of range is refused by name, not read as a
        failed or vacuous inequality."""
        for t, kappa, msg in (
                (0.0, 0.0, "kappa must be positive and finite, got 0.0"),
                (0.0, -1.0, "kappa must be positive and finite, got -1.0"),
                (0.0, math.nan, "kappa must be positive and finite, got nan"),
                (0.0, math.inf, "kappa must be positive and finite, got inf"),
                (math.nan, 1.0, "t must be finite and >= 0, got nan"),
                (math.inf, 1.0, "t must be finite and >= 0, got inf"),
                (-1.0, 1.0, "t must be finite and >= 0, got -1.0"),
                (-0.5, 1.0, "t must be finite and >= 0, got -0.5"),
                (0.0, True, "kappa must be positive and finite, got True"),
                (False, 1.0, "t must be finite and >= 0, got False")):
            with pytest.raises(ValueError) as exc:
                poincare_check(lambda y: np.exp(-y * y), t, kappa)
            assert str(exc.value) == msg

    def test_small_suite_passes_and_is_deterministic(self):
        a = run_poincare_suite(seed=7)
        b = run_poincare_suite(seed=7)
        assert a["cases"] == 50 * 3 * 3
        assert a["all_pass"] and a["failures"] == 0
        assert [d["lhs"] for d in a["details"]] == \
            [d["lhs"] for d in b["details"]]

    def test_suite_seed_changes_cases(self):
        a = run_poincare_suite(seed=1)
        b = run_poincare_suite(seed=2)
        assert [d["lhs"] for d in a["details"]] != \
            [d["lhs"] for d in b["details"]]


class TestSupConstants:
    def test_values(self):
        sup1, argmax1, sup2 = sup_constants()
        assert sup1 == pytest.approx(0.541044, abs=1e-5)
        assert argmax1 == pytest.approx(0.924139, abs=1e-4)
        # the tail kernel peaks at zero where it equals sqrt(pi)/2 exactly
        assert abs(sup2 - ROOT_PI_HALF) < 1e-15

    def test_suite_cross_route(self):
        rep = run_sup_constants_suite()
        assert rep["all_pass"]
        assert rep["route_gap"] < 1e-10
        assert abs(rep["sup1"] - rep["sup1_quadrature"]) == rep["route_gap"]


class TestGhEquivalence:
    def test_standard_data_caps(self):
        st = standard_state()
        rep = gh_equivalence_check(st, 0.5)
        assert rep["passed"] and not rep["vacuous"]
        assert set(rep["caps"]) == {"phi_vs_g", "u_vs_g", "dyu_vs_dyg",
                                    "psi_vs_h", "b_vs_h", "dyb_vs_dyh"}
        for cap in rep["caps"].values():
            assert 0.0 < cap <= 3.0
        # the tangential-field family is the known tightest one here
        assert rep["caps"]["u_vs_g"] == pytest.approx(0.9858, abs=5e-3)

    def test_caps_stable_under_refinement(self):
        coarse = gh_equivalence_check(standard_state(ny=513), 0.5)
        fine = gh_equivalence_check(standard_state(ny=1025), 0.5)
        for name, c in coarse["caps"].items():
            assert fine["caps"][name] == pytest.approx(c, rel=5e-2)

    def test_caps_grow_with_gamma(self):
        st = standard_state()
        reports = [gh_equivalence_check(st, g) for g in (0.25, 0.5, 0.75)]
        for name in reports[0]["caps"]:
            caps = [r["caps"][name] for r in reports]
            assert caps[0] <= caps[1] <= caps[2]

    def test_zero_state_vacuous(self):
        g = GridSpec(lx=2.0 * np.pi, nx=32, ymax=16.0, ny=257)
        p = Params(kappa=1.0, epsilon=1e-3)
        from mhdbl.grid import Field
        st = make_state(g, p, Field.zeros(g, "dirichlet"),
                        Field.zeros(g, "neumann"))
        rep = gh_equivalence_check(st, 0.5)
        assert rep["vacuous"] and rep["passed"]

    @pytest.mark.parametrize("gamma", [0.0, 1.0, -0.5])
    def test_gamma_domain(self, gamma):
        with pytest.raises(ValueError, match="gamma must lie"):
            gh_equivalence_check(standard_state(ny=257), gamma)


class TestMultiplierConvexity:
    def test_single_modes_exact_at_zero_radius(self):
        f = fft_modes(32, [(2, 0.7 + 0.0j)])
        g = fft_modes(32, [(3, 0.4 + 0.0j)])
        rep = multiplier_convexity_check(f, g, 0.0)
        assert rep["passed"] and not rep["vacuous"]
        assert rep["max_excess"] <= 0.0

    def test_positive_radius_strictly_dominated(self):
        f = fft_modes(64, [(1, 0.5), (2, 0.25)])
        g = fft_modes(64, [(1, 0.3)])
        rep = multiplier_convexity_check(f, g, 0.3)
        assert rep["passed"]
        assert rep["max_excess"] <= 0.0
        # shells fed by opposite-sign frequency pairs are strictly below
        # the bound; the top shell (same signs only) stays exactly tight
        assert any(s["lhs"] < s["rhs"] for s in rep["shells"])
        assert any(s["lhs"] == s["rhs"] for s in rep["shells"])

    @pytest.mark.parametrize("r", [0.05, 0.2])
    def test_random_pairs_never_fail(self, r):
        rng = np.random.default_rng(int(r * 1000))
        for _ in range(40):
            n = 64
            f = np.zeros(n, complex)
            g = np.zeros(n, complex)
            live = rng.integers(1, n // 4, size=4)
            f[live] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            live = rng.integers(1, n // 4, size=4)
            g[live] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            rep = multiplier_convexity_check(f, g, r)
            assert rep["passed"], rep
        assert not rep["vacuous"]

    def test_zero_inputs_vacuous(self):
        z = np.zeros(16, complex)
        rep = multiplier_convexity_check(z, z, 0.1)
        assert rep["vacuous"] and rep["passed"]

    def test_negative_radius_rejected(self):
        z = np.zeros(16, complex)
        with pytest.raises(ValueError, match="nonnegative"):
            multiplier_convexity_check(z, z, -0.1)


class TestFits:
    def test_exact_power_law(self):
        t = np.linspace(0.0, 100.0, 400)
        v = 3.0 * (1.0 + t) ** -0.75
        slope, err = fit_loglog(t, v, (10.0, 100.0))
        assert slope == pytest.approx(-0.75, abs=1e-6)
        assert err < 1e-12

    def test_oscillatory_perturbation(self):
        # fast multiplicative wiggle in log time should not bias the slope
        t = np.linspace(0.0, 100.0, 400)
        v = 3.0 * (1.0 + t) ** -0.75
        v = v * (1.0 + 0.05 * np.sin(7.0 * np.log1p(t)))
        slope, err = fit_loglog(t, v, (10.0, 100.0))
        assert slope == pytest.approx(-0.75, abs=0.02)

    def test_constant_series(self):
        t = np.linspace(0.0, 50.0, 100)
        slope, err = fit_loglog(t, np.full(100, 2.5), (1.0, 50.0))
        assert abs(slope) < 1e-12

    def test_window_needs_samples(self):
        t = np.linspace(0.0, 100.0, 30)
        v = (1.0 + t) ** -1.0
        with pytest.raises(ValueError, match="at least 20 samples"):
            fit_loglog(t, v, (90.0, 100.0))

    def test_rejects_nonpositive_values(self):
        t = np.linspace(0.0, 100.0, 100)
        v = np.ones(100)
        v[50] = 0.0
        with pytest.raises(ValueError, match="must be positive"):
            fit_loglog(t, v, (0.0, 100.0))

    def test_fit_decay_reads_series_columns(self):
        s = NormSeries()
        for t in np.linspace(0.0, 40.0, 60):
            v = 2.0 * (1.0 + t) ** -1.25
            s.append(t=t, theta=0.0, radius=1.0, norm_ub=v, norm_gh=v,
                     norm_dy_gh=v, norm_phipsi=v, cl_dyub_sq=0.0,
                     theta_integral1=0.0)
        slope, _ = fit_decay(s, "norm_ub", (5.0, 40.0))
        assert slope == pytest.approx(-1.25, abs=1e-8)


def linear_series(t_end=100.0, n=201):
    s = NormSeries()
    for t in np.linspace(0.0, t_end, n):
        s.append(t=t, theta=t, radius=1.0, norm_ub=1.0, norm_gh=1.0,
                 norm_dy_gh=1.0, norm_phipsi=1.0, cl_dyub_sq=0.0,
                 theta_integral1=0.5 * t)
    return s


class TestThetaReport:
    def test_linear_budget_splits_in_half(self):
        rep = theta_report(linear_series())
        assert rep["t_split"] == 50.0
        assert rep["tail_fraction"] == pytest.approx(0.5, rel=1e-12)
        assert rep["integral1_tail_fraction"] == pytest.approx(0.5, rel=1e-12)
        assert rep["theta_final"] == 100.0

    def test_custom_split(self):
        rep = theta_report(linear_series(), t_split=90.0)
        assert rep["tail_fraction"] == pytest.approx(0.1, rel=1e-12)

    def test_zero_budget(self):
        s = NormSeries()
        for t in (0.0, 1.0, 2.0):
            s.append(t=t, theta=0.0, radius=1.0, norm_ub=0.0, norm_gh=0.0,
                     norm_dy_gh=0.0, norm_phipsi=0.0, cl_dyub_sq=0.0,
                     theta_integral1=0.0)
        rep = theta_report(s)
        assert rep["tail_fraction"] == 0.0
        assert rep["integral1_tail_fraction"] == 0.0
