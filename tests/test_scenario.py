"""Tests for problem setup: parameters, the wall cutoff family, far-field
flows, patching sources, and the standard initial data.

The cutoff family is cross-checked against finite differences of its own
samples; initial data are compared with their closed forms.
"""

import math

import numpy as np
import pytest
from scipy import integrate as sp_integrate

from mhdbl.grid import Field, GridSpec, column_flux, ddy, integrate_y_tail
from mhdbl.scenario import (
    Cutoff,
    FarField,
    Params,
    _bump_mass,
    _slope_jet,
    build_cutoff,
    cutoff_slope,
    cutoff_value,
    default_x_profile,
    flux_projection_profiles,
    initial_data_standard,
    project_zero_flux,
    source_terms,
    weight_branches,
)


def make_grid(nx=32, ny=512, ymax=16.0):
    return GridSpec(lx=2.0 * np.pi, nx=nx, ymax=ymax, ny=ny)


def profile_rows(grid):
    """(a, a') of default_x_profile on the x nodes, summed from its stored
    modes with numpy's cos and sin: a mode j >= 1 and its mirror make
    2 c_j cos(xi_j x)."""
    c = default_x_profile(grid)[1:].real
    x = np.arange(grid.nx) * (grid.lx / grid.nx)
    arg = np.outer(grid.xi[1:], x)
    return 2.0 * c @ np.cos(arg), -2.0 * (grid.xi[1:] * c) @ np.sin(arg)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError, match="kappa"):
            Params(kappa=0.0, epsilon=1e-3)
        with pytest.raises(ValueError, match="epsilon"):
            Params(kappa=1.0, epsilon=0.0)
        with pytest.raises(ValueError, match=r"^params\.lam must be positive "
                           r"and finite, got -1\.0$"):
            Params(kappa=1.0, epsilon=1e-3, lam=-1.0)
        with pytest.raises(ValueError, match=r"^params\.nu_u must be "
                           r"positive and finite, got -0\.5$"):
            Params(kappa=1.0, epsilon=1e-3, nu_u=-0.5)
        # finite, but the energy audit's kappa^2 overflows a double; an
        # int kappa, which Python would square exactly, too
        for kappa in (1e160, 10 ** 200):
            with pytest.raises(ValueError) as exc:
                Params(kappa=kappa, epsilon=1e-3)
            assert str(exc.value) == (f"params.kappa={kappa!r} is too large: "
                                      "the energy audit squares it")

    @pytest.mark.parametrize("name", ["kappa", "epsilon", "delta", "lam",
                                      "nu_u", "nu_b"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan"), True,
                                       10 ** 400])
    def test_non_finite_values_rejected(self, name, value):
        """Non-finite values, bools, which are no numbers here, and an int
        that no double can hold."""
        kw = {"kappa": 1.0, "epsilon": 1e-3, name: value}
        with pytest.raises(ValueError) as exc:
            Params(**kw)
        assert str(exc.value) == (f"params.{name} must be positive and "
                                  f"finite, got {value!r}")

    def test_background_field_switch(self):
        assert Params(kappa=1.0, epsilon=1e-3).bbar == 1.0
        assert Params(kappa=1.5, epsilon=1e-3).bbar == 0.0
        assert Params(kappa=0.9, epsilon=1e-3).bbar == 0.0


class TestDerivedExponents:
    """The decay-rate gains of weight_branches, with each branch's alpha."""

    def test_unit_ratio(self):
        d = weight_branches(1.0)
        assert d["unit"] == pytest.approx((1.0, 0.25))
        assert d["kappa"] == pytest.approx((1.0, 0.25))

    def test_three_halves(self):
        d = weight_branches(1.5)
        assert d["kappa"] == pytest.approx((1.0 / 1.5, 2.0 / 9.0))
        assert d["unit"] == pytest.approx((1.0, 1.5 * 0.5 / 4.0))

    def test_boundaries(self):
        # each branch is absent outside its domain, the bounds excluded
        assert list(weight_branches(2.0)) == ["kappa"]
        assert list(weight_branches(3.0)) == ["kappa"]
        assert list(weight_branches(0.5)) == ["unit"]
        assert list(weight_branches(0.4)) == ["unit"]
        assert weight_branches(0.4)["unit"][1] == pytest.approx(0.16)

    def test_range(self):
        for k in (0.3, 0.8, 1.0, 1.3, 1.9):
            for _, gain in weight_branches(k).values():
                assert 0.0 < gain <= 0.25


class TestCutoff:
    def test_slope_outside_transition(self):
        y = np.array([0.0, 0.5, 1.0, 2.0, 3.0, 10.0])
        s = cutoff_slope(y)
        assert np.all(s[:3] == 0.0)
        assert s[3] == pytest.approx(1.0, abs=1e-12)
        assert s[4] == pytest.approx(1.0, abs=1e-12)

    def test_slope_mass_is_two(self):
        val, err = sp_integrate.quad(lambda s: float(cutoff_slope(s)), 1.0,
                                     2.0, epsabs=1e-12, limit=200)
        assert abs(val - 2.0) < 1e-10

    def test_value_anchors(self):
        y = np.array([0.0, 1.0, 2.0, 5.0])
        v = cutoff_value(y)
        assert v[0] == 0.0 and v[1] == 0.0
        assert v[2] == pytest.approx(2.0, abs=1e-10)
        assert v[3] == 5.0

    def test_value_monotone_in_transition(self):
        y = np.linspace(1.0, 2.0, 21)
        v = cutoff_value(y)
        assert np.all(np.diff(v) >= 0.0)

    def test_slope_matches_value_by_finite_differences(self):
        ys = np.array([1.2, 1.4, 1.6, 1.8])
        h = 1e-4
        for y0 in ys:
            fd = (cutoff_value(y0 + h)[0] - cutoff_value(y0 - h)[0]) / (2 * h)
            assert fd == pytest.approx(float(cutoff_slope(y0)), abs=1e-6)

    def test_derivative_chain_by_finite_differences(self):
        y = np.linspace(1.05, 1.95, 41)
        h = 1e-5
        _, d1, d2 = _slope_jet(y)
        fd1 = (cutoff_slope(y + h) - cutoff_slope(y - h)) / (2 * h)
        assert np.max(np.abs(fd1 - d1)) < 1e-4 * (
            1.0 + np.max(np.abs(fd1)))
        fd2 = (_slope_jet(y + h)[1] - _slope_jet(y - h)[1]) / (2 * h)
        assert np.max(np.abs(fd2 - d2)) < 1e-4 * (
            1.0 + np.max(np.abs(fd2)))

    def test_slope_jet_matches_closed_forms(self):
        """On the far-field benchmark grid's transition zone the jet is
        the step's quotient-rule derivatives plus c times the bump's closed
        forms: beta = e^{-1/p}, p = s(1-s), beta' = beta (1-2s)/p^2 and
        beta'' = beta ((1-2s)^2/p^4 - 2/p^2 - 2(1-2s)^2/p^3)."""
        g = GridSpec(lx=2.0 * np.pi, nx=64, ymax=26.0, ny=768)
        y = g.y[(g.y > 1.0) & (g.y < 2.0)]
        s = y - 1.0
        p, dp = s * (1.0 - s), 1.0 - 2.0 * s
        beta = np.exp(-1.0 / p)
        beta1 = beta * dp / p ** 2
        beta2 = beta * (dp ** 2 / p ** 4 - 2.0 / p ** 2 - 2.0 * dp ** 2 / p ** 3)
        # the step ga/(ga + gb), ga = e^{-1/s}, gb = e^{-1/(1-s)}
        r = 1.0 - s
        ga, gb = np.exp(-1.0 / s), np.exp(-1.0 / r)
        ga1, gb1 = ga / s ** 2, -gb / r ** 2
        ga2 = ga * (1.0 / s ** 4 - 2.0 / s ** 3)
        gb2 = gb * (1.0 / r ** 4 - 2.0 / r ** 3)
        den = ga + gb
        w = ga1 * gb - ga * gb1
        step1 = w / den ** 2
        step2 = ((ga2 * gb - ga * gb2) * den
                 - 2.0 * w * (ga1 + gb1)) / den ** 3
        c = 1.5 / _bump_mass()
        want = (ga / den + c * beta, step1 + c * beta1, step2 + c * beta2)
        for got, ref in zip(_slope_jet(y), want):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_value_matches_adaptive_quadrature(self):
        """On the far-field benchmark grid every transition-zone node
        agrees with an adaptive quadrature of the slope from y = 1."""
        g = GridSpec(lx=2.0 * np.pi, nx=64, ymax=26.0, ny=768)
        zone = (g.y > 1.0) & (g.y < 2.0)
        for yk, vk in zip(g.y[zone], build_cutoff(g).chi[zone]):
            ref, _ = sp_integrate.quad(lambda s: float(cutoff_slope(s)), 1.0,
                                       yk, epsabs=1e-13, epsrel=1e-12,
                                       limit=200)
            assert abs(vk - ref) < 1e-13

    def test_bump_mass_matches_adaptive_quadrature(self):
        ref, _ = sp_integrate.quad(
            lambda y: math.exp(-1.0 / ((y - 1.0) * (2.0 - y))), 1.0, 2.0,
            epsabs=1e-14, epsrel=1e-13, limit=200)
        assert abs(_bump_mass() - ref) < 1e-15 * ref

    def test_value_does_not_depend_on_order_or_companions(self):
        """Shuffled points and points passed one at a time get the values
        of the sorted array, bit for bit."""
        y = make_grid(ny=769, ymax=26.0).y[:80]
        v = cutoff_value(y)
        perm = np.random.default_rng(3).permutation(y.size)
        assert np.array_equal(cutoff_value(y[perm]), v[perm])
        for k in np.nonzero((y > 0.9) & (y < 2.1))[0]:
            assert np.array_equal(cutoff_value(y[k]), v[k:k + 1])
            assert np.array_equal(cutoff_value(float(y[k])), v[k:k + 1])

    def test_build_requires_resolved_transition(self):
        coarse = GridSpec(lx=2.0 * np.pi, nx=8, ymax=26.0, ny=64)
        with pytest.raises(ValueError, match="transition zone"):
            build_cutoff(coarse)

    def test_build_samples_whole_family(self):
        g = make_grid(ny=512, ymax=16.0)
        c = build_cutoff(g)
        assert isinstance(c, Cutoff)
        above = g.y >= 2.0
        # from the zone's top up, chi' = 1 and chi'' = chi''' = 0 exactly
        assert c.rows == np.count_nonzero(~above) and above[c.rows]
        assert np.all(c.dchi[c.rows:] == 1.0)
        assert not np.any(c.d2chi[c.rows:]) and not np.any(c.d3chi[c.rows:])
        assert np.max(np.abs(c.chi[above] - g.y[above])) < 1e-9
        assert np.max(np.abs(c.dchi[above] - 1.0)) < 1e-12
        assert np.max(np.abs(c.d2chi[above])) < 1e-12
        assert np.max(np.abs(c.d3chi[above])) < 1e-12
        below = g.y <= 1.0
        assert np.all(c.chi[below] == 0.0)
        assert np.all(c.dchi[below] == 0.0)


class TestFarField:
    def test_cutoff_sampled_on_first_use(self):
        """A far field carries the cutoff of its own grid, built once and
        only when asked for, so an unresolving grid fails there."""
        g = make_grid()
        ff = FarField(g, 0.01, 2.5)
        assert "cutoff" not in vars(ff)
        ref = build_cutoff(g)
        assert np.array_equal(ff.cutoff.chi, ref.chi)
        assert np.array_equal(ff.cutoff.d3chi, ref.d3chi)
        assert ff.cutoff is ff.cutoff
        coarse = GridSpec(lx=2.0 * np.pi, nx=32, ymax=26.0, ny=64)
        ff = FarField(coarse, 0.01, 2.5)
        with pytest.raises(ValueError, match="transition zone"):
            ff.cutoff

    def test_decaying_validates_arguments(self):
        g = make_grid()
        with pytest.raises(ValueError, match="alpha"):
            FarField(g, 0.01, 0.0)
        for eps in (-1.0, float("nan"), True, 10 ** 400):
            with pytest.raises(ValueError, match=r"^scenario\.ff_eps must be "
                               r"finite and >= 0, got "):
                FarField(g, eps, 2.5)
        for eps in (1e160, 10 ** 200):
            with pytest.raises(ValueError) as exc:
                FarField(g, eps, 2.5)
            assert str(exc.value) == (f"scenario.ff_eps={eps!r} is too "
                                      "large: U d_x U squares it")

    def test_decaying_amplitude_law(self):
        """U's modes are eps <t>^{-alpha} times default_x_profile's
        e^{-xi^2}, with a zero mean."""
        g = make_grid()
        ff = FarField(g, 0.02, 2.5)
        u0 = ff.u_spec(0.0)
        u3 = ff.u_spec(3.0)
        assert np.max(np.abs(u3 - u0 * 4.0**-2.5)) < 1e-15
        assert u0[0] == 0.0
        assert np.max(np.abs(u0[1:] - 0.02 * np.exp(-g.xi[1:] ** 2))) < 1e-17
        # time derivative matches the closed form
        dt = ff.dt_u_spec(2.0)
        assert np.max(np.abs(dt + 2.5 * ff.u_spec(2.0) / 3.0)) < 1e-16

    def test_physical_rows_match_the_profile(self):
        """U and d_x U at t = 1 against the profile summed with cos and
        sin, and U d_x U's modes against the discrete Fourier sum
        (1/nx) sum_x U d_x U e^{-i xi x} over the nodes."""
        g = make_grid()
        ff = FarField(g, 0.02, 2.5)
        u, dxu = ff.physical_rows(1.0)
        a, da = profile_rows(g)
        amp = 0.02 * 2.0 ** -2.5
        assert np.max(np.abs(u - amp * a)) < 1e-16
        assert np.max(np.abs(dxu - amp * da)) < 1e-16
        prod = amp * a * amp * da
        x = np.arange(g.nx) * (g.lx / g.nx)
        ref = np.exp(-1j * np.outer(g.xi, x)) @ prod / g.nx
        adv = ff.advection_spec(1.0)
        assert np.max(np.abs(ref)) > 1e-6
        assert np.max(np.abs(adv - ref)) < 1e-20


class TestSourceTerms:
    def test_support_confined_to_cutoff_zone(self):
        g = make_grid(ny=512, ymax=16.0)
        ff = FarField(g, 0.01, 2.5)
        f_u = source_terms(ff, 0.5)
        above = g.y > 2.0 + 1e-9
        scale = np.max(np.abs(f_u.coeffs))
        assert scale > 0.0
        # formed on the rows below y = 2 only, and exactly 0 above them
        assert f_u.rows == ff.cutoff.rows == np.count_nonzero(g.y < 2.0)
        assert not np.any(f_u.coeffs[f_u.rows:])
        assert np.max(np.abs(f_u.coeffs[above])) < 1e-12 * scale
        # tail integrals vanish above the zone as well
        F_u = -integrate_y_tail(f_u).coeffs
        assert np.max(np.abs(F_u[above])) < 1e-12 * scale

    def test_tail_integral_sign_convention(self):
        g = make_grid(ny=512, ymax=16.0)
        ff = FarField(g, 0.01, 2.5)
        f_u = source_terms(ff, 0.5)
        # F_u = -int_y^ymax f_u, the tail integral eqs2_residual forms:
        # zero at the top, minus the column flux of f_u at the wall
        F_u = -integrate_y_tail(f_u).coeffs
        assert np.all(F_u[-1] == 0.0)
        flux = column_flux(f_u)
        assert np.max(np.abs(F_u[0] + flux)) < 1e-10 * np.max(np.abs(flux))

    def test_time_decay_of_sources(self):
        g = make_grid(ny=512, ymax=16.0)
        ff = FarField(g, 0.01, 2.5)
        f0 = source_terms(ff, 0.0)
        f9 = source_terms(ff, 9.0)
        assert np.max(np.abs(f9.coeffs)) < 0.01 * np.max(np.abs(f0.coeffs))


class TestInitialData:
    def test_closed_form_shapes(self):
        g = make_grid(nx=32, ny=1024, ymax=16.0)
        p = Params(kappa=1.0, epsilon=1e-3)
        u0, b0, rep = initial_data_standard(g, p)
        prof = default_x_profile(g)
        pu = (g.y - 0.5 * g.y**3) * np.exp(-0.5 * g.y**2)
        pb = (1.0 - g.y**2) * np.exp(-0.5 * g.y**2)
        eu = p.epsilon * np.outer(pu, prof)
        eb = p.epsilon * np.outer(pb, prof)
        scale = p.epsilon
        assert np.max(np.abs(u0.coeffs - eu)) < 1e-5 * scale
        assert np.max(np.abs(b0.coeffs - eb)) < 1e-5 * scale
        assert u0.bc == "dirichlet" and b0.bc == "neumann"

    def test_report_compatibility(self):
        g = make_grid(nx=32, ny=1024, ymax=16.0)
        p = Params(kappa=1.3, epsilon=1e-3)
        u0, b0, rep = initial_data_standard(g, p)
        assert rep["ok"]
        assert rep["wall_value_u"] == 0.0
        assert rep["flux_u"] < 1e-8 * p.epsilon
        assert rep["flux_b"] < 1e-8 * p.epsilon

    def test_wall_behaviour(self):
        g = make_grid(nx=32, ny=1024, ymax=16.0)
        p = Params(kappa=1.0, epsilon=1e-3)
        u0, b0, _ = initial_data_standard(g, p)
        assert np.all(u0.coeffs[0] == 0.0)
        # Neumann closure reports zero wall slope for the field component
        assert np.all(ddy(b0).coeffs[0] == 0.0)

    def test_antiderivative_wall_values_vanish(self):
        """Tail integrals of projected data vanish at the wall per mode."""
        g = make_grid(nx=32, ny=1024, ymax=16.0)
        p = Params(kappa=1.0, epsilon=1e-3)
        u0, b0, _ = initial_data_standard(g, p)
        phi0 = integrate_y_tail(u0)
        psi0 = integrate_y_tail(b0)
        assert np.max(np.abs(phi0.coeffs[0, 1:])) < 1e-12 * p.epsilon
        assert np.max(np.abs(psi0.coeffs[0, 1:])) < 1e-12 * p.epsilon

    def test_default_profile_is_zero_mean_analytic(self):
        g = make_grid(nx=64)
        spec = default_x_profile(g)
        assert spec[0] == 0.0
        assert spec[1] == pytest.approx(np.exp(-1.0), rel=1e-14)
        # a real even profile: real amplitudes, the mirror modes implied
        assert spec.shape == (g.nmodes,)
        assert np.all(spec.imag == 0.0)
        low = np.abs(np.rint(g.xi)) <= 8
        assert np.all(np.abs(spec[low & (np.abs(g.xi) > 0)]) > 0.0)

    def test_flux_shapes_have_unit_flux(self):
        g = make_grid(ny=256)
        su, sb = flux_projection_profiles(g)
        w = g.trapz_weights
        assert w @ su == pytest.approx(1.0, rel=1e-14)
        assert w @ sb == pytest.approx(1.0, rel=1e-14)
        assert su[0] == 0.0

    def test_projection_zeroes_nonzero_mode_flux(self):
        g = make_grid(nx=16, ny=256)
        rng = np.random.default_rng(13)
        coeffs = rng.standard_normal((g.ny, g.nmodes)) * np.exp(-g.y)[:, None]
        f = Field(g, coeffs.astype(complex), "dirichlet")
        su, _ = flux_projection_profiles(g)
        proj = project_zero_flux(f, su)
        flux = column_flux(proj)
        scale = np.max(np.abs(column_flux(f)))
        assert np.max(np.abs(flux[1:])) < 1e-14 * max(scale, 1.0)
        # DC column is untouched
        assert flux[0] == column_flux(f)[0]
        assert np.array_equal(proj.coeffs[:, 0], f.coeffs[:, 0])
