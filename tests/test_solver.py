"""Stepper and reconstruction tests.

Covers the kinematic recoveries (normal components, antiderivatives, the
damped combinations), the explicit tendency against an independently
written reference, theta bookkeeping, the IMEX step and its guards, the
audit helpers, the row window (windowed steps against full-grid ones and
against a grid cut above the data), the antiderivative-system residual
of the test oracle, the kappa rescaling map, checkpoint round trips, and
the simulate driver.
"""

import json
import math
import os
import re
import warnings
import zipfile
from dataclasses import FrozenInstanceError, fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.integrate import cumulative_trapezoid

from mhdbl.grid import (BC_DIRICHLET, BC_NEUMANN, Field, GridSpec,
                        TailViolationError, d2dy, ddy, integrate_y_from0,
                        integrate_y_tail, mode_power, x_transform)
from mhdbl.lp import (besov_pair_norm, build_partition, pair_shell_norms,
                      phi_shell)
from mhdbl.scenario import (
    FarField,
    Params,
    UnsupportedScenarioError,
    default_x_profile,
    flux_projection_profiles,
    initial_data_standard,
    project_zero_flux,
    weight_branches,
)
from mhdbl.solver import (
    CheckpointError,
    DivergenceError,
    NormSeries,
    State,
    TStarReachedError,
    _choose_dt,
    _cn_matrix,
    _cn_solve,
    cn_factors,
    flux_drift,
    heat_energy_slack,
    kappa_rescale_map,
    load_checkpoint,
    make_state,
    recommended_ymax,
    reconstruct_phipsi,
    recover_vh,
    rhs_explicit,
    save_checkpoint,
    simulate,
    solve_banded,
    step_imex,
    tail_guard_check,
    theta_components,
)
from oracles import eqs2_residual


def make_grid(nx=32, ny=513, ymax=16.0, dealias_fraction=2.0 / 3.0):
    return GridSpec(lx=2.0 * np.pi, nx=nx, ymax=ymax, ny=ny,
                    dealias_fraction=dealias_fraction)


def single_mode_field(grid, shape, bc, mode=1, amp=0.5):
    """Real cosine in x times a y profile: amp at modes +-mode (the stored
    mode +mode, 0 < mode < nx/2)."""
    spec = np.zeros(grid.nmodes, complex)
    spec[mode] = amp
    return Field.from_profiles(grid, spec, shape, bc)


def heat_exact(y, t):
    s = 1.0 + 2.0 * t
    return s ** -1.5 * y * np.exp(-y ** 2 / (2.0 * s))


def heat_setup(ny=512, ymax=18.0):
    g = GridSpec(lx=2.0 * np.pi, nx=8, ymax=ymax, ny=ny)
    p = Params(kappa=1.0, epsilon=1e-3)
    spec = np.zeros(g.nmodes, complex)
    spec[0] = 1.0
    u0 = Field.from_profiles(g, spec, heat_exact(g.y, 0.0), BC_DIRICHLET)
    b0 = Field.zeros(g, BC_NEUMANN)
    return g, p, u0, b0


class TestReconstructions:
    def test_recover_vh_closed_form(self):
        # u = cos(x) (y - y^3/2) e^{-y^2/2} integrates to (y^2/2) e^{-y^2/2},
        # so v = -d_x of that antiderivative = sin(x) (y^2/2) e^{-y^2/2}.
        # (v, h) are written into the n rows of `out`: on every row (h's
        # stored rows end below, so it is padded with the column flux) and
        # on fewer rows than v's antiderivative stores.
        g = make_grid(ny=1025)
        shape = (g.y - g.y ** 3 / 2.0) * np.exp(-g.y ** 2 / 2.0)
        u = single_mode_field(g, shape, BC_DIRICHLET)
        su, _ = flux_projection_profiles(g)
        u = project_zero_flux(u, su)
        p = Params(kappa=1.0, epsilon=1e-3)
        st = make_state(g, p, u, Field.zeros(g, BC_NEUMANN))
        assert len(st.phipsi[1].data) < 300 < len(st.phipsi[0].data)
        for n in (g.ny, 300):
            out = np.full((2, n, g.nmodes), np.nan, complex)
            assert recover_vh(st, out) is None
            for c, f in zip(out, (st.u, st.b)):
                ref = -(integrate_y_from0(f).coeffs * (1j * g.xi))
                assert np.array_equal(c, ref[:n])
            v, h = (Field(g, c) for c in out)
            X, Y = np.meshgrid(np.arange(g.nx) * (g.lx / g.nx), g.y[:n])
            v_exact = np.sin(X) * (Y ** 2 / 2.0) * np.exp(-Y ** 2 / 2.0)
            v_phys = x_transform(g, v.coeffs, "inverse")
            assert np.max(np.abs(v_phys[:n] - v_exact)) < 1e-4
            assert not np.any(h.coeffs)
            # wall rows are exact zeros by construction
            assert not np.any(v.coeffs[0])

    def test_antiderivatives_closed_form(self):
        g = make_grid(ny=1025)
        u_shape = (g.y - g.y ** 3 / 2.0) * np.exp(-g.y ** 2 / 2.0)
        b_shape = (1.0 - g.y ** 2) * np.exp(-g.y ** 2 / 2.0)
        u = single_mode_field(g, u_shape, BC_DIRICHLET)
        b = single_mode_field(g, b_shape, BC_NEUMANN)
        p = Params(kappa=1.0, epsilon=1e-3)
        phi, psi = reconstruct_phipsi(make_state(g, p, u, b))
        phi_exact = (g.y ** 2 / 2.0) * np.exp(-g.y ** 2 / 2.0)
        psi_exact = g.y * np.exp(-g.y ** 2 / 2.0)
        assert np.max(np.abs(phi.coeffs[:, 1].real - 0.5 * phi_exact)) < 1e-4
        assert np.max(np.abs(psi.coeffs[:, 1].real - 0.5 * psi_exact)) < 1e-4
        assert phi.bc == BC_DIRICHLET and psi.bc == BC_DIRICHLET
        # top value is an exact zero for both
        assert phi.coeffs[-1, 1] == 0.0 and psi.coeffs[-1, 1] == 0.0

    @pytest.mark.parametrize("kappa", [1.0, 1.5])
    def test_compute_gh_closed_form(self, kappa):
        g = make_grid(ny=1025)
        p = Params(kappa=kappa, epsilon=1e-3)
        u_shape = (g.y - g.y ** 3 / 2.0) * np.exp(-g.y ** 2 / 2.0)
        b_shape = (1.0 - g.y ** 2) * np.exp(-g.y ** 2 / 2.0)
        u = single_mode_field(g, u_shape, BC_DIRICHLET)
        b = single_mode_field(g, b_shape, BC_NEUMANN)
        st = make_state(g, p, u, b)
        G, H = st.gh_fields[2:4]
        env = np.exp(-g.y ** 2 / 2.0)
        g_exact = (g.y - g.y ** 3 / 4.0) * env
        h_exact = (1.0 - g.y ** 2 + g.y ** 2 / (2.0 * kappa)) * env
        assert np.max(np.abs(G.coeffs[:, 1].real - 0.5 * g_exact)) < 1e-4
        assert np.max(np.abs(H.coeffs[:, 1].real - 0.5 * h_exact)) < 1e-4
        assert G.bc == BC_DIRICHLET and H.bc == BC_NEUMANN

    def test_compute_gh_time_scaling(self):
        # the damping pair carries a 1/(2<t>) factor; check it at t = 3
        g = make_grid()
        p = Params(kappa=1.0, epsilon=1e-3)
        u = single_mode_field(g, (g.y - g.y ** 3 / 2.0) * np.exp(-g.y ** 2 / 2.0),
                              BC_DIRICHLET)
        b = Field.zeros(g, BC_NEUMANN)
        st0 = make_state(g, p, u, b)
        st3 = make_state(g, p, u, b)
        st3.t = 3.0
        G0 = st0.gh_fields[2]
        G3 = st3.gh_fields[2]
        phi, _ = reconstruct_phipsi(st0)
        corr0 = G0.coeffs - u.coeffs
        corr3 = G3.coeffs - u.coeffs
        # recovering the correction by subtracting u costs a few ulps of u
        assert np.allclose(corr3, corr0 / 4.0, rtol=1e-10, atol=1e-20)


def full_spectrum(c, nx):
    """All nx modes in FFT order from the stored non-negative ones (the
    modes above them are zero)."""
    half = np.zeros((c.shape[0], nx // 2 + 1), dtype=complex)
    half[:, :c.shape[1]] = c
    return np.concatenate([half, np.conj(half[:, nx // 2 - 1:0:-1])], axis=1)


def reference_tendency(grid, params, u, b):
    """Independent spelling of the explicit tendency with numpy's complex
    fft on all nx modes and hand-rolled difference closures; used to pin
    signs and wiring.  Returns the stored (non-negative) modes."""
    nx, ny, dy = grid.nx, grid.ny, grid.dy
    xi = np.fft.fftfreq(nx, d=grid.lx / nx) * 2.0 * np.pi
    uc = full_spectrum(u.coeffs, nx)
    bc = full_spectrum(b.coeffs, nx)

    def to_phys(c):
        return np.fft.ifft(c * nx, axis=1)

    def to_spec(a):
        return np.fft.fft(a, axis=1) / nx

    def dy_op(c, bc):
        out = np.zeros_like(c)
        out[1:-1] = (c[2:] - c[:-2]) / (2.0 * dy)
        out[0] = c[1] / dy if bc == BC_DIRICHLET else 0.0
        out[-1] = -c[-2] / dy
        return out

    # normal components from the from-zero integrals
    iu = np.vstack([np.zeros((1, nx)),
                    cumulative_trapezoid(uc, dx=dy, axis=0)])
    ib = np.vstack([np.zeros((1, nx)),
                    cumulative_trapezoid(bc, dx=dy, axis=0)])
    v = -(1j * xi) * iu
    h = -(1j * xi) * ib

    up, bp = to_phys(uc), to_phys(bc)
    vp, hp = to_phys(v), to_phys(h)
    duxp, dbxp = to_phys((1j * xi) * uc), to_phys((1j * xi) * bc)
    duyp = to_phys(dy_op(uc, u.bc))
    dbyp = to_phys(dy_op(bc, b.bc))

    nl_u = up * duxp - bp * dbxp + vp * duyp - hp * dbyp
    nl_b = up * dbxp - bp * duxp + vp * dbyp - hp * duyp
    ru = -to_spec(nl_u)
    rb = -to_spec(nl_b)
    mask = np.abs(np.fft.fftfreq(nx) * nx) <= grid.dealias_fraction * nx / 2
    ru[:, ~mask] = 0.0
    rb[:, ~mask] = 0.0
    ru += params.bbar * (1j * xi) * bc
    rb += params.bbar * (1j * xi) * uc
    return ru[:, :grid.nmodes], rb[:, :grid.nmodes]


class TestExplicitTendency:
    def test_zero_state_zero_tendency(self):
        g = make_grid()
        p = Params(kappa=1.0, epsilon=1e-3)
        st = make_state(g, p, Field.zeros(g, BC_DIRICHLET),
                        Field.zeros(g, BC_NEUMANN))
        ru, rb, _ = rhs_explicit(st)
        assert not np.any(ru.coeffs) and not np.any(rb.coeffs)

    def test_x_independent_state_decouples(self):
        # pure column data has no x derivatives and no normal flow, so the
        # whole explicit tendency vanishes identically, not just to roundoff
        g, p, u0, b0 = heat_setup(ny=128)
        st = make_state(g, p, u0, b0)
        ru, rb, _ = rhs_explicit(st)
        assert not np.any(ru.coeffs) and not np.any(rb.coeffs)

    @pytest.mark.parametrize("kappa", [1.0, 1.5])
    def test_matches_reference_spelling(self, kappa):
        # the 2/3 rule and the full band (every mode stored, none dropped)
        for frac in (2.0 / 3.0, 1.0):
            g = make_grid(dealias_fraction=frac)
            p = Params(kappa=kappa, epsilon=1e-3)
            u0, b0, _ = initial_data_standard(g, p)
            st = make_state(g, p, u0, b0)
            ru, rb, _ = rhs_explicit(st)
            ru_ref, rb_ref = reference_tendency(g, p, u0, b0)
            scale = max(np.max(np.abs(ru_ref)), np.max(np.abs(rb_ref)))
            assert np.max(np.abs(ru.coeffs - ru_ref)) < 1e-10 * scale
            assert np.max(np.abs(rb.coeffs - rb_ref)) < 1e-10 * scale

    @pytest.mark.parametrize("far", [False, True], ids=["trivial", "farfield"])
    def test_two_x_transforms_per_evaluation(self, monkeypatch, far):
        """All inverse transforms go in one batched call, the forward ones
        in another, on both branches.  The inverse gets the workspace's
        stack of the stored modes, which a step fills."""
        import mhdbl.grid
        g = make_grid(ny=257)
        p = Params(kappa=1.5, epsilon=1e-3)
        u0, b0, _ = initial_data_standard(g, p)
        ff = None
        if far:
            ff = FarField(g, 1e-2, 2.5)
        st = make_state(g, p, u0, b0)
        calls = []
        widths = []

        def counted(grid, values, direction):
            calls.append(direction)
            if direction == "inverse":
                widths.append(values.shape[-1])
            return transform(grid, values, direction)

        transform = mhdbl.grid.x_transform
        for mod in ("grid", "scenario", "solver"):
            monkeypatch.setattr(f"mhdbl.{mod}.x_transform", counted)
        ru, rb, _ = rhs_explicit(st, ff)
        assert sorted(calls) == ["forward", "inverse"]
        assert widths == [g.nmodes]
        assert np.max(np.abs(ru.coeffs)) > 0.0
        step_imex(st, 1e-3, ff)
        assert st.ws.factors.shape == (8, g.ny, g.nmodes)
        assert np.any(st.ws.factors)


class TestTheta:
    def test_zero_state_zero_rate(self):
        g = make_grid()
        p = Params(kappa=1.0, epsilon=1e-3)
        st = make_state(g, p, Field.zeros(g, BC_DIRICHLET),
                        Field.zeros(g, BC_NEUMANN))
        assert theta_components(st, None, st.radius) == (0.0, 0.0)

    def test_farfield_term_closed_form(self):
        """The far-field term eps^{-1/2} <t>^{5/4} sum_k 2^{k/2}
        ||Delta_k e^{r |D_x|} U||_{L2(0, lx)}, U = eps <t>^{-alpha} a(x),
        against shells of default_x_profile's a summed with numpy's cos
        under phi_shell, each squared over the x nodes (exact for their
        degree, below nx)."""
        g = make_grid()
        p = Params(kappa=1.5, epsilon=1e-3, branch="kappa")
        ff = FarField(g, p.epsilon, 2.5)
        st = make_state(g, p, Field.zeros(g, BC_DIRICHLET),
                        Field.zeros(g, BC_NEUMANN))
        st.t = 2.0
        r = st.radius
        tt = 1.0 + st.t
        xi = g.xi[1:]
        amp = (p.epsilon * tt ** -2.5 * default_x_profile(g)[1:].real
               * np.exp(r * xi))
        cos = np.cos(np.outer(xi, np.arange(g.nx) * (g.lx / g.nx)))
        expected = 0.0
        for k in range(-2, 6):      # every shell that meets xi = 1..10
            shell = 2.0 * (phi_shell(xi / 2.0 ** k) * amp) @ cos
            expected += 2.0 ** (0.5 * k) * math.sqrt(
                g.lx / g.nx * np.sum(shell ** 2))
        expected *= p.epsilon ** -0.5 * tt ** 1.25
        comp1, got = theta_components(st, ff, r)
        assert comp1 == 0.0
        assert got == pytest.approx(expected, rel=1e-12)

    def test_step_updates_theta_with_lagged_radius(self):
        g = make_grid()
        p = Params(kappa=1.0, epsilon=1e-3)
        u0, b0, _ = initial_data_standard(g, p)
        st0 = make_state(g, p, u0, b0)
        st1 = step_imex(st0, 1e-3)
        comp1, comp2 = theta_components(st1, None, st0.radius)
        rate = comp1 + comp2
        assert st1.theta == st0.theta + 1e-3 * rate
        # the post-step radius would give a different (smaller) rate
        assert sum(theta_components(st1, None, st1.radius)) < rate


class TestStepper:
    def test_zero_data_stays_exactly_zero(self):
        g = make_grid(ny=129)
        p = Params(kappa=1.0, epsilon=1e-3)
        st = make_state(g, p, Field.zeros(g, BC_DIRICHLET),
                        Field.zeros(g, BC_NEUMANN))
        for _ in range(4):
            st = step_imex(st, 1e-2)
        assert not np.any(st.u.coeffs)
        assert not np.any(st.b.coeffs)
        assert st.theta == 0.0

    def test_flux_projection_holds_per_step(self):
        g = make_grid()
        p = Params(kappa=1.0, epsilon=1e-3)
        u0, b0, _ = initial_data_standard(g, p)
        st = make_state(g, p, u0, b0)
        for _ in range(5):
            st = step_imex(st, 1e-3)
        assert flux_drift(st.u, st.b) < 1e-15

    def test_determinism(self):
        g = make_grid()
        p = Params(kappa=1.0, epsilon=1e-3)
        u0, b0, _ = initial_data_standard(g, p)

        def run():
            st = make_state(g, p, u0, b0)
            for _ in range(6):
                st = step_imex(st, 1e-3)
            return st

        a, b = run(), run()
        assert np.array_equal(a.u.coeffs, b.u.coeffs)
        assert np.array_equal(a.b.coeffs, b.b.coeffs)
        assert a.theta == b.theta

    def test_exhausted_band_refuses_to_step(self):
        g = make_grid()
        p = Params(kappa=1.0, epsilon=1e-3)
        u0, b0, _ = initial_data_standard(g, p)
        st = make_state(g, p, u0, b0)
        st.theta = p.delta / p.lam    # radius exactly zero
        with pytest.raises(TStarReachedError, match="band exhausted"):
            step_imex(st, 1e-3)

    def test_runaway_velocity_aborts(self):
        # a velocity scale this large drives the CFL subdivision below any
        # sane step; simulate reports it as a divergence, with its message
        g = make_grid()
        p = Params(kappa=1.0, epsilon=1e-3)
        shape = 1e12 * (g.y - g.y ** 3 / 2.0) * np.exp(-g.y ** 2 / 2.0)
        u0 = project_zero_flux(single_mode_field(g, shape, BC_DIRICHLET),
                               flux_projection_profiles(g)[0])
        res = simulate(make_state(g, p, u0, Field.zeros(g, BC_NEUMANN)),
                       t_final=1.0)
        assert res.reason == "divergence"
        assert res.message == "CFL limit collapsed; velocities diverged"

    def test_step_reports_field_max(self):
        """The step's blow-up guard names max |u|, |b| of the new fields
        and the state's limit.  The step is a multistep one: a start-up
        step meets the limit at its midpoint first."""
        g = make_grid()
        p = Params(kappa=1.0, epsilon=1e-3)
        u0, b0, _ = initial_data_standard(g, p)
        st = step_imex(make_state(g, p, u0, b0), 1e-3)
        new = step_imex(st, 1e-3)
        m = max(np.max(np.abs(new.u.coeffs)), np.max(np.abs(new.b.coeffs)))
        st.blow_limit = 0.5 * m
        with pytest.raises(DivergenceError,
                           match=re.escape(f"field magnitude {m:.3e} "
                                           f"exceeds {0.5 * m:.3e}")):
            step_imex(st, 1e-3)

    def test_blowup_guard_reads_the_step_max(self):
        """simulate ends a step past the state's blow-up limit as a
        divergence and returns the last state within it."""
        g = make_grid()
        p = Params(kappa=1.0, epsilon=1e-3)
        u0, b0, _ = initial_data_standard(g, p)
        st = make_state(g, p, u0, b0)
        assert st.blow_limit == 1e6 * (max(np.max(np.abs(u0.coeffs)),
                                           np.max(np.abs(b0.coeffs))) + 1.0)
        st.blow_limit = 1e-300
        res = simulate(st, t_final=0.01)
        assert res.reason == "divergence"
        assert re.fullmatch(r"field magnitude \S+ exceeds 1\.000e-300",
                            res.message)
        assert res.state.step_index == 0

    @pytest.mark.parametrize("field", ["prev_ru", "prev_rb"])
    def test_non_finite_tendency_is_divergence(self, field):
        """A NaN in the multistep history reaches the step's finiteness
        check (u and b alike) and ends as a divergence, not ValueError."""
        g = make_grid()
        p = Params(kappa=1.0, epsilon=1e-3)
        u0, b0, _ = initial_data_standard(g, p)
        st = step_imex(make_state(g, p, u0, b0), 1e-3)
        hist = getattr(st, field).coeffs.copy()
        hist[40, 0] = np.nan
        setattr(st, field, Field(g, hist))
        with pytest.raises(DivergenceError, match="non-finite fields"):
            step_imex(st, 1e-3)

    def test_state_sums_each_field_from_the_top_once(self, monkeypatch):
        """One (phi, psi) per state, the state's phipsi, feeds (v, h) in
        the RHS and gh_fields: one integral from the top per field, with
        the same bits as the integrals computed on their own."""
        import mhdbl.grid
        import mhdbl.solver
        g = make_grid()
        p = Params(kappa=1.0, epsilon=1e-3)
        u0, b0, _ = initial_data_standard(g, p)
        st = make_state(g, p, u0, b0)
        calls = []
        real = mhdbl.grid.integrate_y_tail
        for mod in (mhdbl.grid, mhdbl.solver):
            # the grid's binding counts integrate_y_from0's calls too
            monkeypatch.setattr(mod, "integrate_y_tail",
                                lambda f: calls.append(f) or real(f))
        phi, psi, *_ = st.gh_fields
        rhs_explicit(st)
        assert calls == [st.u, st.b]
        assert st.phipsi[0] is phi and st.phipsi[1] is psi
        vh = np.empty((2, g.ny, g.nmodes), complex)
        recover_vh(st, vh)
        v, h = (Field(g, c) for c in vh)
        v0, h0 = (integrate_y_from0(f).coeffs * (1j * g.xi)
                  for f in (st.u, st.b))
        phi0, psi0 = (integrate_y_tail(f).coeffs for f in (st.u, st.b))
        for x, y in ((v, v0), (h, h0), (phi, phi0), (psi, psi0)):
            assert np.array_equal(x.coeffs, -y)

    def test_one_workspace_per_lineage(self, monkeypatch):
        """Every state of a run shares the first state's workspace: five
        steps build the partition once and one CN factorization per
        (nu, bc).  A state built directly gets a workspace of its own,
        and dataclasses.replace passes it on."""
        import mhdbl.solver
        g = make_grid(ny=129)
        p = Params(kappa=1.5, epsilon=1e-3)
        u0, b0, _ = initial_data_standard(g, p)
        calls = {"build_partition": [], "cn_factors": []}
        for name, seen in calls.items():
            real = getattr(mhdbl.solver, name)
            monkeypatch.setattr(
                mhdbl.solver, name,
                lambda *a, real=real, seen=seen: seen.append(a) or real(*a))
        lineage = [make_state(g, p, u0, b0)]
        for _ in range(5):
            lineage.append(step_imex(lineage[-1], 1e-3))
        assert len(calls["build_partition"]) == 1
        # (nu_u = 1, Dirichlet) and (nu_b = kappa, Neumann)
        assert len(calls["cn_factors"]) == 2
        first = lineage[0].ws
        assert all(st.ws is first for st in lineage)
        direct = State(g, p, 0.0, u0, b0)
        assert direct.ws is not first
        assert len(direct.cl_integrals) == direct.ws.part.n_shells
        assert replace(direct, t=1.0).ws is direct.ws

    def test_replace_rebuilds_a_workspace_built_for_other_values(self):
        """dataclasses.replace passes the workspace on only while the grid
        and params it was built for stay: params of the other weight
        branch, or of another lam, get a workspace of their own."""
        g = make_grid(ny=129)
        p = Params(kappa=1.5, epsilon=1e-3, branch="unit")
        u0, b0, _ = initial_data_standard(g, p)
        st = make_state(g, p, u0, b0)
        other = replace(st, params=replace(p, branch="kappa"))
        assert other.ws is not st.ws
        assert (other.params.weight_alpha, other.params.weight_gain) == \
            weight_branches(1.5)["kappa"]
        assert replace(st, params=replace(p, lam=5.0)).ws is not st.ws
        assert replace(st, t=1.0).ws is st.ws

    def test_manufactured_heat_accuracy(self):
        g, p, u0, b0 = heat_setup()
        st = make_state(g, p, u0, b0)
        dt = 1e-3
        for _ in range(1000):
            st = step_imex(st, dt)
        err = np.max(np.abs(st.u.coeffs[:, 0].real - heat_exact(g.y, st.t)))
        assert err < 1e-4
        assert not np.any(st.b.coeffs)

    def test_heat_dt_refinement_is_second_order(self):
        # against the exact solution the spatial floor dominates, so the
        # time order is read off pairwise differences on a shared grid
        g, p, u0, b0 = heat_setup()

        def final(dt):
            st = make_state(g, p, u0, b0)
            for _ in range(round(0.25 / dt)):
                st = step_imex(st, dt)
            return st.u.coeffs[:, 0].real

        # each dt divides the horizon exactly, so all runs land on t = 0.25
        a, b, c = final(5e-3), final(2.5e-3), final(1.25e-3)
        ratio = np.max(np.abs(a - b)) / np.max(np.abs(b - c))
        assert 3.5 < ratio < 4.5

    def test_choose_dt_quantization(self):
        g = make_grid()
        assert _choose_dt(g, 1e-2, 0.4, 0.0) == 1e-2
        # umax small enough that the CFL bound does not bind
        assert _choose_dt(g, 1e-2, 0.4, 1.0) == 1e-2
        # binding bound: halved until below cfl*dx/umax ~ 7.85e-3
        assert _choose_dt(g, 1e-2, 0.4, 10.0) == 5e-3
        assert _choose_dt(g, 1e-2, 0.4, 20.0) == 2.5e-3
        with pytest.raises(DivergenceError, match="CFL limit collapsed"):
            _choose_dt(g, 1e-2, 0.4, 1e12)

    def test_norm_series_validation(self):
        s = NormSeries()
        kw = dict(theta=0.0, radius=1.0, norm_ub=0.0, norm_gh=0.0,
                  norm_dy_gh=0.0, norm_phipsi=0.0, cl_dyub_sq=0.0,
                  theta_integral1=0.0)
        s.append(t=0.0, **kw)
        s.append(t=0.5, **kw)
        with pytest.raises(ValueError, match="strictly increasing"):
            s.append(t=0.5, **kw)
        with pytest.raises(ValueError, match="non-finite"):
            s.append(t=1.0, theta=np.nan, radius=1.0, norm_ub=0.0,
                     norm_gh=0.0, norm_dy_gh=0.0, norm_phipsi=0.0,
                     cl_dyub_sq=0.0, theta_integral1=0.0)
        assert s.column("t").tolist() == [0.0, 0.5]


def dense_cn(sub, diag, sup):
    return np.diag(diag) + np.diag(sup, 1) + np.diag(sub, -1)


def spike_every_block(factors, b):
    """The spike solve of b, all n rows, with every block live: the block
    products, the interface solve and both corrections over all blocks."""
    inv = factors.inv_blocks
    nb, m, _ = inv.shape
    flat = np.ascontiguousarray(b).view(np.float64)
    cols = flat.shape[1]
    rows = np.zeros((nb * m, cols))
    rows[:len(flat)] = flat
    x = inv @ rows.reshape(nb, m, cols)
    ends = factors.inv_interface @ x[:, [0, -1]].reshape(2 * nb, cols)
    ends = ends.reshape(nb, 2, cols)
    x[:-1] -= factors.up[:-1, :, None] * ends[1:, None, 0]
    x[1:] -= factors.down[1:, :, None] * ends[:-1, None, 1]
    return x.reshape(nb * m, cols)[:factors.n].view(b.dtype)


def thomas_longdouble(sub, diag, sup, rhs):
    """Reference tridiagonal solve of one real column in long double."""
    n = len(diag)
    d, up, lo = (np.asarray(v, np.longdouble) for v in (diag, sup, sub))
    rhs = np.asarray(rhs, np.longdouble)
    cp = np.zeros(n, np.longdouble)
    dp = np.zeros(n, np.longdouble)
    for i in range(n):
        den = d[i] - (lo[i - 1] * cp[i - 1] if i else 0)
        if i < n - 1:
            cp[i] = up[i] / den
        dp[i] = (rhs[i] - (lo[i - 1] * dp[i - 1] if i else 0)) / den
    x = dp.copy()
    for i in range(n - 2, -1, -1):
        x[i] -= cp[i] * x[i + 1]
    return x


# ny against the solve's 32-row blocks: inside one block (16, 17), 3
# blocks and 4 rows (100), 24 blocks and 1 row (769)
CN_GRIDS = [(16, 5.0), (17, 5.0), (100, 24.0), (769, 181.0)]


class TestCNSolve:
    @pytest.mark.parametrize("ny, ymax", CN_GRIDS)
    @pytest.mark.parametrize("nu", [1.0, 1.5])
    @pytest.mark.parametrize("bc", [BC_DIRICHLET, BC_NEUMANN])
    def test_matches_dense_solve(self, ny, ymax, nu, bc):
        g = make_grid(ny=ny, ymax=ymax)
        tri = _cn_matrix(ny, g.dy, nu, 1e-2, bc)
        rng = np.random.default_rng(ny)
        rhs = (rng.standard_normal((ny, g.nmodes))
               + 1j * rng.standard_normal((ny, g.nmodes)))
        fac = cn_factors(*tri)
        # and the same b with zeros from row ny // 3 up, all-zero blocks at
        # the top as on a tall grid
        top = rhs.copy()
        top[ny // 3:] = 0.0
        for b in (rhs, top):
            ref = np.linalg.solve(dense_cn(*tri), b)
            got = solve_banded(fac, b=b)
            assert got.shape == b.shape and got.dtype == b.dtype
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
            real = solve_banded(fac, b=b.real)
            assert real.dtype == np.float64
            assert np.max(np.abs(real - ref.real)) \
                <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("ny, ymax", CN_GRIDS)
    @pytest.mark.parametrize("nu", [1.0, 1.5])
    @pytest.mark.parametrize("bc", [BC_DIRICHLET, BC_NEUMANN])
    def test_gaussian_tail_rows_keep_relative_accuracy(self, ny, ymax, nu,
                                                       bc):
        """The solved tails later meet exp(y^2/8<t>) weights, so every row
        down to 1e-250 must be accurate relative to itself, not to the
        peak."""
        g = make_grid(ny=ny, ymax=ymax)
        tri = _cn_matrix(ny, g.dy, nu, 1e-2, bc)
        amp = np.array([1.0, -0.3 + 0.7j, 2e-3j])
        rhs = np.exp(-g.y ** 2 / 4.0)[:, None] * amp
        if bc == BC_DIRICHLET:
            rhs[0] = 0.0
        rhs[-1] = 0.0
        got = solve_banded(cn_factors(*tri), b=rhs)
        ref = np.stack([thomas_longdouble(*tri, c.real)
                        + 1j * thomas_longdouble(*tri, c.imag)
                        for c in rhs.T], axis=1)
        mask = np.abs(ref) > 1e-250
        rel = np.abs(got - ref)[mask] / np.abs(ref)[mask]
        assert float(np.max(rel)) <= 1e-13
        if ny == 769:
            # the check reaches deep into the tail
            assert np.min(np.abs(ref)[mask]) < 1e-240

    @pytest.mark.parametrize("support", [0, 1, 31, 32, 33, 64, 769])
    @pytest.mark.parametrize("nu, dt", [(1.0, 1e-2), (1.5, 1.0)])
    @pytest.mark.parametrize("bc", [BC_DIRICHLET, BC_NEUMANN])
    def test_windowed_solve_matches_every_block(self, support, nu, dt, bc):
        """A right-hand side given by its rows [0, support) is solved over
        the blocks that hold them and the blocks its interface values
        reach: the rows returned equal those of the solve over every
        block, which is exactly zero above them, and match the dense
        solve.  nu dt / (2 dy^2) is 0.09 (the acceptance grid's step) or
        13.5, where the data spreads over the whole grid."""
        g = make_grid(ny=769, ymax=181.0)
        r = nu * dt / (2.0 * g.dy ** 2)
        tri = _cn_matrix(g.ny, g.dy, nu, dt, bc)
        fac = cn_factors(*tri)
        rng = np.random.default_rng(support)
        rhs = np.zeros((g.ny, g.nmodes), complex)
        rhs[:support] = (rng.standard_normal((support, g.nmodes))
                         + 1j * rng.standard_normal((support, g.nmodes)))
        dense = dense_cn(*tri)
        for b in (rhs, rhs.real):
            got = solve_banded(fac, b=b[:support])
            want = spike_every_block(fac, b)
            h = len(got)
            assert got.dtype == b.dtype and got.shape[1] == b.shape[1]
            assert support <= h <= g.ny and (h % 32 == 0 or h == g.ny)
            assert np.array_equal(got, want[:h])
            assert not np.any(want[h:])
            ref = np.linalg.solve(dense, b)
            assert np.max(np.abs(want - ref)) \
                <= 1e-12 * np.max(np.abs(ref), initial=0.0)
        if r > 1.0 and support:
            assert h == g.ny        # the data reach the top
        if r < 1.0 and support <= 64:
            assert h < g.ny - 300   # the zero blocks above are skipped

    @pytest.mark.parametrize("bc", [BC_DIRICHLET, BC_NEUMANN])
    def test_dt_change_builds_a_new_factorization(self, bc):
        g = make_grid(ny=100, ymax=24.0)
        ws = make_state(g, Params(kappa=1.5, epsilon=1e-3),
                        Field.zeros(g, BC_DIRICHLET),
                        Field.zeros(g, BC_NEUMANN)).ws
        rng = np.random.default_rng(7)
        f = Field(g, rng.standard_normal((g.ny, g.nmodes)) + 0j, bc)
        tend = rng.standard_normal((g.ny, g.nmodes)) + 0j
        for dt in (1e-2, 5e-3, 1e-2):      # a CFL halving and back
            fac = ws.cn_factors(1.5, dt, bc)
            assert ws.cn_factors(1.5, dt, bc) is fac
            got = _cn_solve(ws, f, Field(g, tend, bc), 1.5, dt).coeffs
            rhs = f.coeffs + d2dy(f).coeffs * (0.75 * dt) + dt * tend
            if bc == BC_DIRICHLET:
                rhs[0] = 0.0
            rhs[-1] = 0.0
            ref = np.linalg.solve(
                dense_cn(*_cn_matrix(g.ny, g.dy, 1.5, dt, bc)), rhs)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert ws.cn_factors(1.5, 5e-3, bc) is not ws.cn_factors(1.5, 1e-2,
                                                                  bc)


def full_rows(st):
    """st with fields that claim no zero rows: every kernel then runs
    over the whole grid."""
    return replace(st, u=Field(st.grid, st.u.coeffs, st.u.bc),
                   b=Field(st.grid, st.b.coeffs, st.b.bc))


def sampled_norms(st):
    """The four Besov norms a sample writes, from st's gh_fields."""
    phi, psi, G, H, dG, dH = st.gh_fields
    return [besov_pair_norm(st.ws.part, f1, f2, st.params.weight_alpha,
                            st.t, st.radius)
            for f1, f2 in ((st.u, st.b), (G, H), (dG, dH), (phi, psi))]


def window_cases():
    """(grid, params, far field) of a tall kappa = 1 run whose upper rows
    stay exactly zero, a short one whose data reach the top row, and a
    far-field run."""
    tall = GridSpec(2.0 * np.pi, 16, 96.0, 769)
    top = GridSpec(2.0 * np.pi, 16, 12.0, 129)
    far = GridSpec(2.0 * np.pi, 16, 48.0, 769)
    k1 = Params(kappa=1.0, epsilon=1e-3)
    k32 = Params(kappa=1.5, epsilon=1e-3)
    ff = FarField(far, 1e-4, 2.5)
    return {"tall": (tall, k1, None), "top": (top, k1, None),
            "farfield": (far, k32, ff)}


class TestRowWindow:
    @pytest.mark.parametrize("case", ["tall", "top", "farfield"])
    def test_windowed_step_matches_the_full_grid(self, case):
        """Steps, theta, the sampled norms, the tail guard and the audit
        over the row window equal the same computations over every row
        (the audit's pairwise sum to roundoff); a restart step and two
        multistep steps."""
        g, p, ff = window_cases()[case]
        u0, b0, _ = initial_data_standard(g, p)
        st = make_state(g, p, u0, b0)
        windows = []
        for _ in range(3):
            windows.append(max(st.u.window, st.b.window))
            # the far field's products and source reach the cutoff zone's
            # top, and the tendencies keep that window
            ru, rb, _ = rhs_explicit(st, ff)
            assert ru.rows == rb.rows == max(windows[-1],
                                             ff.cutoff.rows if ff else 0)
            new, ref = step_imex(st, 1e-2, ff), step_imex(full_rows(st), 1e-2,
                                                         ff)
            for name in ("u", "b"):
                assert np.array_equal(getattr(new, name).coeffs,
                                      getattr(ref, name).coeffs)
                f = getattr(new, name)
                assert not np.any(f.coeffs[f.rows:])
                assert f.rows == 0 or np.any(f.coeffs[f.rows - 1])
            assert np.array_equal(new.prev_ru.coeffs, ref.prev_ru.coeffs)
            assert np.array_equal(new.prev_rb.coeffs, ref.prev_rb.coeffs)
            assert (new.theta, new.theta_int1, new.umax) \
                == (ref.theta, ref.theta_int1, ref.umax)
            assert sampled_norms(new) == sampled_norms(full_rows(new))
            assert tail_guard_check(new) == tail_guard_check(full_rows(new))
            for name in ("u", "b"):
                fo, fn = getattr(st, name), getattr(new, name)
                got = heat_energy_slack(fo, fn, st.t, new.t, [(1.0, 1.0)])
                want = heat_energy_slack(Field(g, fo.coeffs, fo.bc),
                                         Field(g, fn.coeffs, fn.bc),
                                         st.t, new.t, [(1.0, 1.0)])
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)
            st = new
        if case in ("tall", "farfield"):
            assert max(windows) < g.ny - 100
        if case == "top":
            assert windows == [g.ny] * 3

    def test_fields_store_only_their_window(self, tmp_path, monkeypatch):
        """On a tall grid a run's fields, derived fields and tendencies
        store only the rows of their window, coeffs pads them with zeros
        to the whole grid, no step allocates an array as tall as the grid,
        and a checkpoint of the state resumes bit for bit."""
        g = GridSpec(2.0 * np.pi, 16, 120.0, 512)
        p = Params(kappa=1.0, epsilon=1e-3)
        u0, b0, _ = initial_data_standard(g, p)
        # the first step builds the workspace's full-height factor stack
        st = simulate(make_state(g, p, u0, b0), t_final=0.01).state
        tall = []

        def watch(fn):
            def wrapped(*args, **kw):
                out = fn(*args, **kw)
                if out.shape[-2:] == (g.ny, g.nmodes):
                    tall.append(fn.__name__)
                return out
            return wrapped

        with monkeypatch.context() as m:
            for name in ("empty", "zeros", "empty_like", "zeros_like",
                         "concatenate"):
                m.setattr(np, name, watch(getattr(np, name)))
            res = simulate(st, t_final=0.05)
            end = res.state
            heat_energy_slack(st.u, end.u, st.t, end.t, [(1.0, 1.0)])
        assert end.step_index == 5 and tall == []
        fields = [end.u, end.b, *end.dy_ub, *end.phipsi, *end.gh_fields,
                  end.prev_ru, end.prev_rb]
        for f in fields:
            k = len(f.data)
            assert f.rows <= k <= f.window < g.ny
            full = f.coeffs
            assert full.shape == (g.ny, g.nmodes)
            assert np.array_equal(full[:k], f.data) and not np.any(full[k:])
        path = str(tmp_path / "window.ckpt")
        save_checkpoint(path, end, None)
        loaded, _, _ = load_checkpoint(path)
        again, whole = (simulate(s, t_final=0.08).state for s in (loaded,
                                                                   end))
        for name in ("u", "b", "prev_ru", "prev_rb"):
            assert np.array_equal(getattr(again, name).coeffs,
                                  getattr(whole, name).coeffs)
        assert (again.theta, again.step_index) == (whole.theta,
                                                   whole.step_index)
        assert np.array_equal(again.cl_integrals, whole.cl_integrals)

    @pytest.mark.parametrize("ny, ymax, windowed", [(384, 23.0, False),
                                                    (512, 120.0, True)])
    def test_y_operator_inputs_store_their_window(self, ny, ymax, windowed):
        """u, b, phi, psi, G and H store their whole window, so the y
        operator that reads each gets a view of its data, not a
        zero-padded copy; on a grid the data fill and on a windowed one."""
        g = GridSpec(2.0 * np.pi, 16, ymax, ny)
        p = Params(kappa=1.0, epsilon=1e-3)
        u0, b0, _ = initial_data_standard(g, p)
        st = make_state(g, p, u0, b0)
        for _ in range(3):
            st = step_imex(st, 1e-2)
            *_, G, H, _, _ = st.gh_fields
            fields = (st.u, st.b, *st.phipsi, G, H)
            for f in fields:
                assert np.shares_memory(f.head(f.window), f.data)
            assert (max(f.window for f in fields) < ny) == windowed

    def test_tall_grid_matches_the_grid_cut_above_the_data(self):
        """A kappa = 1 state stepped on a tall grid and the same state on
        the grid cut 40 rows above its support (same dy) step alike: the
        same fields over the shared rows and zeros above them, the same
        theta, sampled norms and audit.  The tail guard looks at the top
        fifth of each grid, so it is compared only on the tall one, where
        it sees zeros."""
        g, p, _ = window_cases()["tall"]
        u0, b0, _ = initial_data_standard(g, p)
        tall = make_state(g, p, u0, b0)
        for _ in range(3):
            tall = step_imex(tall, 1e-2)
        ny = max(tall.u.rows, tall.b.rows) + 40
        cut_grid = GridSpec(g.lx, g.nx, (ny - 1) * g.dy, ny)
        assert cut_grid.dy == g.dy
        assert tall.prev_ru.rows <= ny and tall.prev_rb.rows <= ny
        cut = replace(tall, grid=cut_grid,
                      u=Field(cut_grid, tall.u.coeffs[:ny], BC_DIRICHLET
                              ).trimmed(),
                      b=Field(cut_grid, tall.b.coeffs[:ny], BC_NEUMANN
                              ).trimmed(),
                      prev_ru=Field(cut_grid, tall.prev_ru.head(ny),
                                    BC_DIRICHLET, tall.prev_ru.rows),
                      prev_rb=Field(cut_grid, tall.prev_rb.head(ny),
                                    BC_NEUMANN, tall.prev_rb.rows))
        for _ in range(3):
            new_tall, new_cut = step_imex(tall, 1e-2), step_imex(cut, 1e-2)
            for name in ("u", "b"):
                t_f, c_f = getattr(new_tall, name), getattr(new_cut, name)
                assert t_f.rows == c_f.rows < ny - 2
                assert np.array_equal(t_f.coeffs[:ny], c_f.coeffs)
                assert not np.any(t_f.coeffs[ny:])
                assert heat_energy_slack(getattr(tall, name), t_f, tall.t,
                                         new_tall.t, [(1.0, 1.0)]) \
                    == heat_energy_slack(getattr(cut, name), c_f, cut.t,
                                         new_cut.t, [(1.0, 1.0)])
            assert (new_tall.theta, new_tall.theta_int1) \
                == (new_cut.theta, new_cut.theta_int1)
            assert sampled_norms(new_tall) == sampled_norms(new_cut)
            assert tail_guard_check(new_tall) == 0.0
            tall, cut = new_tall, new_cut


class TestAudits:
    def test_heat_energy_slack_on_heat_flow(self):
        """The slack of each pair is small on a heat flow, and one call
        over several pairs gives each pair the bits of a call of its own
        (the terms shared by an alpha or a beta are formed once)."""
        g, p, u0, b0 = heat_setup()
        st = make_state(g, p, u0, b0)
        dt = 1e-3
        bound = -(10.0 * dt + 10.0 * g.dy ** 2)
        pairs = [(1.0, 1.0), (0.5, 1.0), (0.25, 1.0), (1.0, 0.5), (0.5, 0.5)]
        for k in range(40):
            old = st.u.copy()
            t_old = st.t
            st = step_imex(st, dt)
            if k % 10 == 0:
                slacks = heat_energy_slack(old, st.u, t_old, st.t, pairs)
                assert len(slacks) == len(pairs)
                for pair, slack in zip(pairs, slacks):
                    assert slack >= bound
                    assert math.isfinite(slack)
                    assert slack == heat_energy_slack(old, st.u, t_old, st.t,
                                                      [pair])[0]

    def test_energy_audit_tall_domain(self):
        # near the top of a tall domain the squared weight overflows at
        # small t while the field rows there are exactly zero; those rows
        # must drop out of the audit instead of poisoning it with nan
        g = GridSpec(2 * math.pi, 8, 120.0, 257)
        p = Params(kappa=1.0, epsilon=1e-3)
        u0, b0, _ = initial_data_standard(g, p)
        st = make_state(g, p, u0, b0)
        new = step_imex(st, 1e-2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fo, fn in ((u0, new.u), (b0, new.b)):
                [s] = heat_energy_slack(fo, fn, 0.0, new.t, [(1.0, 1.0)])
                assert math.isfinite(s)

    def test_energy_audit_overflow_raises(self):
        # a genuinely nonzero row under an overflowed weight is a tail
        # violation, not a quiet nan
        g = GridSpec(2 * math.pi, 8, 120.0, 257)
        coeffs = np.zeros((g.ny, g.nmodes), dtype=complex)
        coeffs[-2, 1] = 1.0
        f = Field(g, coeffs, BC_DIRICHLET)
        with pytest.raises(TailViolationError, match="tail too wide"):
            heat_energy_slack(f, f, 0.0, 1e-2, [(1.0, 1.0)])

    def test_tail_guard_levels(self):
        g = make_grid()
        p = Params(kappa=1.0, epsilon=1e-3)
        u0, b0, _ = initial_data_standard(g, p)
        st = make_state(g, p, u0, b0)
        assert tail_guard_check(st) < 1e-10

        zero = make_state(g, p, Field.zeros(g, BC_DIRICHLET),
                          Field.zeros(g, BC_NEUMANN))
        assert tail_guard_check(zero) == 0.0

        bump = np.exp(-(g.y - 0.9 * g.ymax) ** 2)
        wide = make_state(g, p, single_mode_field(g, bump, BC_DIRICHLET),
                          Field.zeros(g, BC_NEUMANN))
        with pytest.raises(TailViolationError, match="domain too short"):
            tail_guard_check(wide)

    def test_recommended_ymax(self):
        # generous for short runs, grows like the heat spread for long ones
        assert recommended_ymax(1.0) >= 6.0 * math.sqrt(2.0)
        h100 = recommended_ymax(100.0)
        assert 6.0 * math.sqrt(101.0) <= h100 < 250.0
        assert recommended_ymax(100.0, kappa=1.5) >= h100
        # fast magnetic diffusion spreads b like sqrt(kappa t), which the
        # unit weight cannot dominate for any domain height
        with pytest.raises(ValueError, match="weight overwhelms"):
            recommended_ymax(100.0, kappa=3.0, weight_alpha=1.0)
        # inputs out of range are refused by name
        nan, inf = math.nan, math.inf
        for args, msg in (
                ((-0.5,), "t_final must be finite and >= 0, got -0.5"),
                ((nan,), "t_final must be finite and >= 0, got nan"),
                ((inf,), "t_final must be finite and >= 0, got inf"),
                ((1.0, nan), "kappa must be positive and finite, got nan"),
                ((1.0, 0.0), "kappa must be positive and finite, got 0.0"),
                ((1.0, 1.0, nan),
                 "weight_alpha must be positive and finite, got nan"),
                ((1.0, 1.0, -5.0),
                 "weight_alpha must be positive and finite, got -5.0"),
                ((True, True, True),
                 "t_final must be finite and >= 0, got True"),
                ((1.0, True), "kappa must be positive and finite, got True"),
                ((1.0, 1.0, True),
                 "weight_alpha must be positive and finite, got True")):
            with pytest.raises(ValueError) as exc:
                recommended_ymax(*args)
            assert str(exc.value) == msg

    def test_branch_selection(self):
        """Params looks its branch up in weight_branches once ("auto" is
        "unit" up to kappa = 1, "kappa" above) and refuses a name that is
        no branch, or a branch that does not exist at kappa, so no state
        is built on it."""
        for kappa, branch, want in ((1.0, "auto", "unit"),
                                    (1.5, "auto", "kappa"),
                                    (1.0, "kappa", "kappa"),
                                    (1.5, "unit", "unit")):
            p = Params(kappa=kappa, epsilon=1e-3, branch=branch)
            assert (p.weight_alpha, p.weight_gain) == \
                weight_branches(kappa)[want]
        for kappa, branch, msg in (
                (2.0, "unit", "plain-weight branch needs kappa < 2"),
                (3.0, "unit", "plain-weight branch needs kappa < 2"),
                (0.5, "kappa", "kappa-weight branch needs kappa > 1/2"),
                (0.4, "kappa", "kappa-weight branch needs kappa > 1/2"),
                (1.0, "fancy", "unknown branch 'fancy'"),
                (1.0, True, "unknown branch True"),
                (1.0, ["unit"], "unknown branch ['unit']")):
            with pytest.raises(ValueError) as exc:
                Params(kappa=kappa, epsilon=1e-3, branch=branch)
            assert str(exc.value) == msg

    @pytest.mark.parametrize("kappa, alpha", [(3.0, 1.0)])
    def test_state_refuses_an_alpha_of_no_branch(self, kappa, alpha):
        """No state runs on an alpha that is no branch's at kappa: the unit
        weight (alpha = 1) has no branch above kappa = 2, so its Params is
        refused before a State exists, and a state's frozen params keep
        the alpha of the branch they were given."""
        assert alpha not in {a for a, _ in weight_branches(kappa).values()}
        with pytest.raises(ValueError) as exc:
            Params(kappa=kappa, epsilon=1e-3, branch="unit")
        assert str(exc.value) == "plain-weight branch needs kappa < 2"
        g = make_grid(nx=16, ny=96)
        p = Params(kappa=kappa, epsilon=1e-3)
        u0, b0, _ = initial_data_standard(g, p)
        st = State(g, p, 0.0, u0, b0)
        assert st.params.weight_alpha == 1.0 / kappa
        with pytest.raises(FrozenInstanceError):
            st.params.weight_alpha = alpha
        assert st.params.weight_alpha == 1.0 / kappa


class TestEqs2Residual:
    def test_zero_states(self):
        g = make_grid(ny=129)
        p = Params(kappa=1.0, epsilon=1e-3)
        st0 = make_state(g, p, Field.zeros(g, BC_DIRICHLET),
                         Field.zeros(g, BC_NEUMANN))
        st1 = step_imex(st0, 1e-3)
        r = eqs2_residual(st0, st1)
        assert r["norm_phi"] == 0.0 and r["norm_psi"] == 0.0

    def test_needs_time_ordering(self):
        g = make_grid(ny=129)
        p = Params(kappa=1.0, epsilon=1e-3)
        st = make_state(g, p, Field.zeros(g, BC_DIRICHLET),
                        Field.zeros(g, BC_NEUMANN))
        with pytest.raises(ValueError, match="time ordered"):
            eqs2_residual(st, st)

    def test_x_independent_flow_has_no_shell_content(self):
        # column-only data lives entirely in the mean mode, which sits
        # below every dyadic shell, so the band norms of the residual
        # vanish identically
        g, p, u0, b0 = heat_setup(ny=256)
        st0 = make_state(g, p, u0, b0)
        st1 = step_imex(st0, 1e-3)
        r = eqs2_residual(st0, st1)
        assert r["norm_phi"] == 0.0 and r["norm_psi"] == 0.0

    def test_psi_residual_halves_with_dt(self):
        g = make_grid(ny=513)
        p = Params(kappa=1.0, epsilon=1e-3)
        u0, b0, _ = initial_data_standard(g, p)
        norms = []
        for dt in (2e-3, 1e-3, 5e-4):
            st0 = make_state(g, p, u0, b0)
            st1 = step_imex(st0, dt)
            norms.append(eqs2_residual(st0, st1)["norm_psi"])
        assert 1.7 < norms[0] / norms[1] < 2.3
        assert 1.7 < norms[1] / norms[2] < 2.3

    def test_farfield_residual_halves_with_dt(self):
        # the far-field terms dominate the residual at this amplitude:
        # leaving them out stalls the psi ratios near 1 and leaves a phi
        # floor of about 0.1
        g = make_grid(ny=513)
        p = Params(kappa=1.5, epsilon=1e-3)
        u0, b0, _ = initial_data_standard(g, p)
        ff = FarField(g, 1e-2, 2.5)
        res = []
        for dt in (2e-3, 1e-3, 5e-4):
            st0 = make_state(g, p, u0, b0)
            st1 = step_imex(st0, dt, ff)
            res.append(eqs2_residual(st0, st1, ff))
        psi = [r["norm_psi"] for r in res]
        assert 1.7 < psi[0] / psi[1] < 2.3
        assert 1.7 < psi[1] / psi[2] < 2.3
        assert 0.0 < res[-1]["norm_phi"] < 5.0 * p.epsilon

    def test_phi_residual_bounded_by_projection_floor(self):
        # the per-step zero-flux projection acts as a small forcing that
        # the residual formula does not model; for wall-sloped data this
        # leaves a dt-independent floor of order the data amplitude
        g = make_grid(ny=513)
        p = Params(kappa=1.0, epsilon=1e-3)
        u0, b0, _ = initial_data_standard(g, p)
        st0 = make_state(g, p, u0, b0)
        st1 = step_imex(st0, 1e-3)
        r = eqs2_residual(st0, st1)
        assert 0.0 < r["norm_phi"] < 5.0 * p.epsilon


class TestKappaRescale:
    def test_identity(self):
        g = make_grid()
        p = Params(kappa=1.0, epsilon=1e-3)
        u0, b0, _ = initial_data_standard(g, p)
        g2, u2, b2 = kappa_rescale_map(g, u0, b0, 1.0)
        assert g2.ymax == g.ymax
        scale = np.max(np.abs(u0.coeffs))
        assert np.max(np.abs(u2.coeffs - u0.coeffs)) < 1e-14 * scale
        assert np.max(np.abs(b2.coeffs - b0.coeffs)) < 1e-14 * scale

    def test_geometry_and_round_trip(self):
        g = make_grid(ny=1025)
        p = Params(kappa=1.0, epsilon=1e-3)
        u0, b0, _ = initial_data_standard(g, p)
        g1, u1, b1 = kappa_rescale_map(g, u0, b0, 1.5)
        assert g1.ymax == pytest.approx(g.ymax / math.sqrt(1.5), rel=1e-15)
        assert (g1.nx, g1.ny) == (g.nx, g.ny)
        g2, u2, b2 = kappa_rescale_map(g1, u1, b1, 1.0 / 1.5)
        assert g2.ymax == pytest.approx(g.ymax, rel=1e-12)
        scale = np.max(np.abs(u0.coeffs))
        assert np.max(np.abs(u2.coeffs - u0.coeffs)) < 1e-10 * scale

    @pytest.mark.parametrize("kappa", [1.5, 2.0])
    def test_nodes_keep_their_values(self, kappa):
        # node i of the new grid is node i of the old one, moved down
        g = make_grid()
        u0, b0, _ = initial_data_standard(g, Params(kappa=1.0, epsilon=1e-3))
        g1, u1, b1 = kappa_rescale_map(g, u0, b0, kappa)
        for f, f1 in ((u0, u1), (b0, b1)):
            assert np.array_equal(f1.coeffs, f.coeffs)
            assert not np.shares_memory(f1.coeffs, f.coeffs)
            assert (f1.grid, f1.bc, f1.rows) == (g1, f.bc, f.rows)

    def test_rejects_bad_kappa(self):
        g = make_grid()
        u = Field.zeros(g, BC_DIRICHLET)
        b = Field.zeros(g, BC_NEUMANN)
        for kappa in (0.0, float("nan"), float("inf"), True):
            with pytest.raises(ValueError, match=r"^kappa must be positive "
                               r"and finite, got (0\.0|nan|inf|True)$"):
                kappa_rescale_map(g, u, b, kappa)

    def test_upscaling_widens_the_grid(self):
        # kappa below one stretches the domain
        g = make_grid()
        u = Field.zeros(g, BC_DIRICHLET)
        b = Field.zeros(g, BC_NEUMANN)
        g2, _, _ = kappa_rescale_map(g, u, b, 0.25)
        assert g2.ymax == pytest.approx(2.0 * g.ymax, rel=1e-15)

    def test_rescaled_flux_shapes_identity(self):
        g = make_grid()
        for nu_u in (0.0, math.nan):
            with pytest.raises(ValueError, match="^nu_u must be positive and "
                               f"finite, got {nu_u!r}$"):
                flux_projection_profiles(g, nu_u)

    def test_conjugate_runs_track_each_other(self):
        # dividing heights by sqrt(kappa) and both diffusivities by kappa
        # gives an equivalent system; with mirrored projection shapes the
        # two discrete flows agree to rounding, far inside any physical
        # tolerance
        kap = 2.0
        grid_a = GridSpec(2.0 * np.pi, 16, 25.0, 129)
        par_a = Params(kappa=kap, epsilon=1e-3)
        u0a, b0a, _ = initial_data_standard(grid_a, par_a)
        grid_b, u0b, b0b = kappa_rescale_map(grid_a, u0a, b0a, kap)
        par_b = Params(kappa=kap, epsilon=1e-3, nu_u=1.0 / kap, nu_b=1.0)

        res_a = simulate(make_state(grid_a, par_a, u0a, b0a), t_final=0.2,
                         dt_max=1e-2, sample_every=100)
        res_b = simulate(make_state(grid_b, par_b, u0b, b0b), t_final=0.2,
                         dt_max=1e-2, sample_every=100)
        _, mu, mb = kappa_rescale_map(grid_a, res_a.state.u, res_a.state.b,
                                      kap)
        part = build_partition(grid_b)
        du = Field(grid_b, mu.coeffs - res_b.state.u.coeffs, mu.bc)
        db = Field(grid_b, mb.coeffs - res_b.state.b.coeffs, mb.bc)
        num = besov_pair_norm(part, du, db)
        den = besov_pair_norm(part, res_b.state.u, res_b.state.b)
        assert den > 0.0
        assert num / den < 1e-10


class TestCheckpoint:
    def _stepped_state(self, kappa=1.5, branch="auto"):
        g = make_grid(ny=129)
        p = Params(kappa=kappa, epsilon=1e-3, branch=branch)
        u0, b0, _ = initial_data_standard(g, p)
        st = make_state(g, p, u0, b0)
        for _ in range(3):
            st = step_imex(st, 1e-3)
        return g, p, st

    def test_round_trip_bit_exact(self, tmp_path):
        """Every State field but the caches comes back: the weight branch
        is not the one "auto" picks, so params without it would differ."""
        g, p, st = self._stepped_state(branch="unit")
        ff = FarField(g, 1e-4, 2.5)
        st.cl_integrals = np.linspace(1e-6, 2e-6, len(st.cl_integrals))
        st.audit_min = {"u:a1:b1": -1e-9, "b:a1:b1": 3e-8}
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(path, st, ff, extras={"note": 1.5})
        st2, ff2, extras = load_checkpoint(path)
        for f in fields(State):
            if f.name == "ws":
                continue
            got, want = getattr(st2, f.name), getattr(st, f.name)
            if isinstance(want, Field):
                assert got.bc == want.bc, f.name
                assert np.array_equal(got.coeffs, want.coeffs), f.name
            elif isinstance(want, np.ndarray):
                assert np.array_equal(got, want), f.name
            else:
                assert got == want, f.name
        assert ff2.eps == ff.eps
        assert ff2.alpha == ff.alpha
        assert np.array_equal(ff2.g_spec, ff.g_spec)
        assert extras == {"note": 1.5}
        # saving the loaded state reproduces the file byte for byte
        path2 = str(tmp_path / "again.ckpt")
        save_checkpoint(path2, st2, ff2, extras=extras)
        assert (tmp_path / "run.ckpt").read_bytes() == \
            (tmp_path / "again.ckpt").read_bytes()

    def test_diffusivity_overrides_round_trip(self, tmp_path):
        g = make_grid(ny=129)
        p = Params(kappa=2.0, epsilon=1e-3, nu_u=0.5, nu_b=1.0)
        u0, b0, _ = initial_data_standard(g, p)
        st = step_imex(make_state(g, p, u0, b0), 1e-3)
        path = str(tmp_path / "nu.ckpt")
        save_checkpoint(path, st, None)
        st2, ff, _ = load_checkpoint(path)
        assert st2.params == p
        assert ff is None

    def test_failed_write_keeps_previous_file(self, tmp_path):
        g, p, st = self._stepped_state()
        path = tmp_path / "keep.ckpt"
        save_checkpoint(str(path), st, None)
        before = path.read_bytes()

        class FailingArray:
            """Fails as np.savez reaches it: the header, u and b are
            already written."""

            def __array__(self, dtype=None, copy=None):
                raise OSError("disk full")

        st.t += 1.0
        st.prev_ru = SimpleNamespace(coeffs=FailingArray())
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(str(path), st, None)
        assert path.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["keep.ckpt"]

    def test_non_hermitian_file_refused(self, tmp_path, rewrite_checkpoint):
        """An imaginary part in the DC column of any array, or in the
        Nyquist column where the grid stores it, is refused."""
        for frac, col in ((2.0 / 3.0, "dc"), (1.0, "dc"), (1.0, "nyquist")):
            g = make_grid(ny=129, dealias_fraction=frac)
            p = Params(kappa=1.5, epsilon=1e-3)
            u0, b0, _ = initial_data_standard(g, p)
            st = step_imex(make_state(g, p, u0, b0), 1e-3)
            good = tmp_path / "good.ckpt"
            save_checkpoint(str(good), st, None)
            j = 0 if col == "dc" else g.nx // 2
            assert j < g.nmodes
            for name in ["u", "b", "prev_ru", "prev_rb"]:
                def skew(members):
                    # the imaginary part of row 3, column j
                    assert members[name][3, j].imag == 0.0
                    members[name][3, j] += 0.25j

                path = tmp_path / "skew.ckpt"
                rewrite_checkpoint(good, path, skew)
                with pytest.raises(CheckpointError,
                                   match=f"checkpoint {name} is not the "
                                         "spectrum of a real field"):
                    load_checkpoint(str(path))

    def test_members_must_match_the_header(self, tmp_path,
                                           rewrite_checkpoint):
        """The header says which arrays the archive holds (prev_dt null:
        no multistep history), so an archive with another member, or
        without one, is refused."""
        g, p, st = self._stepped_state()
        good = tmp_path / "good.ckpt"
        save_checkpoint(str(good), st, None)
        both = "['b', 'prev_rb', 'prev_ru', 'u']"
        for change, held, wanted in (
                (lambda m: m["header"].update(prev_dt=None), both,
                 "['b', 'u']"),
                (lambda m: m.update(junk=np.zeros(3)),
                 "['b', 'junk', 'prev_rb', 'prev_ru', 'u']", both),
                (lambda m: m.pop("prev_rb"), "['b', 'prev_ru', 'u']", both)):
            path = tmp_path / "bad.ckpt"
            rewrite_checkpoint(good, path, change)
            with pytest.raises(CheckpointError) as exc:
                load_checkpoint(str(path))
            assert str(exc.value) == \
                f"checkpoint holds arrays {held}, its header calls for {wanted}"

    def test_member_shape_and_dtype_refused(self, tmp_path,
                                            rewrite_checkpoint):
        """An array of another shape or dtype is refused before anything
        is sized from the header's grid."""
        g, p, st = self._stepped_state()
        good = tmp_path / "good.ckpt"
        save_checkpoint(str(good), st, None)
        for name, arr in (("u", np.zeros((g.ny - 1, g.nmodes), complex)),
                          ("b", np.zeros((g.ny, g.nmodes), np.complex64)),
                          ("prev_rb", np.zeros((g.ny, g.nmodes))),
                          ("prev_ru", np.zeros(g.ny * g.nmodes, complex))):
            path = tmp_path / "bad.ckpt"
            rewrite_checkpoint(good, path, lambda m: m.update({name: arr}))
            with pytest.raises(CheckpointError) as exc:
                load_checkpoint(str(path))
            assert str(exc.value) == (f"checkpoint {name} must be a "
                                      "complex128 array of shape (129, 11)")

    def test_impossible_member_shape_fails_at_once(self, tmp_path):
        """A member whose .npy header declares a shape no memory holds is
        refused when numpy sizes it, before it reads the data."""
        g, p, st = self._stepped_state()
        good = tmp_path / "good.ckpt"
        save_checkpoint(str(good), st, None)
        raw = good.read_bytes()
        old = b"'shape': (129, 11), }"
        new = b"'shape': (1000000000000, 1000000000000), }"
        assert raw.count(old) == 4
        # the new shape takes the place of the header's padding spaces
        raw = raw.replace(old + b" " * (len(new) - len(old)), new, 1)
        path = tmp_path / "huge.ckpt"
        path.write_bytes(raw)
        with pytest.raises(CheckpointError,
                           match="^damaged checkpoint archive: "):
            load_checkpoint(str(path))

    def test_unreadable_file_and_bad_headers(self, tmp_path,
                                             rewrite_checkpoint):
        with pytest.raises(CheckpointError, match="cannot read checkpoint"):
            load_checkpoint(str(tmp_path / "missing.ckpt"))
        g, p, st = self._stepped_state()
        good = tmp_path / "good.ckpt"
        save_checkpoint(str(good), st, None)

        def bad_json(members):
            members["header"] = b"{" + json.dumps(
                members["header"]).encode("utf-8")[1:].replace(b"{", b"[", 1)

        def no_key(members):
            members["header"]["thetb"] = members["header"].pop("theta")

        for change, msg in ((bad_json, "not valid JSON"),
                            (lambda m: m.pop("header"), "not valid JSON"),
                            (no_key, "lacks key 'theta'")):
            path = tmp_path / "bad.ckpt"
            rewrite_checkpoint(good, path, change)
            with pytest.raises(CheckpointError, match=msg):
                load_checkpoint(str(path))

    @pytest.fixture(scope="class")
    def valid_file(self, tmp_path_factory):
        """A checkpoint as a run leaves it: multistep history, CL
        integrals, a far field."""
        g, p, st = self._stepped_state()
        ff = FarField(g, 1e-4, 2.5)
        st.cl_integrals = np.full(build_partition(g).n_shells, 1e-6)
        st.theta_int1 = 1e-3
        st.audit_min = {"u:a1:b1": 1e-8, "b:a1:b1": 2e-8}
        path = tmp_path_factory.mktemp("valid") / "valid.ckpt"
        save_checkpoint(str(path), st, ff, extras={"scenario_id": "standard"})
        return path.read_bytes()

    @given(data=hst.data())
    @settings(max_examples=60, deadline=None)
    def test_truncated_file_refused(self, valid_file, tmp_path_factory, data):
        """Cut anywhere, a checkpoint raises CheckpointError and nothing
        else.  Two thirds of the cuts land in the first member's local
        and .npy headers (128 bytes) or in the central directory and the
        end records (the last 400 bytes)."""
        raw = valid_file
        cut = data.draw(hst.one_of(hst.integers(0, 128),
                                   hst.integers(len(raw) - 400, len(raw) - 1),
                                   hst.integers(0, len(raw) - 1)), label="cut")
        path = tmp_path_factory.mktemp("cut") / "cut.ckpt"
        path.write_bytes(raw[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_not_an_archive_refused(self, tmp_path):
        """A file of format 1 to 4, which starts with the magic b"MHDBL\\0"
        and its version word, a bare .npy array, an empty file and text
        are no format-6 archive."""
        path = tmp_path / "bad.ckpt"
        with open(path, "wb") as fh:
            np.save(fh, np.zeros((4, 3), complex))
        npy = path.read_bytes()
        for blob in (b"MHDBL\x00\x04\x00\x00\x00" + b"\x00" * 64, npy, b"",
                     b"NOTMHD" + b"\x00" * 64):
            path.write_bytes(blob)
            with pytest.raises(CheckpointError,
                               match="^not a checkpoint archive of format 6"):
                load_checkpoint(str(path))

    def test_version_mismatch(self, tmp_path, rewrite_checkpoint):
        g, p, st = self._stepped_state()
        path = str(tmp_path / "v.ckpt")
        save_checkpoint(path, st, None)
        rewrite_checkpoint(path, path, lambda m: m["header"].update(version=99))
        with pytest.raises(CheckpointError, match="unsupported checkpoint version 99"):
            load_checkpoint(path)

    def test_flipped_bit_refused(self, tmp_path):
        """One flipped bit in the header, in u or in prev_rb leaves a file
        whose header still parses, with values in range; the member's
        CRC-32 refuses it."""
        g, p, st = self._stepped_state()
        good = tmp_path / "good.ckpt"
        save_checkpoint(str(good), st, None, extras={"scenario_id": "standard"})
        raw = good.read_bytes()
        flips = {
            # "standard" -> "rtandard": still JSON, extras are free-form
            "header": raw.index(b'"standard"') + 1,
            # the low mantissa byte of the real part of u[5, 1]
            "u": raw.index(st.u.coeffs.tobytes()) + (5 * g.nmodes + 1) * 16,
            # and of the imaginary part of prev_rb[7, 2]
            "prev_rb": raw.index(st.prev_rb.coeffs.tobytes())
            + (7 * g.nmodes + 2) * 16 + 8,
        }
        for where, pos in flips.items():
            bad = bytearray(raw)
            bad[pos] ^= 1
            path = tmp_path / f"{where}.ckpt"
            path.write_bytes(bytes(bad))
            with pytest.raises(CheckpointError,
                               match="^damaged checkpoint archive: Bad "
                                     f"CRC-32 for file '{where}.npy'"):
                load_checkpoint(str(path))
        # so does a file whose stored CRC-32 itself is damaged: that of
        # the header, in the first record of the central directory
        bad = bytearray(raw)
        bad[zipfile.ZipFile(good).start_dir + 16] ^= 0x80
        (tmp_path / "crc.ckpt").write_bytes(bytes(bad))
        with pytest.raises(CheckpointError,
                           match="CRC-32 for file 'header.npy'"):
            load_checkpoint(str(tmp_path / "crc.ckpt"))

    def test_truncation(self, tmp_path):
        g, p, st = self._stepped_state()
        path = str(tmp_path / "t.ckpt")
        save_checkpoint(path, st, None)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:-100])
        with pytest.raises(CheckpointError, match="cut short"):
            load_checkpoint(path)

    def test_appended_bytes_refused(self, tmp_path):
        """zipfile reads an archive with bytes appended after its end
        record; the loader does not."""
        g, p, st = self._stepped_state()
        path = tmp_path / "long.ckpt"
        save_checkpoint(str(path), st, None)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match="bytes past its end"):
            load_checkpoint(str(path))


class TestSimulate:
    def test_zero_data_run_is_identically_zero(self):
        g = make_grid(ny=129)
        p = Params(kappa=1.0, epsilon=1e-3)
        res = simulate(make_state(g, p, Field.zeros(g, BC_DIRICHLET),
                                  Field.zeros(g, BC_NEUMANN)), t_final=0.1)
        assert res.reason == "completed"
        assert not np.any(res.state.u.coeffs)
        assert not np.any(res.state.b.coeffs)
        for col in ("theta", "norm_ub", "norm_gh", "norm_dy_gh",
                    "norm_phipsi", "cl_dyub_sq"):
            assert not np.any(res.series.column(col))

    def test_sampling_cadence(self):
        g = make_grid(ny=129)
        p = Params(kappa=1.0, epsilon=1e-3)
        u0, b0, _ = initial_data_standard(g, p)
        res = simulate(make_state(g, p, u0, b0), t_final=0.05, dt_max=1e-2,
                       sample_every=2)
        ts = res.series.column("t")
        assert ts[0] == 0.0
        assert np.allclose(ts, [0.0, 0.02, 0.04, 0.05], atol=1e-12)
        assert np.all(np.diff(ts) > 0.0)
        assert res.summary["steps"] == 5

    def test_summary_contents(self):
        g = make_grid(ny=129)
        p = Params(kappa=1.0, epsilon=1e-3)
        u0, b0, _ = initial_data_standard(g, p)
        res = simulate(make_state(g, p, u0, b0), t_final=0.12, dt_max=1e-2)
        s = res.summary
        for key in ("t_final", "steps", "theta_final", "radius_final",
                    "theta_integral1", "flux_drift_final", "audit_min_slack",
                    "cl_dyub_sq_final", "weight_alpha", "reason"):
            assert key in s
        assert s["reason"] == "completed"
        assert s["theta_final"] > 0.0
        assert s["radius_final"] == pytest.approx(
            p.delta - p.lam * s["theta_final"])
        # kappa = 1: the audit weight pairs collapse to a single combination
        assert sorted(s["audit_min_slack"]) == ["b:a1:b1", "u:a1:b1"]
        assert all(v > -1e-3 for v in s["audit_min_slack"].values())

    def test_cl_column_is_the_chemin_lerner_norm(self):
        """cl_dyub_sq is (sum_k 2^{k/2} I_k^{1/2})^2, I_k the left-endpoint
        sum over the steps of <t>^{1 + 2 gain} ||Delta_k d_y (u, b)||^2 dt
        under the band multiplier of the step's start."""
        g = make_grid(ny=129)
        p = Params(kappa=1.5, epsilon=1e-3)
        u0, b0, _ = initial_data_standard(g, p)
        st = make_state(g, p, u0, b0)
        res = simulate(st, t_final=0.05, dt_max=1e-2, sample_every=1)
        part = st.ws.part
        alpha, gain = weight_branches(p.kappa)["kappa"]
        assert p.weight_alpha == alpha
        w = 1.0 + 2.0 * gain
        integrals = np.zeros(part.n_shells)
        for k in range(5):
            per = pair_shell_norms(part, ddy(st.u), ddy(st.b), alpha, st.t,
                                   st.radius)
            integrals += (1.0 + st.t) ** w * per ** 2 * 1e-2
            st = step_imex(st, 1e-2)
            want = float(np.sum(2.0 ** (part.ks / 2.0)
                                * np.sqrt(integrals))) ** 2
            assert res.series.cl_dyub_sq[k + 1] == pytest.approx(
                want, rel=1e-12, abs=0.0)
        assert res.series.cl_dyub_sq[0] == 0.0

    def test_audit_matrix_for_kappa_branch(self):
        g = make_grid(ny=129)
        p = Params(kappa=1.5, epsilon=1e-3, branch="kappa")
        u0, b0, _ = initial_data_standard(g, p)
        res = simulate(make_state(g, p, u0, b0), t_final=0.03, dt_max=1e-2)
        keys = res.summary["audit_min_slack"]
        assert len(keys) == 8
        assert "u:a0.6667:b1.5" in keys

    @pytest.mark.parametrize("kappa, per_audit, keys", [
        (1.0, 2, ["u:a1:b1", "b:a1:b1"]),
        (1.5, 8, ["u:a1:b1", "u:a1:b1.5", "u:a0.6667:b1", "u:a0.6667:b1.5",
                  "b:a1:b1", "b:a1:b1.5", "b:a0.6667:b1", "b:a0.6667:b1.5"]),
        # only the weight branches that exist at kappa are audited
        (0.5, 4, ["u:a1:b1", "u:a1:b0.5", "b:a1:b1", "b:a1:b0.5"]),
        (3.0, 4, ["u:a0.3333:b1", "u:a0.3333:b3", "b:a0.3333:b1",
                  "b:a0.3333:b3"]),
    ])
    def test_audit_evaluates_each_pair_once(self, monkeypatch, kappa,
                                            per_audit, keys):
        """Each field is audited once per audit step, by one call over
        every distinct pair; per_audit slacks come out of an audit step."""
        calls = []

        def counted(*args):
            calls.append(args[4])
            return heat_energy_slack(*args)

        monkeypatch.setattr("mhdbl.solver.heat_energy_slack", counted)
        g = make_grid(ny=129)
        p = Params(kappa=kappa, epsilon=1e-3)
        u0, b0, _ = initial_data_standard(g, p)
        res = simulate(make_state(g, p, u0, b0), t_final=0.2, dt_max=1e-2)
        # audits run at steps 0 and 10 of 20, one call per field
        assert len(calls) == 2 * 2
        assert all(pairs == calls[0] for pairs in calls)
        assert len(set(calls[0])) == len(calls[0]) == per_audit // 2
        # keys and their first-seen order (the checkpoint header keeps it)
        assert list(res.summary["audit_min_slack"]) == keys

    @pytest.mark.parametrize("kappa", [0.5, 3.0])
    def test_runs_at_the_ends_of_the_kappa_range_complete(self, kappa):
        """At kappa = 1/2 and 3 one weight branch exists; the weight of
        the other one grows faster than the fields decay, and an audit in
        it overflowed within the first steps."""
        p = Params(kappa=kappa, epsilon=1e-3)
        ymax = recommended_ymax(10.0, kappa, p.weight_alpha)
        g = GridSpec(2.0 * np.pi, 16, ymax, round(ymax / 0.24) + 1)
        u0, b0, _ = initial_data_standard(g, p)
        res = simulate(make_state(g, p, u0, b0), t_final=1.0, dt_max=1e-2)
        assert res.reason == "completed", res.message
        assert res.state.t == pytest.approx(1.0)

    def test_kappa_one_rejects_farfield(self):
        g = make_grid(ny=129)
        p = Params(kappa=1.0, epsilon=1e-3)
        u0, b0, _ = initial_data_standard(g, p)
        ff = FarField(g, 1e-3, 2.5)
        with pytest.raises(UnsupportedScenarioError, match="trivial far field"):
            simulate(make_state(g, p, u0, b0), farfield=ff, t_final=0.02)

    @pytest.mark.parametrize("name, value", [
        ("cfl", 0.0), ("cfl", math.nan), ("cfl", -0.4), ("cfl", math.inf),
        ("dt_max", -0.01), ("dt_max", math.nan), ("dt_max", 0.0),
        ("t_final", 0.0), ("t_final", -1.0), ("sample_every", 0),
        ("sample_every", 2.0), ("sample_every", True)])
    def test_bad_run_settings_refused(self, name, value):
        """Each bad setting is a one-line ValueError naming it, raised
        before the first sample, not a misleading ending.  An infinite
        t_final or dt_max meets the same check; neither is tried here,
        because a run that missed the check would never end."""
        g = make_grid(nx=16, ny=96)
        p = Params(kappa=1.0, epsilon=1e-3)
        u0, b0, _ = initial_data_standard(g, p)
        kw = {"t_final": 0.05, name: value}
        with pytest.raises(ValueError) as exc:
            simulate(make_state(g, p, u0, b0), **kw)
        assert str(exc.value) == (
            f"sample_every must be an integer >= 1, got {value!r}"
            if name == "sample_every" else
            f"{name} must be positive and finite, got {value!r}")

    def test_tstar_partial_result(self):
        g = make_grid(ny=129)
        p = Params(kappa=1.0, epsilon=1e-3, lam=1e9)
        u0, b0, _ = initial_data_standard(g, p)
        partial = simulate(make_state(g, p, u0, b0), t_final=1.0,
                           dt_max=1e-2)
        assert partial.reason == "tstar"
        assert partial.message.startswith("band exhausted at t=")
        assert partial.summary["reason"] == "tstar"
        # the partial result carries the last state whose band was intact
        assert partial.state.radius > 0.0
        assert len(partial.series.t) >= 1

    @staticmethod
    def _split_run(tmp_path, g, p, u0, b0):
        """The run to t = 0.2 unbroken, and split at t = 0.1 through a
        checkpoint: (whole, state loaded at the seam, second half)."""
        whole = simulate(make_state(g, p, u0, b0), t_final=0.2, dt_max=1e-2)
        first = simulate(make_state(g, p, u0, b0), t_final=0.1, dt_max=1e-2)
        path = str(tmp_path / "seam.ckpt")
        save_checkpoint(path, first.state, None)
        st, ff, _ = load_checkpoint(path)
        second = simulate(st, ff, t_final=0.2, dt_max=1e-2)
        return whole, st, second

    def test_resume_matches_single_run_bitwise(self, tmp_path):
        g = make_grid(ny=129)
        p = Params(kappa=1.0, epsilon=1e-3)
        u0, b0, _ = initial_data_standard(g, p)
        whole, seam, second = self._split_run(tmp_path, g, p, u0, b0)
        assert second.state.t == whole.state.t
        assert np.array_equal(second.state.u.coeffs, whole.state.u.coeffs)
        assert np.array_equal(second.state.b.coeffs, whole.state.b.coeffs)
        assert second.state.theta == whole.state.theta
        assert second.summary["cl_dyub_sq_final"] == pytest.approx(
            whole.summary["cl_dyub_sq_final"], rel=1e-12)
        # and so do the tallies a continuation reads
        for key in ("theta_int1", "umax", "audit_min", "blow_limit"):
            assert getattr(second.state, key) == getattr(whole.state, key)
        assert np.array_equal(second.state.cl_integrals,
                              whole.state.cl_integrals)
        # the blow-up limit is fixed by the t = 0 fields and travels with
        # the state, instead of being recomputed from the fields at the seam
        assert seam.blow_limit == make_state(g, p, u0, b0).blow_limit
        assert seam.blow_limit != 1e6 * (max(np.max(np.abs(seam.u.coeffs)),
                                             np.max(np.abs(seam.b.coeffs)))
                                         + 1.0)

    def test_split_conjugate_run_matches_single_run_bitwise(self, tmp_path):
        """A conjugate-system run (kappa = 2, diffusivities (1/2, 1)) takes
        its zero-flux shapes from its own parameters, so a checkpoint,
        which stores them, resumes it exactly."""
        kap = 2.0
        g = make_grid(nx=16, ny=129, ymax=25.0 / math.sqrt(kap))
        p = Params(kappa=kap, epsilon=1e-3, nu_u=0.5, nu_b=1.0)
        u0, b0, _ = initial_data_standard(g, p)
        whole, seam, second = self._split_run(tmp_path, g, p, u0, b0)
        assert seam.params == p
        assert second.state.t == whole.state.t
        assert np.array_equal(second.state.u.coeffs, whole.state.u.coeffs)
        assert np.array_equal(second.state.b.coeffs, whole.state.b.coeffs)
        assert second.state.theta == whole.state.theta


def subnormals(a: np.ndarray) -> int:
    """The real and imaginary parts of `a` that are subnormal."""
    f = np.asarray(a).view(np.float64)
    return int(np.count_nonzero((f != 0.0)
                                & (np.abs(f) < np.finfo(float).tiny)))


class TestSubnormalFlush:
    """On a grid whose Gaussian tails underflow below its top, the fields a
    run holds are normal, and so are their products: make_state, each step
    and the checkpoint loader flush every part below 2^-511, whose square
    underflows, and a resumed run still continues the unbroken one bit for
    bit."""

    @staticmethod
    def setup_run():
        g = make_grid(nx=16, ny=256, ymax=80.0)
        p = Params(kappa=1.0, epsilon=1e-3)
        u0, b0, _ = initial_data_standard(g, p)
        return g, p, u0, b0

    def test_fields_hold_no_subnormal(self, tmp_path, monkeypatch):
        g, p, u0, b0 = self.setup_run()
        assert subnormals(u0.coeffs) and subnormals(b0.coeffs)
        solved = []

        def counted(factors, b):
            x = solve_banded(factors, b=b)
            solved.append(subnormals(x))
            return x

        monkeypatch.setattr("mhdbl.solver.solve_banded", counted)
        st = make_state(g, p, u0, b0)
        states = [st]
        for _ in range(12):
            st = step_imex(st, 1e-2)
            states.append(st)
        # the CN solves leave subnormal tails for the step to flush
        assert sum(solved) > 0
        # a file written from fields that hold subnormals loads flushed
        path = str(tmp_path / "tails.ckpt")
        save_checkpoint(path, replace(st, u=u0.copy(), b=b0.copy()), None)
        states.append(load_checkpoint(path)[0])
        for s in states:
            for f in (s.u, s.b):
                parts = np.abs(f.coeffs.view(np.float64))
                assert np.all((parts == 0.0) | (parts >= 2.0 ** -511))
                assert subnormals(mode_power(f.coeffs)) == 0
                assert 0 < f.rows < g.ny
                assert np.any(f.coeffs[f.rows - 1])
                assert not np.any(f.coeffs[f.rows:])

    def test_resume_matches_single_run_bitwise(self, tmp_path):
        g, p, u0, b0 = self.setup_run()
        whole, seam, second = TestSimulate._split_run(tmp_path, g, p, u0, b0)
        assert second.state.t == whole.state.t
        for name in ("u", "b"):
            got, want = getattr(second.state, name), getattr(whole.state, name)
            assert np.array_equal(got.coeffs, want.coeffs)
            assert got.rows == want.rows < g.ny
        assert np.array_equal(second.state.prev_ru.coeffs,
                              whole.state.prev_ru.coeffs)
        assert np.array_equal(second.state.prev_rb.coeffs,
                              whole.state.prev_rb.coeffs)
        for key in ("theta", "theta_int1", "umax", "audit_min", "blow_limit"):
            assert getattr(second.state, key) == getattr(whole.state, key)
        assert np.array_equal(second.state.cl_integrals,
                              whole.state.cl_integrals)
