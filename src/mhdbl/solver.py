"""IMEX time integration of the tangential velocity / magnetic field pair
on the half plane: Crank-Nicolson for the y diffusion, Adams-Bashforth for
everything else, with divergence-free recovery of the normal components,
antiderivative reconstruction, damped combinations, the analytic-band
budget theta(t), and binary checkpointing.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Optional

import numpy as np

from .grid import (BC_DIRICHLET, BC_NEUMANN, Field, GridSpec,
                   TailViolationError, column_flux, d2dy, ddx, ddy,
                   full_spectrum, half_spectrum, integrate_y_from0,
                   integrate_y_tail, psi_weight, row_power, tail_suffix,
                   weighted_l2, weighted_rows, x_transform)
from .lp import (CLAccumulator, DyadicPartition, besov_h_shell_norms,
                 besov_norm, besov_pair_norm, build_partition,
                 pair_shell_norms)
from .scenario import (FarField, Params, UnsupportedScenarioError,
                       derived_exponents, farfield_decaying,
                       flux_projection_profiles, project_zero_flux,
                       source_terms)


class TStarReachedError(RuntimeError):
    """Analytic band exhausted: theta reached delta / lambda."""


class DivergenceError(RuntimeError):
    """Solution blew up or produced non-finite values."""


class FluxDriftError(RuntimeError):
    """Column flux of the x-varying part drifted beyond tolerance."""


# ---- weights and closed-form identities -------------------------------------


def eikonal_residual(grid: GridSpec, t: float, kappa: float = 1.0) -> float:
    """Nodal residual of d_t Psi_k + 2 kappa (d_y Psi_k)^2 with
    Psi_k = y^2 / (8 kappa <t>).  Zero in exact arithmetic; the discrete
    evaluation reproduces that cancellation to roundoff."""
    y = grid.y
    tt = 1.0 + t
    dpsi_dt = -y ** 2 / (8.0 * kappa * tt ** 2)
    dpsi_dy = y / (4.0 * kappa * tt)
    return float(np.max(np.abs(dpsi_dt + 2.0 * kappa * dpsi_dy ** 2)))


def recommended_ymax(t_final: float, kappa: float = 1.0,
                     weight_alpha: float = 1.0) -> float:
    """Domain height tall enough for the weighted tail guard.

    The slowest-decaying weighted envelope is exp(-c y^2) with
    c = 1/(2(1+2 nu T)) - alpha/(8(1+T)) for diffusivity nu in {1, kappa};
    the guard needs that envelope below 1e-8 of its peak at 0.8 ymax,
    with some room for algebraic prefactors.
    """
    tt = 1.0 + t_final
    cs = []
    for nu in (1.0, kappa):
        c = 1.0 / (2.0 * (1.0 + 2.0 * nu * t_final)) - weight_alpha / (8.0 * tt)
        if c <= 0.0:
            raise ValueError("weight overwhelms diffusion; no finite domain "
                             "keeps the weighted tail small")
        cs.append(c)
    c_min = min(cs)
    # 7 nats of headroom: the ratio carries algebraic prefactors that were
    # measured to eat about half that on 100-unit horizons
    target = math.log(1e8) + 7.0
    y_need = math.sqrt(target / c_min) / 0.8
    return max(6.0 * math.sqrt(1.0 + t_final), math.ceil(y_need) + 2.0)


# ---- state -----------------------------------------------------------------


@dataclass
class NormSeries:
    """Sampled diagnostics along one run (one row per sample)."""

    t: list = dc_field(default_factory=list)
    theta: list = dc_field(default_factory=list)
    radius: list = dc_field(default_factory=list)
    norm_ub: list = dc_field(default_factory=list)
    norm_gh: list = dc_field(default_factory=list)
    norm_dy_gh: list = dc_field(default_factory=list)
    norm_phipsi: list = dc_field(default_factory=list)
    cl_dyub_sq: list = dc_field(default_factory=list)
    theta_integral1: list = dc_field(default_factory=list)

    COLUMNS = ("t", "theta", "radius", "norm_ub", "norm_gh", "norm_dy_gh",
               "norm_phipsi", "cl_dyub_sq")

    def append(self, **kw):
        if self.t and kw["t"] <= self.t[-1]:
            raise ValueError("sample times must be strictly increasing")
        vals = {}
        for key, val in kw.items():
            v = float(val)
            if not math.isfinite(v):
                raise ValueError(f"non-finite sample for {key}")
            vals[key] = v
        for key, v in vals.items():
            getattr(self, key).append(v)

    def column(self, name: str) -> np.ndarray:
        return np.asarray(getattr(self, name), dtype=float)


@dataclass
class State:
    """One instant of a run: fields, clock, and analytic-band budget."""

    grid: GridSpec
    params: Params
    t: float
    u: Field
    b: Field
    theta: float = 0.0
    step_index: int = 0
    weight_alpha: float = 1.0       # 1: plain weight; 1/kappa: kappa branch
    prev_ru: Optional[np.ndarray] = None
    prev_rb: Optional[np.ndarray] = None
    prev_dt: Optional[float] = None
    # set by step_imex: theta_comp1, umax (the CFL speed) and field_max
    # (max |u|, |b| coefficient, read by simulate's blow-up guard)
    diagnostics: dict = dc_field(default_factory=dict)

    @property
    def radius(self) -> float:
        return self.params.delta - self.params.lam * self.theta

    # Derived fields, built on first use and kept with the state: u, b and
    # t must not change after that.

    @cached_property
    def tail_sums(self):
        """tail_suffix of (u, b): shared by (v, h) in the RHS of the next
        step and by (phi, psi) in gh_fields."""
        return tail_suffix(self.u), tail_suffix(self.b)

    @cached_property
    def dy_ub(self):
        """(d_y u, d_y b): shared by the CL integral and the explicit RHS."""
        return ddy(self.u), ddy(self.b)

    @cached_property
    def gh_fields(self):
        """(phi, psi, G, H, d_y G, d_y H): shared by the theta update and the
        sampled norms.  simulate frees them before the next step."""
        phi, psi = reconstruct_phipsi(self.u, self.b, self.tail_sums)
        G, H = compute_GH(self, phi, psi)
        return phi, psi, G, H, ddy(G), ddy(H)


def make_state(grid: GridSpec, params: Params, u0: Field, b0: Field,
               branch: str = "auto") -> State:
    alpha = resolve_branch_alpha(params.kappa, branch)
    return State(grid, params, 0.0, u0.copy(), b0.copy(), theta=0.0,
                 weight_alpha=alpha)


def resolve_branch_alpha(kappa: float, branch: str) -> float:
    """Weight selector: 1 uses exp(y^2/8<t>), "kappa" uses the 1/kappa
    variant required when the magnetic diffusivity dominates."""
    if branch == "unit":
        if not kappa < 2.0:
            raise ValueError("plain-weight branch needs kappa < 2")
        return 1.0
    if branch == "kappa":
        if not kappa > 0.5:
            raise ValueError("kappa-weight branch needs kappa > 1/2")
        return 1.0 / kappa
    if branch == "auto":
        return 1.0 if kappa <= 1.0 else 1.0 / kappa
    raise ValueError(f"unknown branch {branch!r}")


def branch_gain(params: Params, weight_alpha: float) -> float:
    """Decay-rate gain for the active branch (enters the time weight of
    the accumulated squared gradient norm)."""
    exps = derived_exponents(params)
    if weight_alpha == 1.0:
        gain = exps["l"]
    else:
        gain = exps["ell"]
    if gain is None:
        raise ValueError("kappa outside the active branch's range")
    return gain


# ---- kinematic reconstructions ----------------------------------------------


def recover_vh(u: Field, b: Field, check: bool = True,
               sums: Optional[tuple] = None):
    """Normal components from the divergence constraints:
    (v, h) = -d_x int_0^y (u, b) dy'.  Exact zero at the wall; decays at
    the top when the column fluxes vanish.  `sums` is the pair of
    tail_suffix arrays of (u, b) when the caller holds them."""
    if check:
        scale = max(float(np.max(np.abs(u.coeffs))),
                    float(np.max(np.abs(b.coeffs))), 1e-300)
        drift = flux_drift(u, b)
        if drift > 1e-6 * scale:
            raise FluxDriftError(
                f"nonzero-mode column flux {drift:.3e} vs field scale "
                f"{scale:.3e}; divergence-free recovery would not close")
    su, sb = sums or (None, None)
    v = ddx(integrate_y_from0(u, su))
    h = ddx(integrate_y_from0(b, sb))
    v.coeffs *= -1.0
    h.coeffs *= -1.0
    return v, h


def flux_drift(u: Field, b: Field) -> float:
    """Largest column flux over the x-varying modes of u and b."""
    fu = column_flux(u)
    fb = column_flux(b)
    return max(float(np.max(np.abs(fu[1:]))), float(np.max(np.abs(fb[1:]))))


def reconstruct_phipsi(u: Field, b: Field, sums: Optional[tuple] = None):
    """Antiderivatives phi = -int_y^inf u, psi = -int_y^inf b; both vanish
    at the top by construction and at the wall up to the column flux.
    `sums` as in recover_vh."""
    su, sb = sums or (None, None)
    phi = integrate_y_tail(u, su)
    psi = integrate_y_tail(b, sb)
    phi.coeffs *= -1.0
    psi.coeffs *= -1.0
    return phi, psi


def compute_GH(state: State, phi: Field, psi: Field):
    """Damped combinations G = u + y phi / (2<t>), H = b + y psi /
    (2 kappa <t>); G inherits the wall zero of u, H keeps the zero wall
    slope of b."""
    y = state.grid.y[:, None]
    tt = 1.0 + state.t
    gc = state.u.coeffs + (y / (2.0 * tt)) * phi.coeffs
    hc = state.b.coeffs + (y / (2.0 * state.params.kappa * tt)) * psi.coeffs
    return (Field(state.grid, gc, BC_DIRICHLET),
            Field(state.grid, hc, BC_NEUMANN))


# ---- explicit tendencies -----------------------------------------------------


def rhs_explicit(state: State, farfield: Optional[FarField] = None,
                 ws: Optional[_Workspace] = None):
    """Everything except the implicit diffusion: linear background
    coupling, the quadratic transport terms, far-field couplings through
    its cutoff, and the patching sources.  Products are formed pointwise
    in physical space and dealiased.  Returns (ru, rb, umax), umax the
    largest physical |u| (plus |U| with a far field) for the CFL bound."""
    g = state.grid
    p = state.params
    u, b = state.u, state.b

    # the eight factors, inverse-transformed in one call from ws.factors
    ws = ws or _Workspace(g)
    ixi = 1j * g.xi
    duy, dby = state.dy_ub
    v, h = recover_vh(u, b, check=False, sums=state.tail_sums)
    spec = ws.factors[:, :, :g.nmodes]
    spec[0] = u.coeffs
    spec[1] = b.coeffs
    np.multiply(u.coeffs, ixi, out=spec[2])
    np.multiply(b.coeffs, ixi, out=spec[3])
    spec[4] = duy.coeffs
    spec[5] = dby.coeffs
    spec[6] = v.coeffs
    spec[7] = h.coeffs
    dux, dbx = spec[2], spec[3]
    u_p, b_p, dux_p, dbx_p, duy_p, dby_p, v_p, h_p = x_transform(
        g, ws.factors, "inverse")

    umax = float(np.max(np.abs(u_p)))

    nl = np.empty((2, g.ny, g.nx))
    nl[0] = u_p * dux_p - b_p * dbx_p + v_p * duy_p - h_p * dby_p
    nl[1] = u_p * dbx_p - b_p * dux_p + v_p * dby_p - h_p * duy_p

    if farfield is not None:
        U_p, dxU_p = farfield.physical_rows(state.t)
        umax += float(np.max(np.abs(U_p)))
        c1 = farfield.cutoff.dchi[:, None]
        c0 = farfield.cutoff.chi[:, None]
        c2 = farfield.cutoff.d2chi[:, None]
        nl[0] += (c1 * (U_p * dux_p) + c1 * (dxU_p * u_p)
                  + c0 * (-dxU_p * duy_p) + c2 * (U_p * v_p))
        nl[1] += (c1 * (U_p * dbx_p) + c1 * (-dxU_p * b_p)
                  + c0 * (-dxU_p * dby_p) + c2 * (-U_p * h_p))

    # nl_u and nl_b forward-transformed in one call
    r = x_transform(g, nl, "forward")
    np.negative(r, out=r)
    ru, rb = r
    ru += p.bbar * dbx
    rb += p.bbar * dux

    if farfield is not None:
        ru += source_terms(farfield, state.t).coeffs

    return (Field(g, ru, BC_DIRICHLET), Field(g, rb, BC_NEUMANN), umax)


# ---- theta -----------------------------------------------------------------


def theta_components(state: State, farfield: Optional[FarField],
                     part: DyadicPartition, radius: float):
    """The two terms of the band consumption rate at band radius `radius`:
    <t>^{1/4} times the weighted gradient norm of (G, H) in B^{1/2,0}, and
    the far-field term eps^{-1/2} <t>^{5/4} ||U||_{B^{1/2}_h} under the
    same band multiplier (B = 0, so ||(U, B)|| = ||U||)."""
    *_, dG, dH = state.gh_fields
    t = state.t
    per = pair_shell_norms(part, dG, dH, state.weight_alpha, t, radius)
    comp1 = (1.0 + t) ** 0.25 * part.besov_sum(per, 0.5)
    comp2 = 0.0
    if farfield is not None:
        su = besov_h_shell_norms(part, farfield.u_spec(t), r=radius)
        comp2 = (state.params.epsilon ** (-0.5) * (1.0 + t) ** 1.25
                 * part.besov_sum(su, 0.5))
    return comp1, comp2


# ---- Crank-Nicolson machinery ------------------------------------------------


def _cn_matrix(ny: int, dy: float, nu: float, dt: float, bc: str) -> np.ndarray:
    """Banded (1,1) form of I - (dt/2) nu D2 with the bc ghost closure at
    the wall and pinned values at both Dirichlet rows."""
    r = nu * dt / (2.0 * dy * dy)
    ab = np.zeros((3, ny))
    ab[1, :] = 1.0 + 2.0 * r
    ab[0, 2:] = -r          # upper diagonal, rows 1..ny-2
    ab[2, :-2] = -r         # lower diagonal
    if bc == BC_DIRICHLET:
        ab[1, 0] = 1.0
        ab[0, 1] = 0.0
    else:
        ab[1, 0] = 1.0 + 2.0 * r
        ab[0, 1] = -2.0 * r
    ab[1, -1] = 1.0
    ab[2, -2] = 0.0
    return ab


# Rows per block of the spike solve: blocks small enough that their dense
# inverses stay cheap to apply, few enough that the interface system is
# small (48 unknowns at ny = 768).
_CN_BLOCK = 32


@dataclass(frozen=True)
class CNFactors:
    """A tridiagonal system prefactored for the block ("spike") solve of
    Polizzi & Sameh (Parallel Computing 32, 2006).

    The n rows, padded with identity rows to nb blocks of m, split into
    diagonal blocks A_k and the two entries that couple neighbouring
    blocks.  With x_k = A_k^{-1} b_k - up_k x_{k+1}[0] - down_k x_{k-1}[-1],
    the first and last unknown of every block solve a 2 nb interface
    system, kept as its inverse.  CN matrices are strictly diagonally
    dominant M-matrices, so the inverses need no pivoting and are
    nonnegative: for a one-signed right-hand side every sum in a solve
    adds terms of one sign, and far rows keep their relative accuracy."""

    n: int
    inv_blocks: np.ndarray       # (nb, m, m): A_k^{-1}
    up: np.ndarray               # (nb, m): A_k^{-1} column m-1 x coupling
    down: np.ndarray             # (nb, m): A_k^{-1} column 0 x coupling
    inv_interface: np.ndarray    # (2 nb, 2 nb), unknowns (x_k[0], x_k[-1])


def cn_factors(ab: np.ndarray) -> CNFactors:
    """Factor the banded (1,1) matrix `ab` (the _cn_matrix layout)."""
    n, m = ab.shape[1], _CN_BLOCK
    nb = -(-n // m)
    diag = np.ones(nb * m)
    diag[:n] = ab[1]
    sup = np.zeros(nb * m)           # A[i, i + 1]
    sup[:n - 1] = ab[0, 1:]
    sub = np.zeros(nb * m)           # A[i + 1, i]
    sub[:n - 1] = ab[2, :-1]
    i = np.arange(m)
    blocks = np.zeros((nb, m, m))
    blocks[:, i, i] = diag.reshape(nb, m)
    blocks[:, i[:-1], i[1:]] = sup.reshape(nb, m)[:, :-1]
    blocks[:, i[1:], i[:-1]] = sub.reshape(nb, m)[:, :-1]
    inv = np.linalg.inv(blocks)
    # the entries that straddle a block edge; both are 0 after the last block
    up = inv[:, :, -1] * sup[m - 1::m, None]
    down = np.zeros((nb, m))
    down[1:] = inv[1:, :, 0] * sub[m - 1:-1:m, None]
    k = np.arange(nb - 1)
    interface = np.eye(2 * nb).reshape(nb, 2, nb, 2)
    interface[k, :, k + 1, 0] = up[:-1][:, [0, -1]]
    interface[k + 1, :, k, 1] = down[1:][:, [0, -1]]
    return CNFactors(n, inv, up, down,
                     np.linalg.inv(interface.reshape(2 * nb, 2 * nb)))


def solve_banded(factors: CNFactors, b: np.ndarray) -> np.ndarray:
    """x with A x = b for the prefactored A; b is (n, cols), real or
    complex, and a complex b is solved as its real (n, 2 cols) view.
    One stacked matmul over the blocks, one interface matmul and two
    broadcast corrections."""
    inv = factors.inv_blocks
    nb, m, _ = inv.shape
    b = np.ascontiguousarray(b)
    rows = b.view(np.float64).reshape(factors.n, -1)
    cols = rows.shape[1]
    if nb * m != factors.n:
        rows = np.concatenate([rows, np.zeros((nb * m - factors.n, cols))])
    x = inv @ rows.reshape(nb, m, cols)
    ends = factors.inv_interface @ x[:, [0, -1]].reshape(2 * nb, cols)
    ends = ends.reshape(nb, 2, cols)
    x[:-1] -= factors.up[:-1, :, None] * ends[1:, None, 0]
    x[1:] -= factors.down[1:, :, None] * ends[:-1, None, 1]
    return x.reshape(nb * m, cols)[:factors.n].view(b.dtype)


class _Workspace:
    """Per-run cache: the LP partition, the zero-flux shapes, one CN
    factorization per (nu, dt, bc) (a CFL change of dt adds one) and the
    RHS factor stack."""

    def __init__(self, grid: GridSpec):
        self.grid = grid
        self.part = build_partition(grid)
        self._cn = {}
        self._shapes = {}

    def projection_shapes(self, nu_u: float):
        """Zero-flux shapes for momentum diffusivity nu_u: the standard ones
        at nu_u = 1, the conjugate system's (kappa = 1 / nu_u) otherwise."""
        if nu_u not in self._shapes:
            self._shapes[nu_u] = flux_projection_profiles(self.grid, 1 / nu_u)
        return self._shapes[nu_u]

    def cn_factors(self, nu: float, dt: float, bc: str) -> CNFactors:
        key = (nu, dt, bc)
        if key not in self._cn:
            self._cn[key] = cn_factors(
                _cn_matrix(self.grid.ny, self.grid.dy, nu, dt, bc))
        return self._cn[key]

    @cached_property
    def factors(self) -> np.ndarray:
        """The RHS's 8 product factors, (8, ny, nx/2 + 1): only the stored
        modes are written, so the inverse transform needs no padding."""
        return np.zeros((8, self.grid.ny, self.grid.nx // 2 + 1), complex)


def _cn_solve(ws: _Workspace, field: Field, tendency: np.ndarray, nu: float,
              dt: float) -> Field:
    half = d2dy(field).coeffs * (0.5 * dt * nu)
    rhs = field.coeffs + half + dt * tendency
    if field.bc == BC_DIRICHLET:
        rhs[0] = 0.0
    rhs[-1] = 0.0
    out = solve_banded(ws.cn_factors(nu, dt, field.bc), b=rhs)
    return Field(field.grid, out, field.bc)


def _diffusivities(params: Params) -> tuple:
    nu_u = params.nu_u or 1.0
    nu_b = params.nu_b or params.kappa
    return nu_u, nu_b


def step_imex(state: State, dt: float, farfield: Optional[FarField] = None,
              ws: Optional[_Workspace] = None) -> State:
    """One IMEX step: AB2 (RK2 midpoint bootstrap) for the explicit
    tendencies, Crank-Nicolson for diffusion, zero-flux projection of the
    x-varying modes, then an Euler update of theta using the end-of-step
    fields and the pre-step band radius."""
    if state.radius <= 0.0:
        raise TStarReachedError(f"band exhausted at t={state.t:.6g}")
    if ws is None:
        ws = _Workspace(state.grid)
    nu_u, nu_b = _diffusivities(state.params)

    ru0, rb0, umax = rhs_explicit(state, farfield, ws)
    restart = (state.prev_ru is None or state.prev_dt is None
               or abs(state.prev_dt - dt) > 1e-9 * dt)
    if restart:
        # the midpoint state is a temporary, so its derived fields are
        # freed before the CN solves
        rum, rbm, _ = rhs_explicit(
            State(state.grid, state.params, state.t + 0.5 * dt,
                  Field(state.grid, state.u.coeffs + 0.5 * dt * ru0.coeffs,
                        state.u.bc),
                  Field(state.grid, state.b.coeffs + 0.5 * dt * rb0.coeffs,
                        state.b.bc),
                  theta=state.theta, weight_alpha=state.weight_alpha),
            farfield, ws)
        eu, eb = rum.coeffs, rbm.coeffs
    else:
        eu = 1.5 * ru0.coeffs - 0.5 * state.prev_ru
        eb = 1.5 * rb0.coeffs - 0.5 * state.prev_rb

    u1 = _cn_solve(ws, state.u, eu, nu_u, dt)
    b1 = _cn_solve(ws, state.b, eb, nu_b, dt)
    shape_u, shape_b = ws.projection_shapes(nu_u)
    u1 = project_zero_flux(u1, shape_u)
    b1 = project_zero_flux(b1, shape_b)

    # np.max keeps a NaN of either field, where Python's max may drop it
    m = float(np.max([np.max(np.abs(u1.coeffs)), np.max(np.abs(b1.coeffs))]))
    if not math.isfinite(m):
        raise DivergenceError(f"non-finite fields after step at t={state.t:.6g}")

    t1 = state.t + dt
    new = State(state.grid, state.params, t1, u1, b1, theta=state.theta,
                step_index=state.step_index + 1,
                weight_alpha=state.weight_alpha,
                prev_ru=ru0.coeffs, prev_rb=rb0.coeffs, prev_dt=dt)
    comp1, comp2 = theta_components(new, farfield, ws.part, state.radius)
    new.theta = state.theta + dt * (comp1 + comp2)
    new.diagnostics["theta_comp1"] = comp1
    new.diagnostics["umax"] = umax
    new.diagnostics["field_max"] = m
    if new.radius <= 0.0:
        raise TStarReachedError(f"band exhausted at t={t1:.6g}")
    return new


# ---- audits ------------------------------------------------------------------


def heat_energy_slack(f_old: Field, f_new: Field, t_old: float, t_new: float,
                      alpha: float, beta: float) -> float:
    """Discrete form of the weighted energy inequality
    (d_t f - beta d2y f | e^{2 alpha Psi} f) >= (1/2) d/dt ||e^{alpha Psi} f||^2
    + (beta - beta^2 alpha / 2) ||e^{alpha Psi} d_y f||^2.

    Time derivative by forward difference, spatial terms at the midpoint
    state; returns lhs - rhs (nonnegative up to O(dt + dy^2) slack).
    Raises TailViolationError if a row with nonzero field content meets an
    overflowed weight (tall domains overflow the squared weight near the
    top at small t; those rows carry exactly-zero fields and drop out)."""
    g = f_old.grid
    dt = t_new - t_old
    tm = 0.5 * (t_old + t_new)
    mid = Field(g, 0.5 * (f_old.coeffs + f_new.coeffs), f_old.bc)
    dfdt = (f_new.coeffs - f_old.coeffs) / dt
    lap = d2dy(mid).coeffs
    inner = dfdt - beta * lap
    m = mid.coeffs
    # Re(inner conj(mid)) summed over all nx modes
    rowsum = np.einsum("yj,j->y", inner.real * m.real + inner.imag * m.imag,
                       g.mode_weights)
    with np.errstate(over="ignore"):
        w = g.trapz_weights * psi_weight(g, alpha, tm) ** 2
    contrib = weighted_rows(rowsum, w, "energy audit")
    ip = float(np.add.reduce(contrib) * g.lx)
    n_new = weighted_l2(f_new, alpha, t_new)
    n_old = weighted_l2(f_old, alpha, t_old)
    ddt_norm = (n_new ** 2 - n_old ** 2) / (2.0 * dt)
    n_dy = weighted_l2(Field(g, ddy(mid).coeffs, mid.bc), alpha, tm)
    rhs = ddt_norm + (beta - 0.5 * beta ** 2 * alpha) * n_dy ** 2
    return ip - rhs


def tail_guard_check(state: State) -> float:
    """Ratio of the weighted field magnitude above 0.8 ymax to its global
    max; raises when the truncation stops being faithful (> 1e-8)."""
    g = state.grid
    w = psi_weight(g, state.weight_alpha, state.t)
    worst = 0.0
    for f in (state.u, state.b):
        amp = weighted_rows(np.sqrt(row_power(f)), w, "field")
        m = float(np.max(amp))
        if m == 0.0:
            continue
        top = float(np.max(amp[g.y > 0.8 * g.ymax]))
        worst = max(worst, top / m)
    if worst > 1e-8:
        raise TailViolationError(
            f"weighted tail ratio {worst:.3e} above 0.8*ymax at t="
            f"{state.t:.6g}; domain too short for this horizon")
    return worst


# ---- consistency residual of the antiderivative system -----------------------


def eqs2_residual(state_prev: State, state_next: State,
                  farfield: Optional[FarField] = None,
                  part: Optional[DyadicPartition] = None) -> dict:
    """Residual of the antiderivative evolution equations evaluated on two
    consecutive solver states: forward time difference of the
    reconstructed (phi, psi) minus the spatial terms at the earlier time.

    First order in dt by construction (the audit target), second order in
    dy away from the walls; boundary rows are excluded since one-sided
    closures there would dominate the measurement.
    """
    g = state_prev.grid
    p = state_prev.params
    if part is None:
        part = build_partition(g)
    dt = state_next.t - state_prev.t
    if dt <= 0.0:
        raise ValueError("states must be time ordered")
    nu_u, nu_b = _diffusivities(p)

    phi0, psi0 = reconstruct_phipsi(state_prev.u, state_prev.b)
    phi1, psi1 = reconstruct_phipsi(state_next.u, state_next.b)
    dphi = (phi1.coeffs - phi0.coeffs) / dt
    dpsi = (psi1.coeffs - psi0.coeffs) / dt

    u, b = state_prev.u, state_prev.b
    ixi = 1j * g.xi
    dxphi = phi0.coeffs * ixi
    dxpsi = psi0.coeffs * ixi
    lap_phi = d2dy(phi0).coeffs
    lap_psi = d2dy(psi0).coeffs
    duy, dby = state_prev.dy_ub

    # factors inverse-transformed in one call, products forward in one
    factors = [u.coeffs, b.coeffs, dxphi, dxpsi, duy.coeffs, dby.coeffs]
    if farfield is not None:
        factors.append(phi0.coeffs)
    phys = x_transform(g, np.stack(factors), "inverse")
    u_p, b_p, dxphi_p, dxpsi_p, duy_p, dby_p = phys[:6]
    products = [u_p * dxphi_p - b_p * dxpsi_p,
                u_p * dxpsi_p - b_p * dxphi_p,
                dxphi_p * duy_p - dxpsi_p * dby_p]
    if farfield is not None:
        U_p, dxU_p = farfield.physical_rows(state_prev.t)
        phi_p = phys[6]
        products += [U_p * dxphi_p, -dxU_p * u_p, dxU_p * phi_p,
                     U_p * dxpsi_p, -dxU_p * b_p]
    spec = x_transform(g, np.stack(products), "forward")

    adv_phi, adv_psi, cross = spec[:3]
    tail_cross = integrate_y_tail(Field(g, cross, BC_NEUMANN)).coeffs

    res_phi = (dphi - nu_u * lap_phi - p.bbar * dxpsi + adv_phi
               + 2.0 * tail_cross)
    res_psi = (dpsi - nu_b * lap_psi - p.bbar * dxphi + adv_psi)

    if farfield is not None:
        c0 = farfield.cutoff.chi[:, None]
        c1 = farfield.cutoff.dchi[:, None]
        c2 = farfield.cutoff.d2chi[:, None]
        t1, t3, t4, s1, s3 = spec[3:]
        t2 = integrate_y_tail(Field(g, c2 * t1, BC_NEUMANN)).coeffs
        t5 = integrate_y_tail(Field(g, c2 * t4, BC_NEUMANN)).coeffs
        res_phi += c1 * t1 + 2.0 * t2 + c0 * t3 + 2.0 * c1 * t4 + 2.0 * t5
        res_psi += c1 * s1 + c0 * s3
        # the source's tail integral F_u = -int_y^ymax f_u enters as -F_u
        f_u = source_terms(farfield, state_prev.t)
        res_phi += integrate_y_tail(f_u).coeffs

    res_phi[0] = 0.0
    res_phi[-1] = 0.0
    res_psi[0] = 0.0
    res_psi[-1] = 0.0
    fphi = Field(g, res_phi, BC_DIRICHLET)
    fpsi = Field(g, res_psi, BC_DIRICHLET)
    return {
        "res_phi": fphi,
        "res_psi": fpsi,
        "norm_phi": besov_norm(part, fphi, 0.5),
        "norm_psi": besov_norm(part, fpsi, 0.5),
    }


# ---- rescaling map -----------------------------------------------------------


def kappa_rescale_map(grid: GridSpec, u: Field, b: Field, kappa: float):
    """Resample (u, b) onto the y / sqrt(kappa) grid (cubic in y).

    The companion change of variables divides both diffusivities by kappa
    and scales the normal components by 1/sqrt(kappa); tangential fields
    keep their amplitude, so only the grid and sample heights change here.
    """
    if kappa <= 0.0:
        raise ValueError("kappa must be positive")
    from scipy.interpolate import CubicSpline
    root = math.sqrt(kappa)
    new_grid = GridSpec(grid.lx, grid.nx, grid.ymax / root, grid.ny,
                        grid.dealias_fraction)
    src = grid.y
    tgt = new_grid.y * root          # heights in the source coordinate
    if tgt[-1] > src[-1] * (1.0 + 1e-9):
        raise ValueError("target grid reaches above the source domain")
    tgt = np.minimum(tgt, src[-1])
    out = []
    for f in (u, b):
        spl_r = CubicSpline(src, f.coeffs.real, axis=0)
        spl_i = CubicSpline(src, f.coeffs.imag, axis=0)
        c = spl_r(tgt) + 1j * spl_i(tgt)
        out.append(Field(new_grid, c, f.bc))
    return new_grid, out[0], out[1]


# ---- driver ------------------------------------------------------------------


@dataclass
class SimResult:
    state: State
    series: NormSeries
    summary: dict
    reason: str


_AUDIT_EVERY = 10


def simulate(grid: GridSpec, params: Params, u0: Field, b0: Field,
             farfield: Optional[FarField] = None,
             t_final: float = 1.0, dt_max: float = 1e-2, cfl: float = 0.4,
             sample_every: int = 10, branch: str = "auto",
             resume_state: Optional[State] = None,
             resume_extras: Optional[dict] = None) -> SimResult:
    """Run the IMEX loop to t_final with sampling, guards, and audits.

    Returns the final state plus the sampled series and a summary with
    the audit minima, theta bookkeeping, and flux statistics.  Raises
    TStarReachedError / DivergenceError / TailViolationError with partial
    output attached when a guard fires, and ValueError before the first
    sample when the far field's cutoff is unresolved on the grid.
    """
    if farfield is not None:
        if params.kappa == 1.0:
            raise UnsupportedScenarioError(
                "kappa = 1 runs require the trivial far field")
        farfield.cutoff    # sampled now, so a bad grid fails before output
    ws = _Workspace(grid)

    if resume_state is not None:
        state = resume_state
    else:
        state = make_state(grid, params, u0, b0, branch)
    try:
        gain = branch_gain(params, state.weight_alpha)
    except ValueError:
        gain = 0.0   # conjugate-system runs sit outside the branch ranges

    weight_exp = 2.0 * (0.5 + gain)
    # distinct (alpha, beta) audit combinations in first-seen order; at
    # kappa = 1 all four collapse to one
    audit_pairs = dict.fromkeys((al, be) for al in (1.0, 1.0 / params.kappa)
                                for be in (1.0, params.kappa))
    cl = CLAccumulator(ws.part, 0.5, 2.0)
    theta_int1 = 0.0
    audit_min = {}
    series = NormSeries()
    if resume_extras:
        cl.integrals[:] = np.asarray(resume_extras["cl_integrals"])
        theta_int1 = float(resume_extras["theta_int1"])
        audit_min = dict(resume_extras.get("audit_min", {}))

    def take_sample(st: State):
        phi, psi, G, H, dG, dH = st.gh_fields
        a = st.weight_alpha
        r = st.radius
        series.append(
            t=st.t, theta=st.theta, radius=st.radius,
            norm_ub=besov_pair_norm(ws.part, st.u, st.b, 0.5, a, st.t, r),
            norm_gh=besov_pair_norm(ws.part, G, H, 0.5, a, st.t, r),
            norm_dy_gh=besov_pair_norm(ws.part, dG, dH, 0.5, a, st.t, r),
            norm_phipsi=besov_pair_norm(ws.part, phi, psi, 0.5, a, st.t, r),
            cl_dyub_sq=cl.value() ** 2, theta_integral1=theta_int1)
        tail_guard_check(st)

    scale0 = max(float(np.max(np.abs(state.u.coeffs))),
                 float(np.max(np.abs(state.b.coeffs))))
    blow_limit = 1e6 * (scale0 + 1.0)
    umax_est = scale0
    if resume_extras and "umax_est" in resume_extras:
        umax_est = float(resume_extras["umax_est"])

    def make_summary(reason):
        drift = flux_drift(state.u, state.b)
        return {
            "t_final": state.t,
            "steps": state.step_index,
            "theta_final": state.theta,
            "radius_final": state.radius,
            "theta_integral1": theta_int1,
            "flux_drift_final": drift,
            "flux_drift_per_unit": drift / max(state.t, 1e-300),
            "audit_min_slack": audit_min,
            "cl_dyub_sq_final": cl.value() ** 2,
            "weight_alpha": state.weight_alpha,
            "reason": reason,
            "_resume_extras": {"cl_integrals": cl.integrals.tolist(),
                               "theta_int1": theta_int1,
                               "audit_min": audit_min,
                               "umax_est": umax_est},
        }

    try:
        if resume_state is None:
            take_sample(state)
        while state.t < t_final - 1e-12:
            # theta and the last sample are done with the (G, H) family;
            # free it before the step allocates its own
            vars(state).pop("gh_fields", None)
            dt = _choose_dt(grid, dt_max, cfl, umax_est)
            dt = min(dt, t_final - state.t)
            # pre-step accumulations (left endpoint in time)
            du, db = state.dy_ub
            w = (1.0 + state.t) ** weight_exp
            cl.add(pair_shell_norms(ws.part, du, db, state.weight_alpha,
                                    state.t, state.radius), w, dt)

            new = step_imex(state, dt, farfield, ws)
            theta_int1 += dt * new.diagnostics["theta_comp1"]
            umax_est = new.diagnostics["umax"]

            # step_imex never modifies the fields of its input, so the
            # pre-step fields are still those of `state`
            if state.step_index % _AUDIT_EVERY == 0:
                for name, fo, fn in (("u", state.u, new.u),
                                     ("b", state.b, new.b)):
                    for al, be in audit_pairs:
                        key = f"{name}:a{al:.4g}:b{be:.4g}"
                        s = heat_energy_slack(fo, fn, state.t, new.t, al, be)
                        audit_min[key] = min(audit_min.get(key, math.inf), s)

            m = new.diagnostics["field_max"]
            if m > blow_limit:
                raise DivergenceError(
                    f"field magnitude {m:.3e} exceeds {blow_limit:.3e}")
            state = new
            if state.step_index % sample_every == 0 \
                    or state.t >= t_final - 1e-12:
                take_sample(state)
    except (TStarReachedError, DivergenceError, TailViolationError) as exc:
        reason = {TStarReachedError: "tstar",
                  DivergenceError: "divergence"}.get(type(exc), "tail")
        exc.partial = SimResult(state, series, make_summary(reason), reason)
        raise

    return SimResult(state, series, make_summary("completed"), "completed")


def _choose_dt(grid: GridSpec, dt_max: float, cfl: float, umax: float) -> float:
    """Largest power-of-two subdivision of dt_max within the CFL bound.

    Quantizing keeps dt piecewise constant so the multistep scheme rarely
    restarts; diffusion is implicit and imposes no constraint."""
    if umax <= 0.0:
        return dt_max
    dx = grid.lx / grid.nx
    limit = cfl * dx / umax
    if limit >= dt_max:
        return dt_max
    dt = dt_max
    while dt > limit:
        dt *= 0.5
        if dt < 1e-12:
            raise DivergenceError("CFL limit collapsed; velocities diverged")
    return dt


# ---- checkpointing -----------------------------------------------------------

_MAGIC = b"MHDBL\x00"
_CKPT_VERSION = 1


def save_checkpoint(path: str, state: State, farfield: Optional[FarField],
                    extras: Optional[dict] = None) -> None:
    """Binary snapshot: magic, version, JSON header, then the field and
    multistep-history arrays as little-endian complex pairs, y-major, with
    all nx x modes in FFT order; the modes above the dealias cut, which a
    field does not store, are written as zeros.  A run without a far
    field writes "farfield": null.

    Written to a temporary file beside `path` and renamed over it, so a
    failed write leaves any previous file intact."""
    ff = None
    if farfield is not None:
        g_full = full_spectrum(state.grid, farfield.g_spec)
        ff = {"kind": "decaying", "eps": farfield.eps,
              "alpha": farfield.alpha, "g_re": g_full.real.tolist(),
              "g_im": g_full.imag.tolist()}
    header = {
        "version": _CKPT_VERSION,
        "grid": {"lx": state.grid.lx, "nx": state.grid.nx,
                 "ymax": state.grid.ymax, "ny": state.grid.ny,
                 "dealias_fraction": state.grid.dealias_fraction},
        "params": {"kappa": state.params.kappa,
                   "epsilon": state.params.epsilon,
                   "delta": state.params.delta, "lam": state.params.lam,
                   "nu_u": state.params.nu_u, "nu_b": state.params.nu_b},
        "t": state.t, "theta": state.theta, "prev_dt": state.prev_dt,
        "step_index": state.step_index,
        "weight_alpha": state.weight_alpha,
        "has_prev": state.prev_ru is not None,
        "farfield": ff,
        "extras": extras or {},
    }
    blob = json.dumps(header).encode("utf-8")
    arrays = [state.u.coeffs, state.b.coeffs]
    if state.prev_ru is not None:
        arrays += [state.prev_ru, state.prev_rb]
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<I", _CKPT_VERSION))
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            for arr in arrays:
                fh.write(full_spectrum(state.grid, arr).astype("<c16")
                         .tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


class CheckpointError(RuntimeError):
    pass


def load_checkpoint(path: str):
    """Inverse of save_checkpoint: returns (state, farfield, extras).

    Raises CheckpointError with a one-line message when the file cannot
    be read, is not a checkpoint, is truncated, has a header that is not
    JSON or lacks a key, or holds a spectrum that is not a real field's
    or a non-finite value.
    Modes above the dealias cut are dropped, as is a trailing exactly-0
    Chemin-Lerner shell outside the grid's window (files written when all
    modes were stored); files without the diffusivity overrides load with
    the standard pair, and a far field of kind "trivial" (older files)
    loads as None."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise CheckpointError(
            f"cannot read checkpoint {path!r}: {e.strerror or e}") from None
    buf = io.BytesIO(raw)
    if buf.read(len(_MAGIC)) != _MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    try:
        (version,) = struct.unpack("<I", buf.read(4))
        if version != _CKPT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        (hlen,) = struct.unpack("<Q", buf.read(8))
    except struct.error:
        raise CheckpointError("truncated checkpoint") from None
    try:
        header = json.loads(buf.read(hlen).decode("utf-8"))
    except ValueError:
        raise CheckpointError("checkpoint header is not valid JSON") from None
    try:
        return _restore(header, buf)
    except KeyError as e:
        raise CheckpointError(
            f"checkpoint header lacks key {e.args[0]!r}") from None
    except TypeError:
        raise CheckpointError("malformed checkpoint header") from None


def _restore(header: dict, buf: io.BytesIO):
    gd = header["grid"]
    grid = GridSpec(gd["lx"], gd["nx"], gd["ymax"], gd["ny"],
                    gd["dealias_fraction"])
    pd = header["params"]
    params = Params(pd["kappa"], pd["epsilon"], pd["delta"], pd["lam"],
                    nu_u=pd.get("nu_u"), nu_b=pd.get("nu_b"))
    n = grid.ny * grid.nx * 16

    def fold(full, name):
        try:
            return half_spectrum(grid, full)
        except ValueError:
            raise CheckpointError(f"checkpoint {name} is not the spectrum "
                                  "of a real field") from None

    def read_arr(name):
        data = buf.read(n)
        if len(data) != n:
            raise CheckpointError("truncated checkpoint")
        full = np.frombuffer(data, dtype="<c16").reshape(grid.ny, grid.nx)
        if not np.all(np.isfinite(full)):
            raise CheckpointError(f"checkpoint {name} holds non-finite "
                                  "values")
        return fold(full.astype(np.complex128), name)

    u = Field(grid, read_arr("u"), BC_DIRICHLET)
    b = Field(grid, read_arr("b"), BC_NEUMANN)
    prev_ru = prev_rb = None
    if header["has_prev"]:
        prev_ru = read_arr("prev_ru")
        prev_rb = read_arr("prev_rb")
    state = State(grid, params, header["t"], u, b, theta=header["theta"],
                  step_index=header["step_index"],
                  weight_alpha=header["weight_alpha"],
                  prev_ru=prev_ru, prev_rb=prev_rb,
                  prev_dt=header.get("prev_dt"))
    fd = header["farfield"]
    ff = None
    if fd is not None and fd["kind"] != "trivial":
        g_full = np.asarray(fd["g_re"]) + 1j * np.asarray(fd["g_im"])
        if g_full.shape != (grid.nx,):
            raise CheckpointError("checkpoint far-field profile has the "
                                  "wrong length")
        # validated as a new far field is, so a bad value exits 2
        ff = farfield_decaying(grid, params, fd["eps"], fd["alpha"],
                               fold(g_full, "far-field profile"))
    extras = header.get("extras", {})
    if not isinstance(extras, dict):
        raise CheckpointError("malformed checkpoint header")
    if "cl_integrals" in extras:
        cl, n = extras["cl_integrals"], build_partition(grid).n_shells
        if len(cl) < n or any(cl[n:]):
            raise CheckpointError(f"checkpoint holds {len(cl)} Chemin-Lerner "
                                  f"shells where the grid has {n}")
        extras["cl_integrals"] = cl[:n]
    return state, ff, extras
