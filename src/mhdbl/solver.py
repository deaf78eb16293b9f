"""IMEX time integration of the tangential velocity / magnetic field pair
on the half plane: Crank-Nicolson for the y diffusion, Adams-Bashforth for
everything else, with divergence-free recovery of the normal components,
antiderivative reconstruction, damped combinations, the analytic-band
budget theta(t), and checkpointing to numpy .npz archives.
"""

from __future__ import annotations

import json
import math
import os
import zipfile
from dataclasses import asdict, dataclass, field as dc_field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .grid import (BC_DIRICHLET, BC_NEUMANN, Field, GridSpec,
                   TailViolationError, checked, column_flux, d2dy, ddy,
                   integrate_y_tail, psi_weight, row_power, support,
                   weighted_l2, weighted_rows, window_array, x_transform)
from .lp import (besov_h_shell_norms, besov_pair_norm, build_partition,
                 pair_shell_norms)
from .scenario import (FarField, Params, UnsupportedScenarioError,
                       flux_projection_profiles, project_zero_flux,
                       source_terms, weight_branches)


class TStarReachedError(RuntimeError):
    """Analytic band exhausted: theta reached delta / lambda."""


class DivergenceError(RuntimeError):
    """Solution blew up or produced non-finite values."""


# ---- domain height ---------------------------------------------------------


def recommended_ymax(t_final: float, kappa: float = 1.0,
                     weight_alpha: float = 1.0) -> float:
    """Domain height tall enough for the weighted tail guard.

    The slowest-decaying weighted envelope is exp(-c y^2) with
    c = 1/(2(1+2 nu T)) - alpha/(8(1+T)) for diffusivity nu in {1, kappa};
    the guard needs that envelope below 1e-8 of its peak at 0.8 ymax,
    with some room for algebraic prefactors.
    """
    checked("t_final", t_final, "nonnegative")
    checked("kappa", kappa)
    checked("weight_alpha", weight_alpha)
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


class _Workspace:
    """A run's caches, held by each of its states (State.ws): the LP
    partition, the zero-flux shapes, the gain of the weight branch whose
    alpha is weight_alpha, one CN factorization per (nu, dt, bc) and the
    RHS factor stack; a checkpoint stores none of them.  Built once per
    run, it refuses a grid too coarse for the shapes, a weight_alpha of
    no branch at kappa and a delta whose e^(delta xi) overflows.  `key`
    is the (grid, params, weight_alpha) it was built for."""

    def __init__(self, grid: GridSpec, params: Params, weight_alpha: float):
        self.key = (grid, params, weight_alpha)
        self.grid = grid
        self.part = build_partition(grid)
        self.shapes = flux_projection_profiles(grid, params.diffusivities[0])
        self.gain = dict(weight_branches(params.kappa).values()).get(
            weight_alpha)
        if self.gain is None:
            raise ValueError(f"weight_alpha={weight_alpha!r} is the alpha of "
                             f"no weight branch at kappa={params.kappa!r}")
        xi_max = float(grid.xi[-1])
        if params.delta * xi_max > math.log(np.finfo(float).max):
            raise ValueError(f"params.delta={params.delta!r} is too large: "
                             f"e^(delta xi) overflows at xi_max={xi_max:g}")
        self._cn = {}

    def cn_factors(self, nu: float, dt: float, bc: str) -> CNFactors:
        key = (nu, dt, bc)
        if key not in self._cn:
            self._cn[key] = cn_factors(
                *_cn_matrix(self.grid.ny, self.grid.dy, nu, dt, bc))
        return self._cn[key]

    @cached_property
    def factors(self) -> np.ndarray:
        """The RHS's 8 product factors, (8, ny, nmodes): each step writes
        and inverse-transforms the rows of its window."""
        return np.zeros((8, self.grid.ny, self.grid.nmodes), complex)


@dataclass
class State:
    """One instant of a run: everything a continuation reads.

    The fields and the clock; the analytic-band budget theta and the
    running integral of its gradient term; the multistep history; the
    speed that sets the next CFL step; the Chemin-Lerner shell integrals
    and the audit minima so far; and the blow-up limit fixed at t = 0.
    A checkpoint stores exactly these, so a resumed run continues the
    unbroken one bit for bit.  Beside them `ws`, the run's caches: passed
    on by dataclasses.replace, so a run's states share one, built anew
    when not given or built for another grid, params or weight_alpha, and
    left out of equality, repr and checkpoints."""

    grid: GridSpec
    params: Params
    t: float
    u: Field
    b: Field
    theta: float = 0.0
    step_index: int = 0
    weight_alpha: float = 1.0       # 1: plain weight; 1/kappa: kappa branch
    prev_ru: Optional[Field] = None     # the last step's tendencies
    prev_rb: Optional[Field] = None
    prev_dt: Optional[float] = None
    theta_int1: float = 0.0         # int_0^t of theta's first component
    umax: float = 0.0               # the CFL speed of the last RHS
    cl_integrals: Optional[np.ndarray] = None   # per dyadic shell; 0 if None
    audit_min: dict = dc_field(default_factory=dict)
    blow_limit: float = math.inf    # step_imex refuses a larger max |u|, |b|
    ws: Optional[_Workspace] = dc_field(default=None, compare=False,
                                        repr=False)

    def __post_init__(self):
        if self.ws is None or self.ws.key != (self.grid, self.params,
                                              self.weight_alpha):
            self.ws = _Workspace(self.grid, self.params, self.weight_alpha)
        if self.cl_integrals is None:
            self.cl_integrals = np.zeros(self.ws.part.n_shells)

    @property
    def radius(self) -> float:
        return self.params.delta - self.params.lam * self.theta

    # Derived fields, built on first use and kept with the state: u, b and
    # t must not change after that.

    @cached_property
    def phipsi(self):
        """(phi, psi): shared by (v, h) in the RHS of the next step and by
        gh_fields."""
        return reconstruct_phipsi(self)

    @cached_property
    def dy_ub(self):
        """(d_y u, d_y b): shared by the CL integral and the explicit RHS."""
        return ddy(self.u), ddy(self.b)

    @cached_property
    def gh_fields(self):
        """(phi, psi, G, H, d_y G, d_y H): shared by the theta update and the
        sampled norms.  simulate drops them before the next step (phi and
        psi stay in phipsi)."""
        phi, psi = self.phipsi
        G, H = compute_GH(self, phi, psi)
        return phi, psi, G, H, ddy(G), ddy(H)


def make_state(grid: GridSpec, params: Params, u0: Field, b0: Field,
               branch: str = "auto") -> State:
    """The t = 0 state of a run from (u0, b0): the first CFL speed and the
    blow-up limit 1e6 (m + 1) both come from m = max |u0|, |b0|, which
    must have a finite square, as the norms need.  The state's fields are
    trimmed copies (Field.trimmed); nonzero data that the trim would
    zero whole, every part's square underflowing, is refused."""
    alpha = resolve_branch_alpha(params.kappa, branch)
    scale = max(float(np.max(np.abs(u0.data), initial=0.0)),
                float(np.max(np.abs(b0.data), initial=0.0)))
    if scale * scale == math.inf:
        raise ValueError(f"initial amplitude max |u0|, |b0| = {scale:.3e} is "
                         "too large: its square overflows a double")
    u, b = u0.copy().trimmed(), b0.copy().trimmed()
    if scale > 0.0 and u.rows == b.rows == 0:
        raise ValueError(f"initial amplitude max |u0|, |b0| = {scale:.3e} is "
                         "too small: its square underflows a double")
    return State(grid, params, 0.0, u, b, weight_alpha=alpha, umax=scale,
                 blow_limit=1e6 * (scale + 1.0))


def resolve_branch_alpha(kappa: float, branch: str) -> float:
    """The weight_alpha of `branch` in weight_branches(kappa); "auto" is
    "unit" up to kappa = 1 and "kappa" above."""
    if branch == "auto":
        branch = "unit" if kappa <= 1.0 else "kappa"
    needs = {"unit": "plain-weight branch needs kappa < 2",
             "kappa": "kappa-weight branch needs kappa > 1/2"}
    if branch not in needs:
        raise ValueError(f"unknown branch {branch!r}")
    try:
        return weight_branches(kappa)[branch][0]
    except KeyError:
        raise ValueError(needs[branch]) from None


# ---- kinematic reconstructions ----------------------------------------------


def recover_vh(state: State, out: np.ndarray) -> None:
    """Normal components from the divergence constraints, written into
    rows [0, n) of `out`, a (2, n, nmodes) array: (v, h) = -d_x int_0^y
    (u, b) dy', d_x being i xi per mode, with int_0^y = (phi, psi) -
    (phi, psi)|_{y=0} from the state's phipsi: the bits of
    -(integrate_y_from0 times i xi), since (-a) - (-b) = b - a exactly.
    Exact zero at the wall.  Above the support of (phi, psi) each holds
    the column flux times i xi, so it is no Field with a row bound; it
    vanishes there when the column fluxes do."""
    ixi = 1j * state.grid.xi
    for a, c in zip(state.phipsi, out):
        a.head(len(c), out=c)
        c -= a.data[0]
        c *= ixi
        c *= -1.0


def flux_drift(u: Field, b: Field) -> float:
    """Largest column flux over the x-varying modes of u and b."""
    fu = column_flux(u)
    fb = column_flux(b)
    return max(float(np.max(np.abs(fu[1:]))), float(np.max(np.abs(fb[1:]))))


def reconstruct_phipsi(state: State):
    """Antiderivatives phi = -int_y^inf u, psi = -int_y^inf b (the
    state's phipsi caches them); both vanish at the top by construction
    and at the wall up to the column flux."""
    phi = integrate_y_tail(state.u)
    psi = integrate_y_tail(state.b)
    phi.data *= -1.0
    psi.data *= -1.0
    return phi, psi


def compute_GH(state: State, phi: Field, psi: Field):
    """Damped combinations G = u + y phi / (2<t>), H = b + y psi /
    (2 kappa <t>); G inherits the wall zero of u, H keeps the zero wall
    slope of b.  Each is formed over the rows its two terms may fill."""
    tt = 1.0 + state.t
    out = []
    for f, a, scale, bc in ((state.u, phi, 2.0 * tt, BC_DIRICHLET),
                            (state.b, psi, 2.0 * state.params.kappa * tt,
                             BC_NEUMANN)):
        n = max(f.rows, a.rows)
        c = window_array(state.grid, n)
        np.multiply(state.grid.y[:n, None] / scale, a.head(n), out=c[:n])
        c[:n] += f.head(n)
        out.append(Field(state.grid, c, bc, n))
    return tuple(out)


# ---- explicit tendencies -----------------------------------------------------


def rhs_explicit(state: State, farfield: Optional[FarField] = None):
    """Everything except the implicit diffusion: linear background
    coupling, the quadratic transport terms, far-field couplings through
    its cutoff, and the patching sources.  Products are formed pointwise
    in physical space and dealiased.  Returns (ru, rb, umax), umax the
    largest physical |u| (plus |U| with a far field) for the CFL bound.

    The products are formed on the n rows of the window of (u, b), and
    ru, rb are those n rows (zero above them): every term holds a factor
    of u, b or their y derivatives, but for the far field's chi'' U (v, h)
    and its source, whose rows are those of the cutoff zone y < 2
    (Cutoff.rows).  (v and h hold the column flux above the support.)
    The factors are written into rows [0, n) of ws.factors."""
    g = state.grid
    p = state.params
    u, b = state.u, state.b
    n = max(u.window, b.window)
    if farfield is not None:
        n = max(n, farfield.cutoff.rows)

    # the eight factors, inverse-transformed in one call from ws.factors
    ws = state.ws
    ixi = 1j * g.xi
    duy, dby = state.dy_ub
    spec = ws.factors[:, :n]
    for i, f in zip((0, 1, 4, 5), (u, b, duy, dby)):
        f.head(n, out=spec[i])
    np.multiply(spec[0], ixi, out=spec[2])
    np.multiply(spec[1], ixi, out=spec[3])
    recover_vh(state, spec[6:])
    dux, dbx = spec[2], spec[3]
    u_p, b_p, dux_p, dbx_p, duy_p, dby_p, v_p, h_p = x_transform(
        g, spec, "inverse")

    umax = float(np.max(np.abs(u_p)))

    nl = np.empty((2, n, g.nx))
    nl[0] = u_p * dux_p - b_p * dbx_p + v_p * duy_p - h_p * dby_p
    nl[1] = u_p * dbx_p - b_p * dux_p + v_p * dby_p - h_p * duy_p

    if farfield is not None:
        U_p, dxU_p = farfield.physical_rows(state.t)
        umax += float(np.max(np.abs(U_p)))
        c1 = farfield.cutoff.dchi[:n, None]
        c0 = farfield.cutoff.chi[:n, None]
        c2 = farfield.cutoff.d2chi[:n, None]
        nl[0] += (c1 * (U_p * dux_p) + c1 * (dxU_p * u_p)
                  + c0 * (-dxU_p * duy_p) + c2 * (U_p * v_p))
        nl[1] += (c1 * (U_p * dbx_p) + c1 * (-dxU_p * b_p)
                  + c0 * (-dxU_p * dby_p) + c2 * (-U_p * h_p))

    # nl_u and nl_b forward-transformed in one call
    r = x_transform(g, nl, "forward")
    # -nl + bbar d_x (b, u), written as one subtraction per field
    ru = np.subtract(p.bbar * dbx, r[0])
    rb = np.subtract(p.bbar * dux, r[1])

    if farfield is not None:
        src = source_terms(farfield, state.t)
        ru[:src.rows] += src.data[:src.rows]

    return (Field(g, ru, BC_DIRICHLET, n), Field(g, rb, BC_NEUMANN, n), umax)


# ---- theta -----------------------------------------------------------------


def theta_components(state: State, farfield: Optional[FarField],
                     radius: float):
    """The two terms of the band consumption rate at band radius `radius`:
    <t>^{1/4} times the weighted gradient norm of (G, H) in B^{1/2,0}, and
    the far-field term eps^{-1/2} <t>^{5/4} ||U||_{B^{1/2}_h} under the
    same band multiplier (B = 0, so ||(U, B)|| = ||U||)."""
    *_, dG, dH = state.gh_fields
    t = state.t
    part = state.ws.part
    per = pair_shell_norms(part, dG, dH, state.weight_alpha, t, radius)
    comp1 = (1.0 + t) ** 0.25 * part.besov_sum(per)
    comp2 = 0.0
    if farfield is not None:
        su = besov_h_shell_norms(part, farfield.u_spec(t), r=radius)
        comp2 = (state.params.epsilon ** (-0.5) * (1.0 + t) ** 1.25
                 * part.besov_sum(su))
    return comp1, comp2


# ---- Crank-Nicolson machinery ------------------------------------------------


def _cn_matrix(ny: int, dy: float, nu: float, dt: float, bc: str):
    """The diagonals (sub, diag, sup) of I - (dt/2) nu D2 with the bc
    ghost closure at the wall and pinned values at both Dirichlet rows:
    sub[i] = A[i + 1, i] and sup[i] = A[i, i + 1]."""
    r = nu * dt / (2.0 * dy * dy)
    diag = np.full(ny, 1.0 + 2.0 * r)
    sub = np.full(ny - 1, -r)
    sup = np.full(ny - 1, -r)
    if bc == BC_DIRICHLET:
        diag[0] = 1.0
        sup[0] = 0.0
    else:
        sup[0] = -2.0 * r
    diag[-1] = 1.0
    sub[-1] = 0.0
    return sub, diag, sup


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


def cn_factors(sub: np.ndarray, diag: np.ndarray,
               sup: np.ndarray) -> CNFactors:
    """Factor the tridiagonal matrix with diagonals (sub, diag, sup), laid
    out as _cn_matrix returns them."""
    n, m = len(diag), _CN_BLOCK
    nb = -(-n // m)
    # padded with identity rows to nb blocks
    diag = np.concatenate([diag, np.ones(nb * m - n)])
    sup = np.concatenate([sup, np.zeros(nb * m - n + 1)])
    sub = np.concatenate([sub, np.zeros(nb * m - n + 1)])
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
    """x with A x = b for the prefactored A, where b holds rows [0, k) of
    the right-hand side, k <= n, and its rows from k up are zero; b is
    (k, cols), real or complex, and a complex b is solved as its real
    (k, 2 cols) view.  Returns rows [0, h) of x, h <= n: x is exactly
    zero from h up.

    One stacked matmul over the ceil(k / m) blocks that hold rows of b
    (the others give zero), one interface matmul over every block, and
    two broadcast corrections over the blocks up to the last one next to
    a nonzero interface value; h is where those blocks end.  Each row it
    returns equals that of the solve over every block."""
    inv = factors.inv_blocks
    nb, m, _ = inv.shape
    b = np.ascontiguousarray(b)
    k = len(b)
    live = -(-k // m)
    rows = b.view(np.float64)
    cols = rows.shape[1]
    if live * m != k:
        rows = np.concatenate([rows, np.zeros((live * m - k, cols))])
    x = inv[:live] @ rows.reshape(live, m, cols)
    edges = np.zeros((nb, 2, cols))
    edges[:live] = x[:, [0, -1]]
    ends = factors.inv_interface @ edges.reshape(2 * nb, cols)
    ends = ends.reshape(nb, 2, cols)
    # a nonzero interface value of block j corrects blocks j - 1 and j + 1
    hit = np.flatnonzero(ends.reshape(nb, -1).any(axis=1))
    top = min(nb, max(1, live, int(hit[-1]) + 2 if hit.size else 0))
    if top > live:
        x = np.concatenate([x, np.zeros((top - live, m, cols))])
    x[:top - 1] -= factors.up[:top - 1, :, None] * ends[1:top, None, 0]
    x[1:] -= factors.down[1:top, :, None] * ends[:top - 1, None, 1]
    return x.reshape(top * m, cols)[:factors.n].view(b.dtype)


def _cn_solve(ws: _Workspace, field: Field, tendency: Field, nu: float,
              dt: float) -> Field:
    """The Crank-Nicolson update of `field` with the explicit `tendency`;
    the right-hand side is formed on the rows its terms fill, each term
    added over its own stored rows.  The result claims every row the
    solve returns (the solve spreads the data upward); the trim after the
    projection finds its support and flushes its parts whose square
    underflows."""
    half = d2dy(field)
    n = max(half.rows, tendency.rows)
    rhs = half.head(n) * (0.5 * dt * nu)
    rhs += field.head(n)
    rhs += dt * tendency.head(n)
    if field.bc == BC_DIRICHLET:
        rhs[0] = 0.0
    if n == field.grid.ny:
        rhs[-1] = 0.0
    out = solve_banded(ws.cn_factors(nu, dt, field.bc), b=rhs)
    return Field(field.grid, out, field.bc)


def _ab2(r: Field, prev: Field) -> Field:
    """The Adams-Bashforth tendency 1.5 r - 0.5 prev, on the rows either
    of them fills."""
    n = max(r.rows, prev.rows)
    c = r.head(n) * 1.5
    c -= 0.5 * prev.head(n)
    return Field(r.grid, c, r.bc, n)


def _check_blow_up(state: State, fields, where: str) -> None:
    """DivergenceError unless the fields are finite and within blow_limit
    (np.max keeps a NaN of either field, where Python's max may drop it)."""
    m = float(np.max([np.max(np.abs(f.data[:f.rows]), initial=0.0)
                      for f in fields]))
    if not math.isfinite(m):
        raise DivergenceError(f"non-finite fields {where} at t={state.t:.6g}")
    if m > state.blow_limit:
        raise DivergenceError(
            f"field magnitude {m:.3e} exceeds {state.blow_limit:.3e}")


def step_imex(state: State, dt: float,
              farfield: Optional[FarField] = None) -> State:
    """One IMEX step: AB2 (RK2 midpoint bootstrap) for the explicit
    tendencies, Crank-Nicolson for diffusion, zero-flux projection of the
    x-varying modes, then an Euler update of theta using the end-of-step
    fields and the pre-step band radius.  The new state carries the
    input's tallies over; simulate adds the CL integrals and audits.

    Raises DivergenceError when the new fields are not finite or exceed
    state.blow_limit, TStarReachedError when the band is exhausted."""
    if state.radius <= 0.0:
        raise TStarReachedError(f"band exhausted at t={state.t:.6g}")
    nu_u, nu_b = state.params.diffusivities

    ru0, rb0, umax = rhs_explicit(state, farfield)
    restart = (state.prev_ru is None or state.prev_dt is None
               or abs(state.prev_dt - dt) > 1e-9 * dt)
    if restart:
        # the midpoint fields meet the blow-up limit before their products
        # can overflow; their names then pass to their tendencies, so they
        # are freed before the CN solves
        n = ru0.rows      # the tendencies' rows cover both fields' windows
        eu = Field(state.grid, state.u.head(n) + 0.5 * dt * ru0.head(n),
                   state.u.bc, n)
        eb = Field(state.grid, state.b.head(n) + 0.5 * dt * rb0.head(n),
                   state.b.bc, n)
        _check_blow_up(state, (eu, eb), "in the start-up midpoint")
        eu, eb, _ = rhs_explicit(
            replace(state, t=state.t + 0.5 * dt, u=eu, b=eb), farfield)
    else:
        eu = _ab2(ru0, state.prev_ru)
        eb = _ab2(rb0, state.prev_rb)

    u1 = _cn_solve(state.ws, state.u, eu, nu_u, dt)
    b1 = _cn_solve(state.ws, state.b, eb, nu_b, dt)
    shape_u, shape_b = state.ws.shapes
    # the projection keeps the support of the solve and its shape; the
    # result, its parts whose square underflows flushed, sets by its exact
    # support the row window of every kernel of the next step (a NaN row
    # counts as live)
    u1 = project_zero_flux(u1, shape_u).trimmed()
    b1 = project_zero_flux(b1, shape_b).trimmed()

    _check_blow_up(state, (u1, b1), "after step")

    t1 = state.t + dt
    new = replace(state, t=t1, u=u1, b=b1, step_index=state.step_index + 1,
                  prev_ru=ru0, prev_rb=rb0, prev_dt=dt,
                  umax=umax)
    comp1, comp2 = theta_components(new, farfield, state.radius)
    new.theta = state.theta + dt * (comp1 + comp2)
    new.theta_int1 = state.theta_int1 + dt * comp1
    if new.radius <= 0.0:
        raise TStarReachedError(f"band exhausted at t={t1:.6g}")
    return new


# ---- audits ------------------------------------------------------------------


def heat_energy_slack(f_old: Field, f_new: Field, t_old: float, t_new: float,
                      pairs) -> list:
    """Discrete form of the weighted energy inequality
    (d_t f - beta d2y f | e^{2 alpha Psi} f) >= (1/2) d/dt ||e^{alpha Psi} f||^2
    + (beta - beta^2 alpha / 2) ||e^{alpha Psi} d_y f||^2
    for each (alpha, beta) of `pairs`.

    Time derivative by forward difference, spatial terms at the midpoint
    state; returns lhs - rhs per pair, in the order of `pairs`
    (nonnegative up to O(dt + dy^2) slack).  The midpoint and its y
    derivatives are formed once, the weighted norms once per alpha and the
    inner product's row sums once per beta.
    Raises TailViolationError if a row with nonzero field content meets an
    overflowed weight (tall domains overflow the squared weight near the
    top at small t; those rows carry exactly-zero fields and drop out)."""
    g = f_old.grid
    dt = t_new - t_old
    tm = 0.5 * (t_old + t_new)
    # the inner product vanishes where mid does: above both supports
    n = max(f_old.rows, f_new.rows)
    old, new = f_old.head(n), f_new.head(n)
    mc = window_array(g, n)
    np.add(old, new, out=mc[:n])
    mc[:n] *= 0.5
    mid = Field(g, mc, f_old.bc, n)
    dfdt = (new - old) / dt
    lap = d2dy(mid).data[:n]
    dy_mid = ddy(mid)
    m = mc[:n]
    rowsums, weights, norms = {}, {}, {}
    slacks = []
    for alpha, beta in pairs:
        if beta not in rowsums:
            inner = dfdt - beta * lap
            # Re(inner conj(mid)) summed over all nx modes
            rowsums[beta] = np.einsum(
                "yj,j->y", inner.real * m.real + inner.imag * m.imag,
                g.mode_weights)
        if alpha not in weights:
            with np.errstate(over="ignore"):
                weights[alpha] = (g.trapz_weights[:n]
                                  * psi_weight(g, alpha, tm, n) ** 2)
        contrib = weighted_rows(rowsums[beta], weights[alpha], "energy audit")
        ip = float(np.add.reduce(contrib) * g.lx)
        if alpha not in norms:
            n_new = weighted_l2(f_new, alpha, t_new)
            n_old = weighted_l2(f_old, alpha, t_old)
            norms[alpha] = ((n_new ** 2 - n_old ** 2) / (2.0 * dt),
                            weighted_l2(dy_mid, alpha, tm) ** 2)
        ddt_norm, dy_sq = norms[alpha]
        rhs = ddt_norm + (beta - 0.5 * beta ** 2 * alpha) * dy_sq
        slacks.append(ip - rhs)
    return slacks


def tail_guard_check(state: State) -> float:
    """Ratio of the weighted field magnitude above 0.8 ymax to its global
    max; raises when the truncation stops being faithful (> 1e-8)."""
    g = state.grid
    w = psi_weight(g, state.weight_alpha, state.t,
                   max(state.u.rows, state.b.rows))
    worst = 0.0
    for f in (state.u, state.b):
        # amp over the support; the rows above it are zero
        amp = weighted_rows(np.sqrt(row_power(f)), w[:f.rows], "field")
        m = float(np.max(amp, initial=0.0))
        if m == 0.0:
            continue
        top = float(np.max(amp[g.y[:f.rows] > 0.8 * g.ymax], initial=0.0))
        worst = max(worst, top / m)
    if worst > 1e-8:
        raise TailViolationError(
            f"weighted tail ratio {worst:.3e} above 0.8*ymax at t="
            f"{state.t:.6g}; domain too short for this horizon")
    return worst


# ---- rescaling map -----------------------------------------------------------


def kappa_rescale_map(grid: GridSpec, u: Field, b: Field, kappa: float):
    """Copies of (u, b) on the y / sqrt(kappa) grid, whose node i is node
    i of `grid` at height y_i / sqrt(kappa), so it keeps its values.

    The companion change of variables divides both diffusivities by kappa
    and scales the normal components by 1/sqrt(kappa); tangential fields
    keep their amplitude, so only the grid changes here."""
    new_grid = GridSpec(grid.lx, grid.nx,
                        grid.ymax / math.sqrt(checked("kappa", kappa)),
                        grid.ny, grid.dealias_fraction)
    return (new_grid, *(Field(new_grid, f.data.copy(), f.bc, f.rows)
                        for f in (u, b)))


# ---- driver ------------------------------------------------------------------


@dataclass
class SimResult:
    """How a run ended: the last state it reached (a step that trips a
    guard is discarded; a tail trip at a sample keeps the sampled state),
    the samples, the summary, and the reason, one of "completed", "tstar"
    (band exhausted), "divergence" and "tail" (weighted tail left the
    domain), with the guard's one-line message for all but "completed"."""

    state: State
    series: NormSeries
    summary: dict
    reason: str
    message: str = ""


_AUDIT_EVERY = 10


def simulate(state: State, farfield: Optional[FarField] = None,
             t_final: float = 1.0, dt_max: float = 1e-2, cfl: float = 0.4,
             sample_every: int = 10) -> SimResult:
    """Run the IMEX loop from `state` to t_final with sampling, guards,
    and audits: a new run passes make_state(...), a resumed one the state
    load_checkpoint returns.  A state at step 0 gets the t = 0 sample.

    Every ending, a guard's included, returns a SimResult whose summary
    holds the audit minima, theta bookkeeping, and flux statistics.  Only
    input errors raise, before the first sample: UnsupportedScenarioError
    for a far field at kappa = 1, ValueError when the far field's cutoff
    is unresolved on the grid, or `grid.checked` refuses t_final, dt_max
    or cfl (not positive and finite) or sample_every (not an integer
    >= 1; a bool or a float count is refused).  The other refusals are
    those of its inputs' constructors (Params, GridSpec, FarField, and
    the state's workspace).
    """
    grid, params = state.grid, state.params
    for name, val in (("t_final", t_final), ("dt_max", dt_max),
                      ("cfl", cfl)):
        checked(name, val)
    checked("sample_every", sample_every, 1)
    if farfield is not None:
        if params.kappa == 1.0:
            raise UnsupportedScenarioError(
                "kappa = 1 runs require the trivial far field")
        farfield.cutoff    # sampled now, so a bad grid fails before output
    part = state.ws.part
    weight_exp = 2.0 * (0.5 + state.ws.gain)
    # distinct (alpha, beta) audit combinations, alpha from each weight
    # branch at kappa, in first-seen order; at kappa = 1 they collapse to one
    audit_pairs = dict.fromkeys(
        (al, be) for al, _ in weight_branches(params.kappa).values()
        for be in (1.0, params.kappa))
    series = NormSeries()

    def cl_dyub_sq(st: State) -> float:
        """The squared L~^2_t(B^{1/2}) norm of d_y (u, b) so far."""
        return part.besov_sum(st.cl_integrals ** 0.5) ** 2

    def take_sample(st: State):
        phi, psi, G, H, dG, dH = st.gh_fields
        a = st.weight_alpha
        r = st.radius
        series.append(
            t=st.t, theta=st.theta, radius=st.radius,
            norm_ub=besov_pair_norm(part, st.u, st.b, a, st.t, r),
            norm_gh=besov_pair_norm(part, G, H, a, st.t, r),
            norm_dy_gh=besov_pair_norm(part, dG, dH, a, st.t, r),
            norm_phipsi=besov_pair_norm(part, phi, psi, a, st.t, r),
            cl_dyub_sq=cl_dyub_sq(st), theta_integral1=st.theta_int1)
        tail_guard_check(st)

    def result(st: State, reason: str, message: str = "") -> SimResult:
        drift = flux_drift(st.u, st.b)
        return SimResult(st, series, {
            "t_final": st.t,
            "steps": st.step_index,
            "theta_final": st.theta,
            "radius_final": st.radius,
            "theta_integral1": st.theta_int1,
            "flux_drift_final": drift,
            "flux_drift_per_unit": drift / max(st.t, 1e-300),
            "audit_min_slack": st.audit_min,
            "cl_dyub_sq_final": cl_dyub_sq(st),
            "weight_alpha": st.weight_alpha,
            "reason": reason,
        }, reason, message)

    try:
        if state.step_index == 0:
            take_sample(state)
        while state.t < t_final - 1e-12:
            # theta and the last sample are done with the (G, H) family;
            # free it before the step allocates its own
            vars(state).pop("gh_fields", None)
            dt = _choose_dt(grid, dt_max, cfl, state.umax)
            dt = min(dt, t_final - state.t)
            # the Chemin-Lerner integrals of d_y (u, b) per shell, left
            # endpoint in time
            du, db = state.dy_ub
            per = pair_shell_norms(part, du, db, state.weight_alpha, state.t,
                                   state.radius)
            cl = (state.cl_integrals
                  + (1.0 + state.t) ** weight_exp * per ** 2.0 * dt)

            new = step_imex(state, dt, farfield)
            new.cl_integrals = cl
            # step_imex never modifies the fields of its input, so the
            # pre-step fields are still those of `state`
            if state.step_index % _AUDIT_EVERY == 0:
                new.audit_min = audit = dict(state.audit_min)
                for name, fo, fn in (("u", state.u, new.u),
                                     ("b", state.b, new.b)):
                    slacks = heat_energy_slack(fo, fn, state.t, new.t,
                                               audit_pairs)
                    for (al, be), s in zip(audit_pairs, slacks):
                        key = f"{name}:a{al:.4g}:b{be:.4g}"
                        audit[key] = min(audit.get(key, math.inf), s)
            state = new
            if state.step_index % sample_every == 0 \
                    or state.t >= t_final - 1e-12:
                take_sample(state)
    except (TStarReachedError, DivergenceError, TailViolationError) as exc:
        reason = {TStarReachedError: "tstar",
                  DivergenceError: "divergence"}.get(type(exc), "tail")
        return result(state, reason, str(exc))
    return result(state, "completed")


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

_CKPT_VERSION = 5

# The State's scalars as the header stores them, each with the rule of
# `checked` its value keeps on load (prev_dt may also be null).
_SCALARS = {"t": "nonnegative", "theta": "nonnegative", "step_index": 0,
            "weight_alpha": "positive", "prev_dt": "positive",
            "theta_int1": "nonnegative", "umax": "nonnegative",
            "blow_limit": "positive"}


def save_checkpoint(path: str, state: State, farfield: Optional[FarField],
                    extras: Optional[dict] = None) -> None:
    """Snapshot of exactly `state` as a numpy .npz archive (format version
    5, a CRC-32 per member): `header`, the JSON header as uint8 bytes,
    then u, b and, when the state has a multistep history (prev_dt not
    null), prev_ru and prev_rb, each its whole (ny, nmodes) complex128
    array (Field.coeffs).  The header holds the format version, the grid, the params,
    the state's scalars (_SCALARS), its Chemin-Lerner shell integrals and
    audit minima, the far field's eps and alpha ("farfield": null without
    one; its x profile is default_x_profile's), and the caller's
    `extras`.  Written to a temporary file beside `path` and renamed over
    it, so a failed write leaves any previous file intact."""
    ff = None
    if farfield is not None:
        ff = {"eps": farfield.eps, "alpha": farfield.alpha}
    header = {
        "version": _CKPT_VERSION,
        "grid": asdict(state.grid),
        "params": asdict(state.params),
        **{key: getattr(state, key) for key in _SCALARS},
        "cl_integrals": state.cl_integrals.tolist(),
        "audit_min": state.audit_min,
        "farfield": ff,
        "extras": extras or {},
    }
    members = {"header": np.frombuffer(json.dumps(header).encode("utf-8"),
                                       np.uint8),
               "u": state.u.coeffs, "b": state.b.coeffs}
    if state.prev_dt is not None:
        members.update(prev_ru=state.prev_ru.coeffs,
                       prev_rb=state.prev_rb.coeffs)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **members)
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
    be read, is no archive as np.savez writes it (files of format 1 to 4
    included), is cut short or extended, fails a member's CRC-32, has a
    header of another version, not JSON, without a key or of the wrong
    structure (a cl_integrals list of the wrong length, an audit_min or
    extras that is no object), holds other members than the header calls
    for, or an array that is not (ny, nmodes) complex128, has a
    non-finite value or an imaginary part in its DC column (and Nyquist
    column, when stored), which a real field's spectrum has not.

    Every number of the header meets the range check a config's meets,
    with its ValueError: a grid, params or far-field value in its
    constructor, the state's scalars, Chemin-Lerner integrals and audit
    minima in `grid.checked` under their header keys ("checkpoint t must
    be finite and >= 0, got -0.5"), and a weight_alpha of no branch at
    its kappa in the state's workspace.  A bool, a string or a float
    count ("ny": 256.0) there is refused the same way."""
    try:
        with open(path, "rb") as fh:
            members = _read_archive(fh)
    except OSError as e:
        raise CheckpointError(
            f"cannot read checkpoint {path!r}: {e.strerror or e}") from None
    try:
        header = json.loads(members.pop("header").tobytes())
    # KeyError, AttributeError: no header member, or one that is no array
    except (KeyError, AttributeError, ValueError):
        raise CheckpointError("checkpoint header is not valid JSON") from None
    try:
        if header["version"] != _CKPT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {header['version']}")
        return _restore(header, members)
    except KeyError as e:
        raise CheckpointError(
            f"checkpoint header lacks key {e.args[0]!r}") from None
    except (TypeError, OverflowError):     # OverflowError: a size past ssize_t
        raise CheckpointError("malformed checkpoint header") from None


def _read_archive(fh) -> dict:
    """The members of the archive in `fh`, each read to its end, where
    zipfile checks its CRC-32.  zipfile would also read an archive with
    bytes after the 22-byte end record, which np.savez writes last."""
    start = fh.read(4)
    fh.seek(max(fh.seek(0, os.SEEK_END) - 22, 0))
    if start != b"PK\x03\x04" or fh.read(4) != b"PK\x05\x06":
        raise CheckpointError("not a checkpoint archive of format 5, or one "
                              "cut short or with bytes past its end")
    fh.seek(0)
    try:
        with np.load(fh, allow_pickle=False) as npz:
            return {name: npz[name] for name in npz.files}
    # RuntimeError: zipfile's refusal of a member flagged as encrypted or
    # of a later zip version (NotImplementedError)
    except (EOFError, ValueError, RuntimeError, zipfile.BadZipFile,
            MemoryError) as e:
        raise CheckpointError("damaged checkpoint archive: "
                              f"{str(e) or type(e).__name__}") from None


def _restore(header: dict, members: dict):
    grid = GridSpec(**header["grid"])
    params = Params(**header["params"])
    scalars = {key: header[key] for key in _SCALARS}
    for key, rule in _SCALARS.items():
        if key != "prev_dt" or scalars[key] is not None:
            checked(f"checkpoint {key}", scalars[key], rule)
    names = ["u", "b"]
    if scalars["prev_dt"] is not None:
        names += ["prev_ru", "prev_rb"]
    if sorted(members) != sorted(names):
        raise CheckpointError(f"checkpoint holds arrays {sorted(members)}, "
                              f"its header calls for {sorted(names)}")
    # the arrays first, before anything is sized from the grid
    shape = (grid.ny, grid.nmodes)
    for name in names:
        arr = members[name]
        if not (isinstance(arr, np.ndarray) and arr.dtype == np.complex128
                and arr.shape == shape):
            raise CheckpointError(f"checkpoint {name} must be a complex128 "
                                  f"array of shape {shape}")
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"checkpoint {name} holds non-finite values")
        if Field(grid, arr).hermitian_defect():
            raise CheckpointError(f"checkpoint {name} is not the spectrum of "
                                  "a real field")
    audit = header["audit_min"]
    if not isinstance(audit, dict):
        raise CheckpointError("checkpoint audit_min must be an object of "
                              "finite numbers")
    for val in audit.values():
        checked("checkpoint audit_min", val, "finite")
    extras = header["extras"]
    if not isinstance(extras, dict):
        raise CheckpointError("malformed checkpoint header")
    fd = header["farfield"]
    # validated as a new far field is, so a bad value exits 2
    ff = None if fd is None else FarField(grid, fd["eps"], fd["alpha"])
    u = Field(grid, members["u"], BC_DIRICHLET).trimmed()
    b = Field(grid, members["b"], BC_NEUMANN).trimmed()
    # the tendencies keep their bits: no flush, only their support
    prev = {name: Field(grid, members[name], bc, support(members[name]))
            for name, bc in (("prev_ru", BC_DIRICHLET),
                             ("prev_rb", BC_NEUMANN)) if name in members}
    state = State(grid, params, u=u, b=b, audit_min=audit, **prev,
                  **scalars)
    n_shells = state.ws.part.n_shells
    cl = header["cl_integrals"]
    if not (isinstance(cl, list) and len(cl) == n_shells):
        raise CheckpointError(f"checkpoint cl_integrals must be {n_shells} "
                              "finite numbers >= 0, one per Chemin-Lerner "
                              "shell")
    for val in cl:
        checked("checkpoint cl_integrals", val, "nonnegative")
    state.cl_integrals = np.asarray(cl, dtype=float)
    return state, ff, extras
