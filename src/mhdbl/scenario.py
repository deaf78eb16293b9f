"""Problem setup: physical parameters, the wall cutoff profile, admissible
far-field flows, forcing terms, and the standard analytic initial data
family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Optional

import numpy as np

from .grid import (BC_DIRICHLET, BC_NEUMANN, Field, GridSpec, checked,
                   column_flux, window_array, x_transform)
from .lp import _gexp


class UnsupportedScenarioError(ValueError):
    """Requested far-field / parameter combination is outside the theory."""


@dataclass(frozen=True)
class Params:
    """Physical and book-keeping parameters.

    kappa is the magnetic diffusivity (momentum diffusivity is 1), epsilon
    the data amplitude, delta the initial analytic band radius, and lam
    the band consumption rate: the band at time t is delta - lam*theta(t).
    The background tangential field bbar is 1 exactly at kappa = 1 and 0
    otherwise.  branch names the run's weight branch in
    weight_branches(kappa), "auto" being "unit" up to kappa = 1 and
    "kappa" above; its (alpha, gain) are weight_alpha and weight_gain.
    """

    kappa: float
    epsilon: float
    delta: float = 1.0
    lam: float = 10.0
    # diffusivity overrides for conjugate-system audits; None means the
    # standard pair (1, kappa)
    nu_u: Optional[float] = None
    nu_b: Optional[float] = None
    branch: str = "auto"

    def __post_init__(self):
        for name in ("kappa", "epsilon", "delta", "lam", "nu_u", "nu_b"):
            val = getattr(self, name)
            if not (val is None and name.startswith("nu_")):
                checked(f"params.{name}", val)
        # the audit squares kappa as a Python float, which raises on overflow
        if not math.isfinite(self.kappa * float(self.kappa)):
            raise ValueError(f"params.kappa={self.kappa!r} is too large: the "
                             "energy audit squares it")
        name = self.branch
        if name == "auto":
            name = "unit" if self.kappa <= 1.0 else "kappa"
        needs = {"unit": "plain-weight branch needs kappa < 2",
                 "kappa": "kappa-weight branch needs kappa > 1/2"}
        # a tuple, so a header's unhashable value is refused by name too
        if name not in ("unit", "kappa"):
            raise ValueError(f"unknown branch {self.branch!r}")
        try:
            alpha, gain = weight_branches(self.kappa)[name]
        except KeyError:
            raise ValueError(needs[name]) from None
        # derived, not fields: equality and the checkpoint header leave them out
        object.__setattr__(self, "weight_alpha", alpha)
        object.__setattr__(self, "weight_gain", gain)

    @property
    def bbar(self) -> float:
        return 1.0 if self.kappa == 1.0 else 0.0

    @property
    def diffusivities(self) -> tuple:
        """(nu_u, nu_b): the overrides, or the standard pair (1, kappa)."""
        return self.nu_u or 1.0, self.nu_b or self.kappa


def weight_branches(kappa: float) -> dict:
    """{branch: (alpha, gain)} for the weight branches that exist at
    kappa: the weight exp(alpha y^2/8<t>) and the decay-rate gain in the
    time weight of the Chemin-Lerner integrals, in (0, 1/4]."""
    k = kappa
    out = {}
    if 0.0 < k < 2.0:
        out["unit"] = (1.0, k * (2.0 - k) / 4.0)
    if k > 0.5:
        out["kappa"] = (1.0 / k, (2.0 * k - 1.0) / (4.0 * k * k))
    return out


# ---- wall cutoff -----------------------------------------------------------


def _gexp_jet(s):
    """(g, g', g'') of g(s) = exp(-1/s), zero for s <= 0: g' = g/s^2 and
    g'' = g (1 - 2s)/s^4."""
    g = _gexp(s)
    s = np.where(g > 0.0, s, 1.0)       # no division where g = 0
    d1 = g / s / s
    return g, d1, d1 * (1.0 - 2.0 * s) / s / s


# The cutoff's integrals: a 20-point Gauss-Legendre rule on each of 64
# equal panels of [1, 2] takes these smooth integrands to rounding.
_PANELS = 64
_EDGES = np.linspace(1.0, 2.0, _PANELS + 1)


def _gauss_legendre(f, a, b):
    """int_a^b f, elementwise over the arrays a and b (20 nodes each).

    Each integral is summed on its own (not by a BLAS product, whose order
    depends on the batch), so its bits do not depend on the others."""
    nodes, weights = np.polynomial.legendre.leggauss(20)
    half = 0.5 * (b - a)
    pts = (0.5 * (a + b))[..., None] + half[..., None] * nodes
    return half * np.sum(f(pts) * weights, axis=-1)


@cache
def _bump_mass() -> float:
    """int_1^2 of the interior bump exp(-1/((y-1)(2-y))) = g(y-1) g(2-y),
    cached; sets the shape coefficient."""
    return float(np.sum(_gauss_legendre(
        lambda y: _gexp(y - 1.0) * _gexp(2.0 - y), _EDGES[:-1], _EDGES[1:])))


@cache
def _cutoff_at_edges() -> np.ndarray:
    """cutoff_value at the panel edges: one cumulative pass over [1, 2]."""
    panels = _gauss_legendre(cutoff_slope, _EDGES[:-1], _EDGES[1:])
    return np.concatenate([[0.0], np.cumsum(panels)])


def _slope_jet(y):
    """(chi', chi'', chi''') at y.  With s = y - 1, chi' is the step
    g(s)/(g(s) + g(1-s)) plus c times the interior bump g(s) g(1-s) =
    exp(-1/((y-1)(2-y))), whose weight c makes the total integral over
    [1, 2] exactly 2.  The quotient rule differentiates the step, the
    product rule the bump."""
    s = np.asarray(y, dtype=float) - 1.0
    a, a1, a2 = _gexp_jet(s)
    b, b1, b2 = _gexp_jet(1.0 - s)
    b1 = -b1                            # d/ds of g(1 - s)
    den, dden, d2den = a + b, a1 + b1, a2 + b2
    num = a1 * den - a * dden
    c = 1.5 / _bump_mass()
    return (a / den + c * (a * b),
            num / den ** 2 + c * (a1 * b + a * b1),
            (a2 * den - a * d2den) / den ** 2 - 2.0 * num * dden / den ** 3
            + c * (a2 * b + 2.0 * a1 * b1 + a * b2))


def cutoff_slope(y):
    """The wall cutoff's derivative: step rise on [1, 2] plus a scaled
    interior bump whose weight makes the total integral exactly 2."""
    return _slope_jet(y)[0]


def cutoff_value(y):
    """The cutoff itself: 0 for y <= 1, y for y >= 2, smooth monotone rise
    between, with unit slope and vanishing higher derivatives at y = 2.

    In the rise, the value at each point is the cumulative integral up to
    the left edge of its panel plus one Gauss-Legendre rule from there, so
    it does not depend on which other points are passed with it."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    out = np.where(y >= 2.0, y, 0.0)
    mid = (y > 1.0) & (y < 2.0)
    ym = y[mid]
    k = ((ym - 1.0) * _PANELS).astype(int)       # exact: 0 <= k < _PANELS
    out[mid] = _cutoff_at_edges()[k] + _gauss_legendre(cutoff_slope,
                                                      _EDGES[k], ym)
    return out


@dataclass
class Cutoff:
    """Wall cutoff sampled on a grid's y nodes: chi, chi', chi'', chi''';
    `rows` is the number of nodes below y = 2, the zone's top, from which
    node up chi' = 1 and chi'' = chi''' = 0 exactly."""

    chi: np.ndarray
    dchi: np.ndarray
    d2chi: np.ndarray
    d3chi: np.ndarray
    rows: int


def build_cutoff(grid: GridSpec) -> Cutoff:
    """Sample the cutoff family on the grid.

    The transition zone [1, 2] must carry at least 16 nodes; otherwise the
    forcing terms built from chi'' and chi''' are unresolved.
    """
    y = grid.y
    in_zone = np.count_nonzero((y >= 1.0) & (y <= 2.0))
    if in_zone < 16:
        raise ValueError(
            f"cutoff transition zone holds only {in_zone} nodes; need >= 16 "
            "(refine ny or shrink ymax)")
    return Cutoff(cutoff_value(y), *_slope_jet(y),
                  int(np.searchsorted(y, 2.0)))


# ---- far fields ------------------------------------------------------------


@dataclass
class FarField:
    """Tangential flow U(t, x) imposed above the layer and patched onto it
    through the wall cutoff.  A run without a far field passes None.

    U is separable: eps * <t>^{-alpha} * a(x), with a(x) the initial
    data's zero-mean profile default_x_profile, whose nmodes mode
    amplitudes are kept as g_spec.  The far magnetic field B is zero by
    construction: no supported family has B != 0, so only U is carried.
    It needs a zero background field (kappa != 1): with bbar = 1 the
    total tangential field 1 + B no longer satisfies its transport law
    unless U is x-independent, so simulate refuses a far field at
    kappa = 1.
    """

    grid: GridSpec
    eps: float
    alpha: float

    def __post_init__(self):
        eps, g = self.eps, self.grid
        # U d_x U squares the amplitude, at most eps, as a Python float
        checked("scenario.ff_eps", eps, "nonnegative")
        if not math.isfinite(eps * float(eps)):
            raise ValueError(f"scenario.ff_eps={eps!r} is too large: "
                             "U d_x U squares it")
        checked("scenario.alpha", self.alpha)
        spec = self.g_spec = default_x_profile(g)
        # time-free parts of the physical rows, transformed once: g, d_x g
        # and the spectrum of g d_x g
        self._g_row, self._dxg_row = x_transform(
            g, np.stack([spec, 1j * g.xi * spec]), "inverse")
        self._adv_spec = x_transform(g, self._g_row * self._dxg_row,
                                     "forward")

    @cached_property
    def cutoff(self) -> Cutoff:
        """The wall cutoff on this grid, sampled on first use."""
        return build_cutoff(self.grid)

    def _amp(self, t: float) -> float:
        return self.eps * (1.0 + t) ** (-self.alpha)

    def u_spec(self, t: float) -> np.ndarray:
        return self._amp(t) * self.g_spec

    def dt_u_spec(self, t: float) -> np.ndarray:
        return (-self.alpha) * self.eps * (1.0 + t) ** (-self.alpha - 1.0) \
            * self.g_spec

    def physical_rows(self, t: float):
        """(U, d_x U) at time t as physical rows of length nx."""
        amp = self._amp(t)
        return amp * self._g_row, amp * self._dxg_row

    def advection_spec(self, t: float) -> np.ndarray:
        """Mode amplitudes of U d_x U at time t."""
        return self._amp(t) ** 2 * self._adv_spec


# ---- forcing ---------------------------------------------------------------


def source_terms(ff: FarField, t: float) -> Field:
    """Forcing created by patching the far field onto the layer.

    Returns f_u, the tangential-velocity tendency, formed on the rows of
    the cutoff zone y < 2 (Cutoff.rows): its profiles 1 - chi', chi'''
    and 1 - chi'^2 + chi chi'' are exactly 0 from there up.  The
    magnetic half is zero by construction (B = 0 and bbar d_x U = 0 in
    every supported family), so it is not formed.
    """
    cut = ff.cutoff
    n = cut.rows
    chi, dchi, d2chi, d3chi = (a[:n] for a in (cut.chi, cut.dchi, cut.d2chi,
                                               cut.d3chi))
    quad_plus = 1.0 - dchi ** 2 + chi * d2chi
    cu = (np.outer(1.0 - dchi, ff.dt_u_spec(t))
          + np.outer(d3chi, ff.u_spec(t))
          + np.outer(quad_plus, ff.advection_spec(t)))
    return Field(ff.grid, cu, BC_NEUMANN, n)


# ---- initial data ----------------------------------------------------------


def default_x_profile(grid: GridSpec) -> np.ndarray:
    """Zero-mean analytic profile: stored modes j != 0 with amplitude
    e^{-xi^2}."""
    xi = grid.xi
    spec = np.exp(-xi ** 2).astype(complex)
    spec[0] = 0.0
    return spec


def flux_projection_profiles(grid: GridSpec, nu_u: float = 1.0):
    """Per-mode correction shapes used to pin the column flux to zero.

    The tangential-velocity shape vanishes at the wall; the tangential
    field shape has zero wall slope.  Both are normalized to unit
    discrete flux so subtracting flux * shape zeroes the column exactly.
    They are evaluated at y / sqrt(nu_u), so a run of the conjugate system
    (nu_u = 1 / kappa on the y / sqrt(kappa) grid) removes the correction
    field of the original run node for node.
    """
    y = grid.y / math.sqrt(checked("nu_u", nu_u))
    w = grid.trapz_weights
    with np.errstate(over="ignore"):    # y^2 = inf gives the right e^-inf = 0
        q = np.exp(-0.5 * y ** 2)
    p = y * q
    mass = w @ p
    if mass == 0.0:
        raise ValueError(
            f"grid.ymax={grid.ymax:g} over grid.ny={grid.ny} gives "
            f"dy={grid.dy:.3g}: the zero-flux shape y e^(-y^2/2) underflows "
            "to 0 at every node")
    return p / mass, q / (w @ q)


def project_zero_flux(field: Field, shape: np.ndarray) -> Field:
    """Remove the column flux of every nonzero mode along the given shape.

    The DC column is left alone: x-independent states (heating tests and
    the like) legitimately carry mean flux, and the zero-flux constraint
    comes from the x-decay of the ansatz, which only binds j != 0.  The
    result is formed on the rows the field or the shape fills.
    """
    flux = column_flux(field)
    flux[0] = 0.0
    live = np.flatnonzero(shape)
    n = max(field.rows, int(live[-1]) + 1 if live.size else 0)
    c = window_array(field.grid, n)
    np.subtract(field.head(n), np.outer(shape[:n], flux), out=c[:n])
    return Field(field.grid, c, field.bc, n)


def initial_data_standard(grid: GridSpec, params: Params):
    """Analytic compatible initial data from default_x_profile's a(x).

    u0 = eps a(x) (y - y^3/2) e^{-y^2/2} and b0 = eps a(x) (1 - y^2)
    e^{-y^2/2}.  Both y shapes integrate to zero on the half line, u0
    vanishes at the wall, b0 has zero wall slope, and the antiderivative
    pair inherits zero wall values.  Discrete column fluxes are projected
    out so the divergence-free reconstruction closes at the top.

    Returns (u0, b0, report) with the compatibility report.
    """
    x_profile = default_x_profile(grid)
    # the shapes first: they refuse a grid too coarse to hold them, before
    # the profiles' y^3 can overflow
    shape_u, shape_b = flux_projection_profiles(grid)
    y = grid.y
    pu = (y - 0.5 * y ** 3) * np.exp(-0.5 * y ** 2)
    pb = (1.0 - y ** 2) * np.exp(-0.5 * y ** 2)
    u0 = Field.from_profiles(grid, params.epsilon * x_profile, pu, BC_DIRICHLET)
    b0 = Field.from_profiles(grid, params.epsilon * x_profile, pb, BC_NEUMANN)

    u0 = project_zero_flux(u0, shape_u)
    b0 = project_zero_flux(b0, shape_b)

    eps = params.epsilon
    report = {
        "wall_value_u": float(np.max(np.abs(u0.coeffs[0]))),
        # wall slope of the field shape, from the closed form (y^3-3y)e^..
        "wall_slope_b": 0.0,
        "flux_u": float(np.max(np.abs(column_flux(u0)[1:]))),
        "flux_b": float(np.max(np.abs(column_flux(b0)[1:]))),
        "eps": eps,
    }
    report["ok"] = (report["wall_value_u"] < 1e-12
                    and report["wall_slope_b"] < 1e-12
                    and report["flux_u"] < 1e-8 * eps
                    and report["flux_b"] < 1e-8 * eps)
    return u0, b0, report
