"""Stand-alone numerical checks: weighted Poincare inequalities, the two
Gaussian sup constants, per-shell equivalence ratios between the raw
fields and their damped combinations, decay exponent fitting, and the
band-budget convergence report.

Inequality checks with an explicit constant are tested sharply; anything
whose constant is unspecified is tested as a finite ratio that stays put
under refinement.  Nothing in here feeds back into the time stepper, so
every function is pure.
"""

import math

import numpy as np

from .grid import TailViolationError, checked
from .lp import shell_weighted_norms
from .solver import NormSeries, State

__all__ = [
    "poincare_check", "run_poincare_suite", "sup_constants",
    "run_sup_constants_suite", "gh_equivalence_check", "fit_loglog",
    "fit_decay", "theta_report",
]

_RATIO_FLOOR = 1e-300


# ---- weighted Poincare inequalities ------------------------------------------


def poincare_check(f, t: float, kappa: float, ny: int = 2048):
    """Evaluate both lower bounds for the weighted gradient energy of a
    decaying profile f(y) on [0, inf), sampled at ny nodes of [0, 26].

    f is a callable; the weight is exp(y^2 / (8 kappa (1+t))).  Returns
    (lhs, rhs1, rhs2, passed) where

        lhs  = || w f' ||^2
        rhs1 = || w f ||^2 / (2 kappa (1+t))
        rhs2 = || w f ||^2 / (4 kappa (1+t)) + || y w f ||^2 / (16 kappa^2 (1+t)^2)

    and passed means lhs >= rhs - 1e-10 * lhs for both forms.  The
    quadrature is plain trapezoid with a second-order difference for f';
    refine ny to tighten.
    """
    checked("kappa", kappa)
    checked("t", t, "nonnegative")
    ymax = 26.0
    y = np.linspace(0.0, ymax, ny)
    h = y[1] - y[0]
    fy = np.asarray(f(y), dtype=float)
    tt = 1.0 + t
    w = np.exp(y * y / (8.0 * kappa * tt))

    wf = w * fy
    peak = float(np.max(np.abs(wf)))
    if peak > 0.0:
        tail = float(np.max(np.abs(wf[y > 0.8 * ymax])))
        if tail > 1e-8 * peak:
            raise TailViolationError(
                f"weighted profile carries {tail:.3e} of peak {peak:.3e} "
                f"near the top of the domain [0, {ymax:g}]")

    dfy = np.gradient(fy, h, edge_order=2)
    tw = np.full(ny, h)
    tw[0] = tw[-1] = 0.5 * h

    lhs = float(np.add.reduce(tw * (w * dfy) ** 2))
    l2 = float(np.add.reduce(tw * wf * wf))
    yl2 = float(np.add.reduce(tw * (y * wf) ** 2))
    rhs1 = l2 / (2.0 * kappa * tt)
    rhs2 = l2 / (4.0 * kappa * tt) + yl2 / (16.0 * (kappa * tt) ** 2)
    slack = 1e-10 * lhs
    passed = (lhs >= rhs1 - slack) and (lhs >= rhs2 - slack)
    return lhs, rhs1, rhs2, passed


def _gaussian_mixture(rng, n_terms: int):
    amps = rng.uniform(0.3, 1.0, n_terms) * rng.choice([-1.0, 1.0], n_terms)
    centers = rng.uniform(0.0, 3.0, n_terms)
    widths = rng.uniform(0.6, 1.2, n_terms)

    def f(y):
        out = np.zeros_like(np.asarray(y, dtype=float))
        for a, c, s in zip(amps, centers, widths):
            out += a * np.exp(-((y - c) ** 2) / (2.0 * s * s))
        return out

    return f


def run_poincare_suite(seed: int) -> dict:
    """Run poincare_check on 50 random Gaussian mixtures crossed with t in
    {0, 1, 10} and kappa in {0.8, 1, 1.5}.  Widths are capped so the
    weighted profile stays integrable for the smallest kappa at t = 0."""
    rng = np.random.default_rng(seed)
    mixtures = [_gaussian_mixture(rng, int(rng.integers(1, 4)))
                for _ in range(50)]
    details = []
    failures = 0
    for i, f in enumerate(mixtures):
        for t in (0.0, 1.0, 10.0):
            for kap in (0.8, 1.0, 1.5):
                lhs, r1, r2, ok = poincare_check(f, t, kap)
                if not ok:
                    failures += 1
                details.append({"mixture": i, "t": t, "kappa": kap,
                                "lhs": lhs, "rhs1": r1, "rhs2": r2,
                                "passed": bool(ok)})
    return {"suite": "poincare", "seed": seed, "cases": len(details),
            "failures": failures, "all_pass": failures == 0,
            "details": details}


# ---- the two Gaussian sup constants ------------------------------------------


def sup_constants():
    """Maximize the two comparison kernels

        K1(y) = exp(-y^2) * int_0^y exp(z^2) dz      (Dawson kernel)
        K2(y) = exp(y^2)  * int_y^inf exp(-z^2) dz

    Returns (sup1, argmax1, sup2).  K2 is monotone decreasing so its sup
    sits at y = 0 and equals sqrt(pi)/2; a coarse scan asserts the
    monotonicity rather than trusting it.
    """
    # imported here, not at module level: a run never calls this suite
    from scipy.optimize import minimize_scalar
    from scipy.special import dawsn, erfcx
    res = minimize_scalar(lambda x: -dawsn(x), bounds=(0.0, 3.0),
                          method="bounded", options={"xatol": 1e-12})
    argmax1 = float(res.x)
    sup1 = float(dawsn(argmax1))

    ys = np.linspace(0.0, 10.0, 2001)
    k2 = 0.5 * math.sqrt(math.pi) * erfcx(ys)
    if np.any(np.diff(k2) > 0.0):
        raise RuntimeError("tail kernel failed its monotonicity scan")
    sup2 = float(k2[0])
    return sup1, argmax1, sup2


def run_sup_constants_suite() -> dict:
    """Suite wrapper with an independent quadrature route for the Dawson
    kernel at its maximizer."""
    from scipy.integrate import quad
    sup1, argmax1, sup2 = sup_constants()
    inner, _ = quad(lambda z: math.exp(z * z), 0.0, argmax1)
    sup1_quad = math.exp(-argmax1 * argmax1) * inner
    return {"suite": "sup-constants",
            "sup1": sup1, "argmax1": argmax1, "sup2": sup2,
            "sup1_quadrature": sup1_quad,
            "route_gap": abs(sup1 - sup1_quad),
            "all_pass": (abs(sup1 - 0.541044) < 1e-5
                         and abs(sup2 - 0.886227) < 1e-5
                         and abs(sup1 - sup1_quad) < 1e-10)}


# ---- equivalence ratios between raw and damped fields -------------------------


def gh_equivalence_check(state: State, gamma: float) -> dict:
    """Per-shell ratio report comparing each raw field against its damped
    combination, with the numerator carrying the softened weight exponent
    gamma * alpha and the denominator the full alpha.

    Six families: the antiderivative pair against <t>^{1/2} (G, H), the
    fields themselves against (G, H), and the wall-normal gradients
    against the gradients of (G, H).  Ratios are reported per shell with
    the division floored at 1e-300; a shell where both sides sit below
    the floor is vacuous.  The caller owns cap thresholds and refinement
    comparisons; this just measures.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    part = state.ws.part
    a = state.params.weight_alpha
    t = state.t
    r = max(state.radius, 0.0)
    tt_half = math.sqrt(1.0 + t)

    phi, psi, G, H, dG, dH = state.gh_fields
    du, db = state.dy_ub

    def shells(field):
        return shell_weighted_norms(part, field, a, t, r)

    def shells_soft(field):
        return shell_weighted_norms(part, field, gamma * a, t, r)

    dens_G = shells(G)
    dens_H = shells(H)
    families = {
        "phi_vs_g": (shells_soft(phi), tt_half * dens_G),
        "u_vs_g": (shells_soft(state.u), dens_G),
        "dyu_vs_dyg": (shells_soft(du), shells(dG)),
        "psi_vs_h": (shells_soft(psi), tt_half * dens_H),
        "b_vs_h": (shells_soft(state.b), dens_H),
        "dyb_vs_dyh": (shells_soft(db), shells(dH)),
    }

    report = {"gamma": gamma, "t": t, "weight_alpha": a, "radius": r,
              "families": {}, "caps": {}}
    all_finite = True
    all_vacuous = True
    for name, (num, den) in families.items():
        ratios = []
        cap = 0.0
        vacuous = True
        for nk, dk in zip(num, den):
            if nk < _RATIO_FLOOR and dk < _RATIO_FLOOR:
                ratios.append(0.0)
                continue
            vacuous = False
            rk = nk / max(dk, _RATIO_FLOOR)
            ratios.append(rk)
            cap = max(cap, rk)
        if not vacuous:
            all_vacuous = False
        if not math.isfinite(cap):
            all_finite = False
        report["families"][name] = {"ratios": ratios, "cap": cap,
                                    "vacuous": vacuous}
        report["caps"][name] = cap
    report["vacuous"] = all_vacuous
    report["passed"] = all_finite
    return report


# ---- decay fits and the band budget -------------------------------------------


def fit_loglog(t, values, window):
    """Least-squares slope of log(values) against log(1+t) restricted to
    window = (t1, t2).  Returns (slope, stderr).  Needs at least 20
    samples and finite, strictly positive values inside the window."""
    t = np.asarray(t, dtype=float)
    v = np.asarray(values, dtype=float)
    t1, t2 = window
    mask = (t >= t1) & (t <= t2)
    if int(np.count_nonzero(mask)) < 20:
        raise ValueError(
            f"need at least 20 samples in [{t1}, {t2}], "
            f"got {int(np.count_nonzero(mask))}")
    if not (np.all(np.isfinite(t[mask])) and np.all(np.isfinite(v[mask]))):
        raise ValueError("samples in the fit window must be finite")
    if np.any(v[mask] <= _RATIO_FLOOR):
        raise ValueError("norm samples in the fit window must be positive")
    x = np.log1p(t[mask])
    y = np.log(v[mask])
    xbar = x.mean()
    ybar = y.mean()
    sxx = float(np.add.reduce((x - xbar) ** 2))
    slope = float(np.add.reduce((x - xbar) * (y - ybar))) / sxx
    resid = y - ybar - slope * (x - xbar)
    n = x.shape[0]
    stderr = math.sqrt(float(np.add.reduce(resid ** 2)) / (n - 2) / sxx)
    return slope, stderr


def fit_decay(series: NormSeries, quantity: str, window):
    """fit_loglog applied to one sampled column of a run."""
    return fit_loglog(series.column("t"), series.column(quantity), window)


def theta_report(series: NormSeries, t_split=None) -> dict:
    """Convergence bookkeeping for the band budget: the final value, the
    fraction accumulated after t_split (default: half the run), and the
    same split for the partial integral of the gradient contribution."""
    t = series.column("t")
    th = series.column("theta")
    i1 = series.column("theta_integral1")
    t_end = float(t[-1])
    if t_split is None:
        t_split = 0.5 * t_end
    th_end = float(th[-1])
    th_mid = float(np.interp(t_split, t, th))
    i1_end = float(i1[-1])
    i1_mid = float(np.interp(t_split, t, i1))
    return {
        "t_final": t_end,
        "t_split": float(t_split),
        "theta_final": th_end,
        "tail_fraction": (th_end - th_mid) / th_end if th_end > 0.0 else 0.0,
        "integral1": i1_end,
        "integral1_tail_fraction":
            (i1_end - i1_mid) / i1_end if i1_end > 0.0 else 0.0,
    }
