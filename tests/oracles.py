"""Test oracles for three tools of the paper's a priori estimates that the
scheme never forms: the residual of the (phi, psi) antiderivative system,
Bony's paraproduct split, and the convexity of the band multiplier
e^{r|D_x|} on products.  Acceptance criteria 9b and 9c and the
antiderivative-system tests check the solver's output against them.

A plain module: pytest collects no tests from it.
"""

import math
from typing import Optional

import numpy as np

from mhdbl.grid import (BC_DIRICHLET, BC_NEUMANN, Field, d2dy,
                        integrate_y_tail, x_transform)
from mhdbl.lp import (DyadicPartition, chi_lowpass, phi_shell,
                      shell_weighted_norms, shell_window)
from mhdbl.scenario import FarField, source_terms
from mhdbl.solver import State
from mhdbl.verify import _RATIO_FLOOR


# ---- consistency residual of the antiderivative system -----------------------


def eqs2_residual(state_prev: State, state_next: State,
                  farfield: Optional[FarField] = None) -> dict:
    """Residual of the antiderivative evolution equations evaluated on two
    consecutive solver states: forward time difference of the
    reconstructed (phi, psi) minus the spatial terms at the earlier time.

    First order in dt by construction (the audit target), second order in
    dy away from the walls; boundary rows are excluded since one-sided
    closures there would dominate the measurement.  The norms are the
    unweighted B^{1/2,0} norms sum_k 2^{k/2} ||Delta_k res||_{L2}.
    """
    g = state_prev.grid
    p = state_prev.params
    dt = state_next.t - state_prev.t
    if dt <= 0.0:
        raise ValueError("states must be time ordered")
    nu_u, nu_b = p.diffusivities

    phi0, psi0 = state_prev.phipsi
    phi1, psi1 = state_next.phipsi
    dphi = (phi1.coeffs - phi0.coeffs) / dt
    dpsi = (psi1.coeffs - psi0.coeffs) / dt

    u, b = state_prev.u, state_prev.b
    dxphi, dxpsi = phi0.coeffs * (1j * g.xi), psi0.coeffs * (1j * g.xi)
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
    part = state_prev.ws.part
    return {
        "res_phi": fphi,
        "res_psi": fpsi,
        "norm_phi": part.besov_sum(shell_weighted_norms(part, fphi, 0.0, 0.0)),
        "norm_psi": part.besov_sum(shell_weighted_norms(part, fpsi, 0.0, 0.0)),
    }


# ---- paraproduct -------------------------------------------------------------


def paraproduct(part: DyadicPartition, f: Field, g: Field):
    """Bony decomposition of the pointwise product on the grid.

    Returns (T_f g, T_g f, R) as Fields.  The three pieces sum exactly to
    the grid product f*g minus the product of the x means, because the
    regrouping is purely multiplicative in physical space.  The shell
    piece Delta_k f is f times phi_table's row k, the low-frequency piece
    S_k f = chi(2^-k |xi|) f (DC included).
    """
    if f.grid is not g.grid and f.grid != g.grid:
        raise ValueError("paraproduct operands must share a grid")
    gr = f.grid
    ks = part.ks

    def physical(coeffs):
        return x_transform(gr, coeffs, "inverse")

    def shell(h, k):
        return physical(h.coeffs * part.phi_table[k - part.k_min])

    def low(h, k):
        return physical(h.coeffs * chi_lowpass(gr.xi / 2.0 ** k))

    # physical shell pieces and running low-pass sums
    fp = physical(f.coeffs)
    f_shell = [shell(f, k) for k in ks]
    g_shell = [shell(g, k) for k in ks]
    f_low = [low(f, k - 1) for k in ks]
    g_low = [low(g, k - 1) for k in ks]

    t_fg = np.zeros_like(fp)
    t_gf = np.zeros_like(fp)
    for i in range(len(ks)):
        t_fg += f_low[i] * g_shell[i]
        t_gf += g_low[i] * f_shell[i]
    rem = np.zeros_like(fp)
    n = len(ks)
    for i in range(n):
        near = np.zeros_like(fp)
        for j in (i - 1, i, i + 1):
            if 0 <= j < n:
                near += g_shell[j]
        rem += f_shell[i] * near
    to_f = lambda arr, bc: Field(gr, x_transform(gr, arr, "forward"), bc)
    return to_f(t_fg, f.bc), to_f(t_gf, f.bc), to_f(rem, f.bc)


# ---- analytic-band multiplier convexity ---------------------------------------


def _ordered_spectrum(spec, lx):
    c = np.asarray(spec, dtype=complex)
    n = c.shape[0]
    j = np.rint(np.fft.fftfreq(n, 1.0 / n)).astype(int)
    order = np.argsort(j)
    return c[order], j[order] * (2.0 * math.pi / lx)


def multiplier_convexity_check(f_spec, g_spec, r: float,
                               lx: float = 2.0 * math.pi) -> dict:
    """Check, shell by shell, that the band-weighted spectrum of a
    product is dominated by the convolution of the band-weighted modulus
    spectra of the factors.

    Both inputs are mode-amplitude arrays in FFT layout.  The product
    spectrum is the exact linear convolution (no wrap-around), so the
    comparison covers the full doubled frequency range.  Passes when
    every shell obeys lhs <= rhs within a 1e-10 relative slack; at r = 0
    with single modes the two sides agree exactly.
    """
    if r < 0.0:
        raise ValueError(f"band radius must be nonnegative, got {r}")
    F, xf = _ordered_spectrum(f_spec, lx)
    G, xg = _ordered_spectrum(g_spec, lx)
    P = np.convolve(F, G)
    M = np.convolve(np.exp(r * np.abs(xf)) * np.abs(F),
                    np.exp(r * np.abs(xg)) * np.abs(G))
    dxi = 2.0 * math.pi / lx
    xi = (xf[0] / dxi + xg[0] / dxi + np.arange(P.shape[0])) * dxi
    lhs_amp = np.exp(r * np.abs(xi)) * np.abs(P)
    ks = shell_window(xi[M > 0.0])
    if not ks:
        return {"passed": True, "vacuous": True, "shells": []}
    shells = []
    passed = True
    worst = 0.0
    for k in ks:
        p2 = phi_shell(np.abs(xi) / 2.0 ** k) ** 2
        lhs_k = math.sqrt(lx * float(np.add.reduce(p2 * lhs_amp ** 2)))
        rhs_k = math.sqrt(lx * float(np.add.reduce(p2 * M ** 2)))
        excess = lhs_k - rhs_k * (1.0 + 1e-10)
        ok = excess <= _RATIO_FLOOR
        if not ok:
            passed = False
        worst = max(worst, lhs_k - rhs_k)
        shells.append({"k": k, "lhs": lhs_k, "rhs": rhs_k, "ok": ok})
    return {"passed": passed, "vacuous": False, "shells": shells,
            "max_excess": worst}
