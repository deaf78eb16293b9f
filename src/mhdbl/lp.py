"""Dyadic frequency analysis in x: the smooth shell partition and the
weighted Besov shell norms of the band budget.

Shells follow the classical convention: a low cutoff chi supported in
{|tau| <= 4/3} equal to 1 on {|tau| <= 3/4}, and phi(tau) = chi(tau/2) -
chi(tau) supported in {3/4 <= |tau| <= 8/3}, with chi + sum_{k>=0}
phi(2^-k .) = 1 and sum_{k in Z} phi(2^-k tau) = 1 for tau > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import (Field, GridSpec, TailViolationError, mode_power,
                   psi_weight, weighted_rows)


# ---- bump functions --------------------------------------------------------


def _gexp(tau):
    """exp(-1/tau) for tau > 0, 0 otherwise; C-infinity on the line."""
    tau = np.asarray(tau, dtype=float)
    out = np.zeros_like(tau)
    pos = tau > 0.0
    out[pos] = np.exp(-1.0 / tau[pos])
    return out


def smooth_step(tau):
    """C-infinity monotone 0 -> 1 transition across [0, 1]."""
    g0 = _gexp(tau)
    g1 = _gexp(1.0 - tau)
    return g0 / (g0 + g1)


_LO, _HI = 0.75, 4.0 / 3.0


def chi_lowpass(tau):
    """Low cutoff: 1 on |tau| <= 3/4, 0 on |tau| >= 4/3, smooth between."""
    t = np.abs(np.asarray(tau, dtype=float))
    return 1.0 - smooth_step((t - _LO) / (_HI - _LO))


def phi_shell(tau):
    """Shell bump chi(tau/2) - chi(tau), supported in 3/4 <= |tau| <= 8/3."""
    t = np.abs(np.asarray(tau, dtype=float))
    return chi_lowpass(t / 2.0) - chi_lowpass(t)


# ---- partition -------------------------------------------------------------


@dataclass
class DyadicPartition:
    """Shell tables for one grid: phi(2^-k |xi_j|) rows for k_min..k_max.

    The k range is the smallest window covering every nonzero grid
    frequency; sum_k phi_table[k] equals 1 on those modes (checked at
    build time to 1e-12).  The DC column is zero in every row.  The
    shell piece Delta_k f is f's stored modes times row k - k_min.
    """

    grid: GridSpec
    k_min: int
    k_max: int
    phi_table: np.ndarray   # (n_shells, nmodes)

    @cached_property
    def power_table(self) -> np.ndarray:
        """phi_table^2 times the Parseval multiplicities: row k maps the
        stored |c_j|^2 to the shell's share of sum over all nx modes."""
        return self.phi_table ** 2 * self.grid.mode_weights

    @property
    def ks(self) -> np.ndarray:
        return np.arange(self.k_min, self.k_max + 1)

    @property
    def n_shells(self) -> int:
        return self.k_max - self.k_min + 1

    def besov_sum(self, per: np.ndarray) -> float:
        """The B^{1/2} sum sum_k 2^{k/2} per[k], ascending k."""
        return float(np.add.reduce((2.0 ** (0.5 * self.ks)) * per))


def shell_window(freqs) -> range:
    """The smallest range of shells k whose bumps phi(2^-k .) cover every
    nonzero |freq| (empty when there is none)."""
    live = np.abs(np.asarray(freqs, dtype=float))
    live = live[live > 0.0]
    if live.size == 0:
        return range(0)
    # lowest shell: the one whose bump still touches the lowest frequency
    k_min = math.floor(math.log2(float(live.min()) * 3.0 / 4.0))
    k_max = math.ceil(math.log2(float(live.max()) * 4.0 / 3.0)) - 1
    return range(k_min, k_max + 1)


def build_partition(grid: GridSpec) -> DyadicPartition:
    xi = grid.xi
    ks = shell_window(xi)
    phi_t = phi_shell(xi[None, :] / (2.0 ** np.array(ks)[:, None]))
    phi_t[:, xi == 0.0] = 0.0
    part = DyadicPartition(grid, ks[0], ks[-1], phi_t)
    tot = part.phi_table.sum(axis=0)
    err = np.max(np.abs(tot[xi > 0.0] - 1.0))
    if err > 1e-12:
        raise AssertionError(f"shell partition off by {err:.2e} on grid modes")
    return part


# ---- Besov norms -----------------------------------------------------------


def shell_weighted_norms(part: DyadicPartition, field: Field, a: float,
                         t: float, r: float = 0.0) -> np.ndarray:
    """|| e^{a Psi} Delta_k (e^{r|Dx|} f) ||_{L2} for each shell k.

    Vectorized over shells; same quadrature as grid.weighted_l2, with the
    rows summed in ascending y over the field's support.  Returns an
    (n_shells,) array.
    """
    g = field.grid
    n = field.rows
    c = field.data[:n]
    with np.errstate(over="ignore", invalid="ignore"):
        if r != 0.0:
            c = c * np.exp(r * g.xi)
        m = np.einsum("yj,kj->yk", mode_power(c), part.power_table)
    try:
        amp = weighted_rows(np.sqrt(m), psi_weight(g, a, t, n)[:, None],
                            "shell amplitude")
    except TailViolationError:
        if np.all(np.isfinite(m)):
            raise
        raise TailViolationError(f"band multiplier e^(r xi) at radius "
                                 f"r={r:.6g} overflows the shell power")
    tot = np.einsum("y,yk->k", g.trapz_weights[:n], amp * amp)
    return np.sqrt(g.lx * tot)


def pair_shell_norms(part: DyadicPartition, fa: Field, fb: Field, a: float,
                     t: float, r: float = 0.0) -> np.ndarray:
    """Root-sum-square per shell of two fields' weighted shell norms."""
    na = shell_weighted_norms(part, fa, a, t, r)
    nb = shell_weighted_norms(part, fb, a, t, r)
    return np.sqrt(na * na + nb * nb)


def besov_pair_norm(part: DyadicPartition, fa: Field, fb: Field,
                    a: float = 0.0, t: float = 0.0, r: float = 0.0) -> float:
    """B^{1/2,0} norm of a two-component field, root-sum-square per shell."""
    return part.besov_sum(pair_shell_norms(part, fa, fb, a, t, r))


def besov_h_shell_norms(part: DyadicPartition, spectrum: np.ndarray,
                        r: float = 0.0) -> np.ndarray:
    """Per-shell L2(x) norms of a 1-D horizontal profile (the nmodes
    stored mode amplitudes)."""
    g = part.grid
    c = np.asarray(spectrum, dtype=complex)
    if c.shape != (g.nmodes,):
        raise ValueError(f"expected ({g.nmodes},) spectrum, got {c.shape}")
    if r != 0.0:
        c = c * np.exp(r * g.xi)
    return np.sqrt(g.lx * np.einsum("kj,j->k", part.power_table,
                                    mode_power(c)))
