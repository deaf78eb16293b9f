"""Mixed Fourier/finite-difference grid for the half-plane strip.

x is periodic on [0, L_x) and handled spectrally; y lives on a uniform
grid over [0, Y_max] with second order finite differences.  Fields are
real, so their x spectra are Hermitian, c(-xi) = conj(c(xi)).  Nonlinear
products are dealiased by the 2/3 rule, so only the non-negative modes it
keeps, j = 0, 1, ..., min(nx/2, dealias_fraction nx/2), are stored:
complex amplitudes per y node, shape (ny, GridSpec.nmodes), y major (22
columns at nx = 64; all nx/2 + 1 with dealias_fraction = 1).  A physical
cos(xi_1 x) f(y) has amplitude f(y)/2 at xi_1 (its mirror -xi_1 carries
the other half).  Sums over modes that stand for sums over all nx modes
(Parseval) weight each stored mode by its multiplicity, mode_weights.

The x transforms are numpy.fft's rfft/irfft (pocketfft, one thread),
which give the same bits as scipy.fft and keep scipy.fft, with the
scipy.special it loads, off the import path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np


class TailViolationError(RuntimeError):
    """Weighted field mass escaped toward the top of the y domain."""


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Tensor grid: nx Fourier modes on [0, lx), ny nodes on [0, ymax]."""

    lx: float
    nx: int
    ymax: float
    ny: int
    dealias_fraction: float = 2.0 / 3.0

    def __post_init__(self):
        if not _is_pow2(self.nx) or self.nx < 8:
            raise ValueError(f"nx must be a power of two >= 8, got {self.nx}")
        if not (math.isfinite(self.ymax) and self.ymax > 4.0):
            raise ValueError(f"ymax must be finite and exceed 4, got "
                             f"grid.ymax={self.ymax!r}")
        if self.ny < 16:
            raise ValueError(f"ny must be >= 16, got {self.ny}")
        if not (0.0 < self.dealias_fraction <= 1.0 and self.nmodes > 1):
            raise ValueError("dealias_fraction must be in (0, 1] and keep j=1")
        if not (math.isfinite(self.lx) and self.lx > 0.0):
            raise ValueError(f"lx must be positive and finite, got "
                             f"grid.lx={self.lx!r}")

    # ---- derived geometry -------------------------------------------------
    # The arrays are built once per grid and shared by every caller, so
    # they are returned read-only.

    @property
    def dy(self) -> float:
        return self.ymax / (self.ny - 1)

    @cached_property
    def y(self) -> np.ndarray:
        return _frozen(np.linspace(0.0, self.ymax, self.ny))

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.nx) * (self.lx / self.nx)

    @property
    def nmodes(self) -> int:
        """Stored modes per row: j = 0, 1, ..., the dealias cut."""
        return min(self.nx // 2, int(self.dealias_fraction * self.nx / 2)) + 1

    @cached_property
    def xi(self) -> np.ndarray:
        """Stored mode frequencies 2*pi*j/lx, j = 0..nmodes-1 (ascending)."""
        return _frozen(np.fft.rfftfreq(self.nx, d=self.lx / self.nx)
                       [:self.nmodes] * 2.0 * np.pi)

    @cached_property
    def mode_weights(self) -> np.ndarray:
        """Parseval multiplicities (1, 2, ..., 2[, 1]): each interior mode
        stands for itself and its mirror; DC and a stored Nyquist are their
        own.

        Reductions over modes run in the stored (ascending |xi|) order,
        so reruns are bit reproducible."""
        w = np.full(self.nmodes, 2.0)
        w[0] = w[self.nx // 2:] = 1.0      # DC, and Nyquist if stored
        return _frozen(w)

    @cached_property
    def trapz_weights(self) -> np.ndarray:
        w = np.full(self.ny, self.dy)
        w[0] *= 0.5
        w[-1] *= 0.5
        return _frozen(w)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


BC_DIRICHLET = "dirichlet"
BC_NEUMANN = "neumann"


@dataclass
class Field:
    """x-spectral field on a GridSpec.

    coeffs[i, j] is the amplitude of stored mode xi_j >= 0 at height y_i;
    the negative modes of the real physical field are the implied
    conjugates, and the modes above the dealias cut are zero (see the
    module docstring).  `bc` tags the wall behaviour at y = 0
    ("dirichlet": value pinned to zero, "neumann": zero normal
    derivative).  The top boundary is always a homogeneous Dirichlet
    truncation of the decaying far tail.
    """

    grid: GridSpec
    coeffs: np.ndarray
    bc: str = BC_DIRICHLET

    def __post_init__(self):
        if self.coeffs.shape != (self.grid.ny, self.grid.nmodes):
            raise ValueError(
                f"coeffs shape {self.coeffs.shape} does not match grid "
                f"({self.grid.ny}, {self.grid.nmodes})"
            )
        if self.bc not in (BC_DIRICHLET, BC_NEUMANN):
            raise ValueError(f"unknown bc tag {self.bc!r}")
        if self.coeffs.dtype != np.complex128:
            self.coeffs = self.coeffs.astype(np.complex128)

    @classmethod
    def zeros(cls, grid: GridSpec, bc: str = BC_DIRICHLET) -> "Field":
        return cls(grid, np.zeros((grid.ny, grid.nmodes), dtype=np.complex128),
                   bc)

    @classmethod
    def from_physical(cls, grid: GridSpec, values: np.ndarray,
                      bc: str = BC_DIRICHLET) -> "Field":
        return cls(grid, x_transform(grid, np.asarray(values, dtype=float),
                                     "forward"), bc)

    @classmethod
    def from_profiles(cls, grid: GridSpec, x_spectrum: np.ndarray,
                      y_profile: np.ndarray, bc: str = BC_DIRICHLET) -> "Field":
        """Separable field: coeffs[i, j] = y_profile[i] * x_spectrum[j]
        (x_spectrum holds the nmodes stored modes)."""
        c = np.outer(np.asarray(y_profile, dtype=complex),
                     np.asarray(x_spectrum, dtype=complex))
        return cls(grid, c, bc)

    def copy(self) -> "Field":
        return Field(self.grid, self.coeffs.copy(), self.bc)

    def physical(self) -> np.ndarray:
        return x_transform(self.grid, self.coeffs, "inverse")

    def hermitian_defect(self) -> float:
        """Max deviation from c(-xi) = conj(c(xi)) (0 for real fields).

        The stored layout implies the symmetry for every mode but DC and
        Nyquist, which are their own mirrors: the defect is
        |c - conj(c)| = 2 |Im c| on those columns."""
        edge = self.coeffs[:, ::self.grid.nx // 2]    # DC, Nyquist if stored
        return float(2.0 * np.max(np.abs(edge.imag)))


# ---- transforms ------------------------------------------------------------


def x_transform(grid: GridSpec, values: np.ndarray, direction: str) -> np.ndarray:
    """Real FFT in x along the last axis, so any stack of rows or fields
    goes through one call.  "forward": physical (..., nx) real -> the
    (..., nmodes) stored amplitudes.  "inverse": stored amplitudes,
    zero-filled unless already nx/2 + 1 wide (as hot callers pass them:
    padding per call costs 3x) -> physical real array."""
    if direction == "forward":
        spec = np.fft.rfft(np.asarray(values, dtype=float), axis=-1,
                           norm="forward")
        return np.ascontiguousarray(spec[..., :grid.nmodes])
    if direction == "inverse":
        return np.fft.irfft(_zero_filled(grid, values), n=grid.nx, axis=-1,
                            norm="forward")
    raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")


def _zero_filled(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """Stored amplitudes zero-filled along the last axis to nx/2 + 1."""
    coeffs = np.asarray(coeffs, dtype=complex)
    pad = grid.nx // 2 + 1 - coeffs.shape[-1]
    return np.pad(coeffs, [(0, 0)] * (coeffs.ndim - 1) + [(0, pad)]) \
        if pad else coeffs


def full_spectrum(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """All nx modes in FFT order (0..nx/2, then -(nx/2 - 1)..-1) from the
    stored ones along the last axis: modes above the cut are zero and the
    mirrored modes are conjugates."""
    half = _zero_filled(grid, coeffs)
    return np.concatenate([half, np.conj(half[..., grid.nx // 2 - 1:0:-1])],
                          axis=-1)


def half_spectrum(grid: GridSpec, full: np.ndarray) -> np.ndarray:
    """The stored modes of an all-modes spectrum (inverse of
    full_spectrum; modes above the cut are dropped).  Raises ValueError
    unless every mirrored mode is the exact conjugate of its twin."""
    h = grid.nx // 2
    if not np.array_equal(full[..., h + 1:], np.conj(full[..., h - 1:0:-1])):
        raise ValueError("mirrored modes are not the conjugates of the "
                         "stored ones")
    return np.ascontiguousarray(full[..., :grid.nmodes])


def ddx(field: Field) -> Field:
    """Exact spectral x derivative (i*xi per mode)."""
    return Field(field.grid, field.coeffs * (1j * field.grid.xi), field.bc)


def ddy(field: Field) -> Field:
    """Second order centered y derivative with ghost closures from the bc tag.

    Dirichlet: odd ghost f(-dy) = -f(dy); Neumann: even ghost f(-dy) = f(dy).
    Top: odd ghost about ymax (value pinned to zero there).
    """
    c = field.coeffs
    dy = field.grid.dy
    out = np.empty_like(c)
    out[1:-1] = (c[2:] - c[:-2]) / (2.0 * dy)
    if field.bc == BC_DIRICHLET:
        out[0] = c[1] / dy
    else:
        out[0] = 0.0
    out[-1] = -c[-2] / dy
    # the derivative of a Dirichlet field is Neumann-like at the wall and
    # vice versa; tag conservatively as Neumann (no pinned wall value).
    new_bc = BC_NEUMANN if field.bc == BC_DIRICHLET else BC_DIRICHLET
    return Field(field.grid, out, new_bc)


def d2dy(field: Field) -> Field:
    """Second order centered second derivative, bc-tagged ghost closure."""
    c = field.coeffs
    dy2 = field.grid.dy ** 2
    out = np.empty_like(c)
    out[1:-1] = (c[2:] - 2.0 * c[1:-1] + c[:-2]) / dy2
    if field.bc == BC_DIRICHLET:
        out[0] = -2.0 * c[0] / dy2
    else:
        out[0] = 2.0 * (c[1] - c[0]) / dy2
    out[-1] = -2.0 * c[-1] / dy2
    return Field(field.grid, out, field.bc)


# ---- quadrature ------------------------------------------------------------


def tail_suffix(field: Field) -> np.ndarray:
    """Trapezoid partial sums from the top: row i of the (ny - 1, ...)
    result is int_{y_i}^{ymax} f dy'.  Accumulated from the top because
    the far rows have to decay with relative accuracy: they later meet
    Gaussian-growing weights.  Both integrals below derive from it."""
    c = field.coeffs
    seg = 0.5 * field.grid.dy * (c[1:] + c[:-1])
    return np.cumsum(seg[::-1], axis=0)[::-1]


def integrate_y_tail(field: Field,
                     suffix: Optional[np.ndarray] = None) -> Field:
    """Trapezoid integral from y up to ymax, accumulated from the top.

    Result[i] = int_{y_i}^{ymax} f dy'; exactly zero at the top node.
    `suffix` is tail_suffix(field) when the caller already has it.
    """
    if suffix is None:
        suffix = tail_suffix(field)
    out = np.zeros_like(field.coeffs)
    out[:-1] = suffix
    return Field(field.grid, out, BC_DIRICHLET)


def integrate_y_from0(field: Field,
                      suffix: Optional[np.ndarray] = None) -> Field:
    """Trapezoid integral from 0 up to y; exactly zero at the wall.

    Returns total - tail from the same top-down sums as integrate_y_tail
    (`suffix`, computed here unless given), so the two integrals sum to
    the per-mode total without reassociating anything.
    """
    if suffix is None:
        suffix = tail_suffix(field)
    out = np.zeros_like(field.coeffs)
    out[1:-1] = suffix[0] - suffix[1:]
    out[-1] = suffix[0]
    return Field(field.grid, out, BC_DIRICHLET)


def column_flux(field: Field) -> np.ndarray:
    """Per-mode trapezoid integral over the whole y range (shape
    (nmodes,))."""
    w = field.grid.trapz_weights
    return w @ field.coeffs


# ---- weighted norms --------------------------------------------------------


def mode_power(coeffs: np.ndarray) -> np.ndarray:
    """|c|^2 per stored mode (same shape as coeffs, real)."""
    return coeffs.real * coeffs.real + coeffs.imag * coeffs.imag


def row_power(field: Field) -> np.ndarray:
    """sum_j |c_ij|^2 over all nx modes per row: the stored modes weighted
    by their multiplicities, summed in stored (ascending |xi|) order."""
    return np.einsum("yj,j->y", mode_power(field.coeffs),
                     field.grid.mode_weights)


def psi_weight(grid: GridSpec, a: float, t: float) -> np.ndarray:
    """exp(a * y^2 / (8 <t>)) sampled on the y nodes, <t> = 1 + t.

    Rows beyond the double-precision range come back as inf without a
    warning; weighted_rows masks them where the data is exactly zero."""
    with np.errstate(over="ignore"):
        return np.exp(a * grid.y ** 2 / (8.0 * (1.0 + t)))


def weighted_rows(x: np.ndarray, w: np.ndarray, what: str) -> np.ndarray:
    """w * x, with the exactly-zero entries of x kept at 0 even where w
    overflowed.  Any other non-finite product raises TailViolationError:
    mass reached the exponential part of the weight."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.where(x == 0.0, 0.0, w * x)
    if not np.all(np.isfinite(out)):
        raise TailViolationError(
            f"weighted {what} overflowed; field tail too wide for ymax")
    return out


def weighted_l2(field: Field, a: float, t: float) -> float:
    """Gaussian-weighted L2 norm || e^{a Psi} f ||, Psi = y^2/(8<t>).

    Exact in x via Parseval (int |f|^2 dx = lx * sum_j |c_j|^2 over all nx
    modes, i.e. the stored modes weighted by mode_weights), trapezoid in y.
    Mode summation runs in ascending |xi| order; rows accumulate in
    ascending y.  a = 0 gives the plain L2 norm over the strip.
    """
    g = field.grid
    amp = weighted_rows(np.sqrt(row_power(field)), psi_weight(g, a, t),
                        "amplitude")
    total = np.add.reduce(g.trapz_weights * amp * amp)
    return float(np.sqrt(g.lx * total))
