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

Row window.  The solutions are Gaussian-localized in y, so on a tall
domain the upper rows are often exactly 0.0 (the tails underflow).  A
Field records this in `rows`: every row from `rows` up is exactly zero
(rows = ny claims nothing), and it stores only rows [0, k), rows <= k <=
its window, so nothing above the window is held, zero-filled or
scanned.  Where `rows` is set from the data (Field.trimmed), real and
imaginary parts below 2^-511 = 1.49e-154, the square root of the
smallest normal double, are stored as 0 first.  The product of two stored
parts is then a normal double or zero: the kernels, which multiply
stored parts pairwise (the RHS products, |c|^2 in the norms), do not
take the CPU's slow path for subnormal results, and `rows` ends at the
last row whose data can still form a normal product.  The y operators and
reductions below read only `Field.window` = min(ny, rows + 2) rows, the
support and two zero rows above it: on those the top closures of ddy and
d2dy give exactly the full-grid values, and every output row above is
exactly zero, so a windowed result has the same values as a full-grid
one.  The y operators (ddy, d2dy, integrate_y_tail) and the kernels
whose outputs they read (the zero-flux projection, compute_GH, the
audit's midpoint) write outputs as tall as their window (window_array),
so a y operator reads its input as a view, not a zero-padded copy; every
other kernel returns only the rows it computes.  Rows above those a
field stores are read only through Field.head, as zeros.  Reductions
over y stop at the support.  The running sums (integrate_y_tail,
column_flux, the shell norms) add in ascending or descending y, so the
zeros they skip would not change a bit; weighted_l2's pairwise sum may
change in the last bit.  So results depend on the data, not on how far
the grid reaches above it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np


class TailViolationError(RuntimeError):
    """Weighted field mass escaped toward the top of the y domain."""


# The rules of `checked` for a finite number: their words and tests.
# Finite is |v| <= _MAX, which Python decides exactly for an int of any
# size, where math.isfinite would overflow.
_MAX = sys.float_info.max
_RULES = {"positive": ("positive and finite", lambda v: v > 0),
          "nonnegative": ("finite and >= 0", lambda v: v >= 0),
          "finite": ("finite", lambda v: True)}


def checked(name: str, value, rule="positive"):
    """`value` itself when it keeps `rule`, else ValueError "NAME must be
    WORDS, got VALUE": the one range check of the numbers a run reads
    (config, API call, checkpoint header), made where their object is
    built, never per step.

    A rule of _RULES takes a finite int or float; an int rule N takes an
    integer >= N (WORDS "an integer >= N"), so a float count such as
    128.0 is refused.  A bool is never a number here, and an int past the
    largest double fails every rule."""
    if isinstance(rule, int):
        words = f"an integer >= {rule}"
        ok = isinstance(value, (int, np.integer)) and rule <= value <= _MAX
    else:
        words, test = _RULES[rule]
        ok = (isinstance(value, (int, float, np.integer, np.floating))
              and abs(value) <= _MAX and test(value))
    if ok and not isinstance(value, bool):
        return value
    raise ValueError(f"{name} must be {words}, got {value!r}")


@dataclass(frozen=True)
class GridSpec:
    """Tensor grid: nx Fourier modes on [0, lx), ny nodes on [0, ymax]."""

    lx: float
    nx: int
    ymax: float
    ny: int
    dealias_fraction: float = 2.0 / 3.0

    def __post_init__(self):
        checked("grid.nx", self.nx, 8)
        if self.nx & (self.nx - 1):
            raise ValueError(f"grid.nx must be a power of two, got {self.nx}")
        checked("grid.ny", self.ny, 16)
        # d2dy squares dy as a Python float, which raises on overflow
        if not (checked("grid.ymax", self.ymax) > 4.0
                and math.isfinite(self.dy * self.dy)):
            raise ValueError(f"ymax must exceed 4 and keep dy^2 finite, got "
                             f"grid.ymax={self.ymax!r}")
        if not (checked("grid.dealias_fraction", self.dealias_fraction) <= 1.0
                and self.nmodes > 1):
            raise ValueError("dealias_fraction must be in (0, 1] and keep j=1")
        checked("grid.lx", self.lx)

    # ---- derived geometry -------------------------------------------------
    # The arrays are built once per grid and shared by every caller, so
    # they are returned read-only.

    @property
    def dy(self) -> float:
        return self.ymax / (self.ny - 1)

    @cached_property
    def y(self) -> np.ndarray:
        return _frozen(np.linspace(0.0, self.ymax, self.ny))

    @cached_property
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


# The square root of the smallest normal double, 2^-511: the product of
# two parts at least this large in magnitude is a normal double.
_FLUSH = 2.0 ** -511

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
    truncation of the decaying far tail.  `rows` bounds the support:
    rows from `rows` up are exactly zero and stay so while the field is
    in use; after `trimmed` every stored part is 0 or at least 2^-511 in
    magnitude, so products of two of them stay normal (see the module
    docstring).

    Only rows [0, k) are stored, in `data`, with rows <= k <= window: a
    taller array is cut to the window (a view), so a field at the foot of
    a tall grid costs what its data needs; k is less than the window only
    for a field no y operator reads (see the module docstring).  Rows
    above k are read only through `head`.  `coeffs` is the whole (ny,
    nmodes) array for readers outside the step: a view of `data` when it
    is that tall, else a zero-padded copy, which a write does not reach.
    """

    grid: GridSpec
    data: np.ndarray
    bc: str = BC_DIRICHLET
    rows: Optional[int] = None      # rows from here up are zero; None: all

    def __post_init__(self):
        ny, nmodes = self.grid.ny, self.grid.nmodes
        if (self.data.ndim != 2 or self.data.shape[1] != nmodes
                or len(self.data) > ny):
            raise ValueError(
                f"coeffs shape {self.data.shape} does not match grid "
                f"({ny}, {nmodes})"
            )
        if self.rows is None:
            self.rows = len(self.data)
        if not 0 <= self.rows <= len(self.data):
            raise ValueError(f"rows {self.rows} outside [0, {len(self.data)}]")
        if self.bc not in (BC_DIRICHLET, BC_NEUMANN):
            raise ValueError(f"unknown bc tag {self.bc!r}")
        self.data = self.data[:self.window]
        if self.data.dtype != np.complex128:
            self.data = self.data.astype(np.complex128)

    @classmethod
    def zeros(cls, grid: GridSpec, bc: str = BC_DIRICHLET) -> "Field":
        return cls(grid, np.zeros((grid.ny, grid.nmodes), dtype=np.complex128),
                   bc)

    @classmethod
    def from_profiles(cls, grid: GridSpec, x_spectrum: np.ndarray,
                      y_profile: np.ndarray, bc: str = BC_DIRICHLET) -> "Field":
        """Separable field: coeffs[i, j] = y_profile[i] * x_spectrum[j]
        (x_spectrum holds the nmodes stored modes)."""
        c = np.outer(np.asarray(y_profile, dtype=complex),
                     np.asarray(x_spectrum, dtype=complex))
        return cls(grid, c, bc)

    def copy(self) -> "Field":
        return Field(self.grid, self.data.copy(), self.bc, self.rows)

    @property
    def window(self) -> int:
        """Rows a y operator reads: the support and two zero rows above."""
        return min(self.grid.ny, self.rows + 2)

    @property
    def coeffs(self) -> np.ndarray:
        """The whole (ny, nmodes) array (see the class docstring)."""
        return self.head(self.grid.ny)

    def head(self, n: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Rows [0, n), zero above the stored rows: a view of `data` when
        it reaches n and no `out` is given, else written into `out` (a new
        (n, nmodes) array when None)."""
        k = min(n, len(self.data))
        if out is None:
            if k == n:
                return self.data[:n]
            out = np.empty((n, self.grid.nmodes), complex)
        out[:k] = self.data[:k]
        out[k:] = 0.0
        return out

    def trimmed(self) -> "Field":
        """This field (same array, cut to its new window) with every real
        and imaginary part below 2^-511 in magnitude, whose square
        underflows, set to 0, and `rows` lowered to the support of what is
        left.  NaN and +-inf stay, and count as live.  The masks take a
        byte per entry: no float temporary the size of the field."""
        flat = self.data[:self.rows].view(np.float64)
        small = flat < _FLUSH
        small &= flat > -_FLUSH
        np.copyto(flat, 0.0, where=small)
        return Field(self.grid, self.data, self.bc, support(flat))

    def hermitian_defect(self) -> float:
        """Max deviation from c(-xi) = conj(c(xi)) (0 for real fields).

        The stored layout implies the symmetry for every mode but DC and
        Nyquist, which are their own mirrors: the defect is
        |c - conj(c)| = 2 |Im c| on those columns."""
        edge = self.data[:, ::self.grid.nx // 2]      # DC, Nyquist if stored
        return float(2.0 * np.max(np.abs(edge.imag), initial=0.0))


# ---- transforms ------------------------------------------------------------


def x_transform(grid: GridSpec, values: np.ndarray, direction: str) -> np.ndarray:
    """Real FFT in x along the last axis, so any stack of rows or fields
    goes through one call.  "forward": physical (..., nx) real -> the
    (..., nmodes) stored amplitudes.  "inverse": stored amplitudes ->
    physical real array; irfft with n = nx reads the modes above the
    stored ones as zeros."""
    if direction == "forward":
        spec = np.fft.rfft(np.asarray(values, dtype=float), axis=-1,
                           norm="forward")
        return np.ascontiguousarray(spec[..., :grid.nmodes])
    if direction == "inverse":
        return np.fft.irfft(np.asarray(values, dtype=complex), n=grid.nx,
                            axis=-1, norm="forward")
    raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")


def support(rows: np.ndarray) -> int:
    """One past the last row (first axis) of `rows` holding a nonzero or
    NaN entry; 0 when there is none.  Scanned from the top in blocks of
    32 rows, so data that reach the top cost one block."""
    top = len(rows)
    while top > 0:
        block = rows[max(0, top - 32):top]
        if block.any():
            live = block.reshape(len(block), -1).any(axis=1)
            return top - len(block) + int(np.flatnonzero(live)[-1]) + 1
        top -= len(block)
    return 0


def window_array(grid: GridSpec, rows: int) -> np.ndarray:
    """An array as tall as the window of a result with support bound
    `rows`, min(ny, rows + 2) by nmodes, zero from row `rows` up: the
    caller fills rows [0, rows)."""
    out = np.empty((min(grid.ny, rows + 2), grid.nmodes), np.complex128)
    out[rows:] = 0.0
    return out


def ddy(field: Field) -> Field:
    """Second order centered y derivative with ghost closures from the bc tag.

    Dirichlet: odd ghost f(-dy) = -f(dy); Neumann: even ghost f(-dy) = f(dy).
    Top: odd ghost about ymax (value pinned to zero there).  Computed over
    the field's window; the result's support is one row taller.
    """
    n = field.window
    c = field.head(n)
    dy = field.grid.dy
    rows = min(field.grid.ny, field.rows + 1)
    full = window_array(field.grid, rows)
    out = full[:n]
    out[1:-1] = (c[2:] - c[:-2]) / (2.0 * dy)
    if field.bc == BC_DIRICHLET:
        out[0] = c[1] / dy
    else:
        out[0] = 0.0
    out[-1] = -c[-2] / dy
    # the derivative of a Dirichlet field is Neumann-like at the wall and
    # vice versa; tag conservatively as Neumann (no pinned wall value).
    new_bc = BC_NEUMANN if field.bc == BC_DIRICHLET else BC_DIRICHLET
    return Field(field.grid, full, new_bc, rows)


def d2dy(field: Field) -> Field:
    """Second order centered second derivative, bc-tagged ghost closure,
    over the field's window like ddy."""
    n = field.window
    c = field.head(n)
    dy2 = field.grid.dy ** 2
    rows = min(field.grid.ny, field.rows + 1)
    full = window_array(field.grid, rows)
    out = full[:n]
    out[1:-1] = (c[2:] - 2.0 * c[1:-1] + c[:-2]) / dy2
    if field.bc == BC_DIRICHLET:
        out[0] = -2.0 * c[0] / dy2
    else:
        out[0] = 2.0 * (c[1] - c[0]) / dy2
    out[-1] = -2.0 * c[-1] / dy2
    return Field(field.grid, full, field.bc, rows)


# ---- quadrature ------------------------------------------------------------


def integrate_y_tail(field: Field) -> Field:
    """Trapezoid integral from y up to ymax, accumulated from the top.

    Result[i] = int_{y_i}^{ymax} f dy'; exactly zero at the top node.
    Accumulated from the top because the far rows have to decay with
    relative accuracy: they later meet Gaussian-growing weights.  Rows
    from field.rows up are exactly zero and are not summed: adding their
    zeros first would leave every partial sum's bits as they are.
    """
    n = min(field.rows, field.grid.ny - 1)
    c = field.head(n + 1)
    out = window_array(field.grid, n)
    seg = 0.5 * field.grid.dy * (c[1:n + 1] + c[:n])
    # summed from the top into the reversed view of rows [0, n)
    np.cumsum(seg[::-1], axis=0, out=out[:n][::-1])
    return Field(field.grid, out, BC_DIRICHLET, n)


def integrate_y_from0(field: Field) -> Field:
    """Trapezoid integral from 0 up to y; exactly zero at the wall.

    Returns tail[0] - tail for tail = integrate_y_tail(field), so the two
    integrals sum to the per-mode total without reassociating anything.
    Above the support the tail is zero, so the rows there hold the total.
    """
    tail = integrate_y_tail(field).coeffs
    return Field(field.grid, tail[0] - tail, BC_DIRICHLET)


def column_flux(field: Field) -> np.ndarray:
    """Per-mode trapezoid integral over the whole y range (shape
    (nmodes,)), summed in ascending y over the support.  A plain einsum
    on the real view, not a BLAS product, whose threading can cost 10x
    in some processes."""
    n = field.rows
    w = field.grid.trapz_weights[:n]
    flat = field.data[:n].view(np.float64)
    return np.einsum("y,yj->j", w, flat).view(np.complex128)


# ---- weighted norms --------------------------------------------------------


def mode_power(coeffs: np.ndarray) -> np.ndarray:
    """|c|^2 per stored mode (same shape as coeffs, real)."""
    return coeffs.real * coeffs.real + coeffs.imag * coeffs.imag


def row_power(field: Field) -> np.ndarray:
    """sum_j |c_ij|^2 over all nx modes per row of the support (shape
    (field.rows,)): the stored modes weighted by their multiplicities,
    summed in stored (ascending |xi|) order."""
    return np.einsum("yj,j->y", mode_power(field.data[:field.rows]),
                     field.grid.mode_weights)


def psi_weight(grid: GridSpec, a: float, t: float,
               rows: Optional[int] = None) -> np.ndarray:
    """exp(a * y^2 / (8 <t>)) sampled on the y nodes, <t> = 1 + t (the
    first `rows` nodes, all when None).

    Rows beyond the double-precision range come back as inf without a
    warning; weighted_rows masks them where the data is exactly zero."""
    with np.errstate(over="ignore"):
        return np.exp(a * grid.y[:rows] ** 2 / (8.0 * (1.0 + t)))


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
    n = field.rows
    amp = weighted_rows(np.sqrt(row_power(field)), psi_weight(g, a, t, n),
                        "amplitude")
    total = np.add.reduce(g.trapz_weights[:n] * amp * amp)
    return float(np.sqrt(g.lx * total))
