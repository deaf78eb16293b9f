"""Tests for the mixed Fourier/finite-difference grid layer.

Covers: GridSpec validation and derived geometry (the modes the dealias
rule keeps, their Parseval multiplicities) under the 2/3 rule and on the
full band, Field construction and Hermitian symmetry, the row window of
the y kernels against their full-grid results, the x transform
round trip, its normalization and its cut above the stored modes,
spectral/finite-difference derivatives with both wall closures, cumulative
y quadrature against closed-form Gaussian integrals, the complement
identity between the two cumulative integrals, and weighted L2 norms
(Parseval consistency, the Gaussian closed form, and the tail guard).
"""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import given, settings
from hypothesis import strategies as st

from mhdbl.grid import (
    Field,
    GridSpec,
    TailViolationError,
    column_flux,
    d2dy,
    ddx,
    ddy,
    integrate_y_from0,
    integrate_y_tail,
    psi_weight,
    weighted_l2,
    x_transform,
)
from mhdbl.lp import build_partition, shell_weighted_norms
from mhdbl.solver import heat_energy_slack, tail_guard_check


# the default 2/3 rule and the full band (every real-FFT mode stored)
FRACTIONS = (2.0 / 3.0, 1.0)


def make_grid(nx=32, ny=512, ymax=26.0, lx=2.0 * np.pi,
              dealias_fraction=2.0 / 3.0):
    return GridSpec(lx=lx, nx=nx, ymax=ymax, ny=ny,
                    dealias_fraction=dealias_fraction)


def stored_physical(grid, rng, lead=()):
    """Random physical data the layout holds: the inverse transform of
    random stored spectra, scaled to about unit variance."""
    shape = tuple(lead) + (grid.ny, grid.nmodes)
    spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return x_transform(grid, spec / np.sqrt(grid.nx), "inverse")


def dc_spectrum(grid):
    """x spectrum of the constant function 1."""
    s = np.zeros(grid.nmodes, dtype=complex)
    s[0] = 1.0
    return s


def cosine_spectrum(grid, j, amp=1.0):
    """Stored x spectrum of amp*cos(xi_j x), 0 <= j <= nx/2: amp/2 at j
    (its mirror -j holds the other half), amp at the self-mirrored DC and
    Nyquist modes."""
    s = np.zeros(grid.nmodes, dtype=complex)
    s[j] = 0.5 * amp
    if j in (0, grid.nx // 2):
        s[j] += 0.5 * amp
    return s


class TestGridSpec:
    def test_rejects_non_power_of_two_nx(self):
        with pytest.raises(ValueError, match="power of two"):
            GridSpec(lx=1.0, nx=12, ymax=8.0, ny=64)

    def test_rejects_small_nx(self):
        # a float count fails here, not later inside numpy.linspace, and a
        # count past the largest double before GridSpec.nmodes converts it
        for nx in (4, 16.0, 2 ** 1400):
            with pytest.raises(ValueError, match=r"^grid\.nx must be an "
                               f"integer >= 8, got {nx!r}$"):
                GridSpec(lx=1.0, nx=nx, ymax=8.0, ny=64)

    def test_rejects_shallow_domain(self):
        with pytest.raises(ValueError, match="ymax"):
            GridSpec(lx=1.0, nx=16, ymax=3.0, ny=64)

    def test_rejects_coarse_y(self):
        for ny in (8, 128.0, 10 ** 400):
            with pytest.raises(ValueError, match=r"^grid\.ny must be an "
                               f"integer >= 16, got {ny!r}$"):
                GridSpec(lx=1.0, nx=16, ymax=8.0, ny=ny)

    def test_rejects_bad_lx(self):
        with pytest.raises(ValueError, match="lx must be positive"):
            GridSpec(lx=0.0, nx=16, ymax=8.0, ny=64)

    def test_rejects_bad_dealias_fraction(self):
        # 0.1 * 16/2 < 1 would store DC alone: no shell, no x variation
        for frac in (0.0, 0.1, float("nan")):
            with pytest.raises(ValueError, match="dealias_fraction"):
                GridSpec(lx=1.0, nx=16, ymax=8.0, ny=64, dealias_fraction=frac)

    def test_geometry(self):
        # stored real-FFT modes: 2*pi*j/lx with j = 0..5 under the 2/3
        # rule (j <= 16/3), j = 0..8 on the full band
        for frac, nmodes in zip(FRACTIONS, (6, 9)):
            g = make_grid(nx=16, ny=65, ymax=8.0, lx=4.0,
                          dealias_fraction=frac)
            assert g.dy == pytest.approx(8.0 / 64)
            assert g.y[0] == 0.0 and g.y[-1] == 8.0
            assert len(g.y) == 65
            assert g.x[0] == 0.0 and g.x[-1] == pytest.approx(4.0 - 4.0 / 16)
            j = np.rint(g.xi * g.lx / (2.0 * np.pi)).astype(int)
            assert g.nmodes == nmodes
            assert list(j) == list(range(nmodes))

    def test_trapz_weights_sum_to_height(self):
        g = make_grid(ny=129, ymax=10.0)
        assert np.sum(g.trapz_weights) == pytest.approx(10.0, rel=1e-14)
        assert g.trapz_weights[0] == pytest.approx(0.5 * g.dy)

    def test_stored_modes_keep_two_thirds(self):
        g = make_grid(nx=32)
        j = np.rint(g.xi * g.lx / (2.0 * np.pi)).astype(int)
        assert list(j) == list(range(32 // 3 + 1))
        # counting each interior mode with its mirror, as the full spectrum
        kept = int(np.sum(g.mode_weights))
        assert kept == 2 * (32 // 3) + 1

    def test_modes_sorted_by_frequency_with_parseval_weights(self):
        # under the 2/3 rule the last stored mode is interior (weight 2);
        # on the full band Nyquist is stored and is its own mirror
        for frac, weights in zip(FRACTIONS, ([1.0] + [2.0] * 5,
                                             [1.0] + [2.0] * 7 + [1.0])):
            g = make_grid(nx=16, dealias_fraction=frac)
            assert g.xi[0] == 0.0           # DC first
            assert np.all(np.diff(g.xi) > 0.0)
            w = g.mode_weights
            assert list(w) == weights
            assert np.sum(w) == (11 if frac < 1.0 else g.nx)


class TestField:
    def test_shape_mismatch_rejected(self):
        g = make_grid(nx=16, ny=64, ymax=8.0)
        with pytest.raises(ValueError, match="does not match grid"):
            Field(g, np.zeros((16, 64), dtype=complex))

    def test_unknown_bc_rejected(self):
        g = make_grid(nx=16, ny=64, ymax=8.0)
        with pytest.raises(ValueError, match="unknown bc"):
            Field(g, np.zeros((64, g.nmodes), dtype=complex), "robin")

    def test_zeros_and_copy_are_independent(self):
        g = make_grid(nx=16, ny=64, ymax=8.0)
        f = Field.zeros(g)
        f2 = f.copy()
        f2.coeffs[3, 2] = 1.0
        assert f.coeffs[3, 2] == 0.0

    def test_from_profiles_is_separable(self):
        g = make_grid(nx=16, ny=64, ymax=8.0)
        prof = g.y * np.exp(-g.y)
        f = Field.from_profiles(g, cosine_spectrum(g, 2), prof)
        assert f.coeffs[:, 2] == pytest.approx(0.5 * prof)
        assert np.all(f.coeffs[:, 1] == 0.0)

    def test_real_field_has_no_hermitian_defect(self):
        rng = np.random.default_rng(3)
        for frac in FRACTIONS:
            g = make_grid(nx=16, ny=64, ymax=8.0, dealias_fraction=frac)
            f = Field(g, x_transform(g, rng.standard_normal((g.ny, g.nx)),
                                     "forward"))
            assert f.hermitian_defect() < 1e-14
            # DC and a stored Nyquist are their own mirrors: an imaginary
            # part there is the defect a real field cannot have.  The last
            # mode kept by the 2/3 rule is interior and may be complex.
            nyquist = g.nmodes == g.nx // 2 + 1
            for col in (0, g.nmodes - 1):
                broken = f.copy()
                broken.coeffs[0, col] += 1.0j
                expect = 2.0 if col == 0 or nyquist else 0.0
                assert broken.hermitian_defect() == pytest.approx(expect)


class TestRowWindow:
    """A field's `rows` (its rows from there up are exactly zero) lets the
    y kernels stop at its window; their results equal the full-grid ones."""

    def window_pair(self, bc, support=37):
        g = make_grid(nx=16, ny=128, ymax=30.0)
        rng = np.random.default_rng(support)
        c = np.zeros((g.ny, g.nmodes), complex)
        c[:support] = (rng.standard_normal((support, g.nmodes))
                       + 1j * rng.standard_normal((support, g.nmodes)))
        c[support - 1, 3:] = 0.0          # a partly empty top row
        return Field(g, c, bc).trimmed(), Field(g, c, bc)

    def test_trimmed_flushes_subnormal_parts(self):
        """trimmed zeroes, in place, every real and imaginary part below
        2^-511 in magnitude, whose square underflows, and takes the support
        of the rest: parts of 2^-511 or more, infinite and NaN parts keep
        their bits (a NaN or inf row stays live), and a second call changes
        nothing."""
        g = make_grid(nx=16, ny=64, ymax=8.0)
        bound = 2.0 ** -511
        assert bound * bound == np.finfo(float).tiny
        rng = np.random.default_rng(5)
        c = (rng.standard_normal((g.ny, g.nmodes))
             + 1j * rng.standard_normal((g.ny, g.nmodes)))
        below = np.nextafter(bound, 0.0)
        small = np.array([below, -below, 1e-200, -np.finfo(float).tiny,
                          5e-324, -5e-324])
        c[2] = small                          # real parts
        c[3] = 1j * small                     # imaginary parts
        c[4, :2] = [complex(bound, -bound), complex(-bound, bound)]
        c[30:40] = complex(below, -5e-324)    # rows of flushed parts only
        c[40:] = 0.0
        for bad, rows in ((None, 30), (np.nan, 36), (complex(0.0, np.nan), 36),
                          (np.inf, 36), (-np.inf, 36)):
            d = c.copy()
            if bad is not None:
                d[35, 1] = bad
            was = d.view(np.float64).copy()
            f = Field(g, d, "dirichlet").trimmed()
            assert f.coeffs is d and f.rows == rows, bad
            now = d.view(np.float64)
            keep = ~(np.abs(was) < bound)
            assert np.array_equal(now[keep].view(np.uint64),
                                  was[keep].view(np.uint64)), bad
            assert not np.any(now[~keep]), bad
            bits = now.view(np.uint64).copy()
            assert f.trimmed().rows == rows
            assert np.array_equal(now.view(np.uint64), bits)

    def test_rows_checked(self):
        g = make_grid(nx=16, ny=64, ymax=8.0)
        for rows in (-1, 65):
            with pytest.raises(ValueError, match="rows"):
                Field(g, np.zeros((64, g.nmodes), complex), rows=rows)
        assert Field.zeros(g).rows == 64
        assert Field.zeros(g).trimmed().rows == 0

    @pytest.mark.parametrize("support", [1, 32, 33, 37, 126, 127, 128])
    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_kernels_match_the_full_grid(self, bc, support):
        win, full = self.window_pair(bc, support)
        assert win.rows == support and win.window == min(128, support + 2)
        for op in (ddx, ddy, d2dy, integrate_y_tail, integrate_y_from0):
            got, want = op(win), op(full)
            assert np.array_equal(got.coeffs, want.coeffs), op.__name__
            assert not np.any(got.coeffs[got.rows:]), op.__name__
        assert np.array_equal(column_flux(win), column_flux(full))
        part = build_partition(win.grid)
        assert np.array_equal(shell_weighted_norms(part, win, 1.0, 0.5, 0.2),
                              shell_weighted_norms(part, full, 1.0, 0.5, 0.2))
        assert weighted_l2(win, 1.0, 0.5) == pytest.approx(
            weighted_l2(full, 1.0, 0.5), rel=1e-15)


class TestXTransform:
    def test_cosine_normalization(self):
        g = make_grid(nx=32, ny=64, ymax=8.0)
        phys = np.cos(3.0 * g.x)[None, :] * np.ones((g.ny, 1))
        c = x_transform(g, phys, "forward")
        assert c.shape == (g.ny, g.nmodes)
        assert c[0, 3] == pytest.approx(0.5, abs=1e-13)
        others = np.delete(c[0], [3])
        assert np.max(np.abs(others)) < 1e-13

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for frac in FRACTIONS:
            g = make_grid(nx=64, ny=48, ymax=8.0, dealias_fraction=frac)
            phys = stored_physical(g, rng)
            back = x_transform(g, x_transform(g, phys, "forward"), "inverse")
            assert np.max(np.abs(back - phys)) < 1e-12

    def test_round_trip_to_roundoff(self):
        rng = np.random.default_rng(17)
        for frac in FRACTIONS:
            g = make_grid(nx=64, ny=48, ymax=8.0, dealias_fraction=frac)
            phys = stored_physical(g, rng)
            back = x_transform(g, x_transform(g, phys, "forward"), "inverse")
            assert np.max(np.abs(back - phys)) < 1e-14

    def test_stacked_fields_transform_like_single_ones(self):
        """The last axis is x, so one call transforms any stack of fields."""
        rng = np.random.default_rng(19)
        for frac in FRACTIONS:
            g = make_grid(nx=32, ny=24, ymax=8.0, dealias_fraction=frac)
            stack = stored_physical(g, rng, (3,))
            spec = x_transform(g, stack, "forward")
            assert spec.shape == (3, g.ny, g.nmodes)
            for k in range(3):
                assert np.array_equal(spec[k],
                                      x_transform(g, stack[k], "forward"))
            back = x_transform(g, spec, "inverse")
            assert back.shape == stack.shape
            assert np.max(np.abs(back - stack)) < 1e-14

    def test_bad_direction(self):
        g = make_grid(nx=16, ny=64, ymax=8.0)
        with pytest.raises(ValueError, match="forward"):
            x_transform(g, np.zeros((64, 16)), "sideways")

    @given(seed=st.integers(0, 2**32 - 1), frac=st.sampled_from(FRACTIONS))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_property(self, seed, frac):
        """Inverse(forward(f)) = f for arbitrary real fields the layout
        holds."""
        g = GridSpec(lx=5.0, nx=16, ymax=6.0, ny=24, dealias_fraction=frac)
        rng = np.random.default_rng(seed)
        phys = 10.0 * stored_physical(g, rng)
        back = x_transform(g, x_transform(g, phys, "forward"), "inverse")
        assert np.max(np.abs(back - phys)) < 1e-11 * max(1.0, np.max(np.abs(phys)))

    def test_forward_keeps_low_modes_only(self):
        """The forward transform is the real FFT cut to the modes the
        dealias rule keeps, bit for bit."""
        rng = np.random.default_rng(5)
        phys = rng.standard_normal((64, 32))
        full = sfft.rfft(phys, axis=-1, norm="forward")
        for frac, nmodes in zip(FRACTIONS, (11, 17)):
            g = make_grid(nx=32, ny=64, ymax=8.0, dealias_fraction=frac)
            c = x_transform(g, phys, "forward")
            assert c.shape == (g.ny, nmodes)
            assert np.array_equal(c, full[:, :nmodes])

    def test_matches_scipy_fft_bitwise(self):
        """numpy.fft and scipy.fft share the pocketfft core: on a full
        8-field stack both directions give the same bits."""
        g = make_grid(nx=64, ny=257, ymax=8.0, dealias_fraction=1.0)
        rng = np.random.default_rng(11)
        shape = (8, g.ny, g.nx // 2 + 1)
        spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        phys = x_transform(g, spec, "inverse")
        assert np.array_equal(
            phys, sfft.irfft(spec, n=g.nx, axis=-1, norm="forward"))
        phys = rng.standard_normal((8, g.ny, g.nx))
        assert np.array_equal(x_transform(g, phys, "forward"),
                              sfft.rfft(phys, axis=-1, norm="forward"))

    def test_inverse_reads_missing_modes_as_zero(self):
        """The stored modes alone give the bits of the same stack
        zero-filled to nx/2 + 1 columns."""
        g = make_grid(nx=64, ny=96, ymax=8.0)
        rng = np.random.default_rng(3)
        shape = (8, g.ny, g.nmodes)
        spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        full = np.zeros((8, g.ny, g.nx // 2 + 1), dtype=complex)
        full[..., :g.nmodes] = spec
        assert np.array_equal(x_transform(g, spec, "inverse"),
                              x_transform(g, full, "inverse"))

    def test_above_cut_cosine_is_dropped(self):
        """A cosine above the 2/3 cut leaves nothing in the stored modes:
        exactly nothing at Nyquist, whose samples (-1)^n are exact, and
        only the rounding of its samples (~1e-15) elsewhere."""
        g = make_grid(nx=64, ny=16, ymax=8.0)
        for j in range(g.nmodes, g.nx // 2 + 1):
            phys = np.cos(j * g.x)[None, :] * np.ones((g.ny, 1))
            c = x_transform(g, phys, "forward")
            assert c.shape == (g.ny, g.nmodes)
            if j == g.nx // 2:
                assert np.all(c == 0.0)
            else:
                assert np.max(np.abs(c)) < 1e-14


class TestDerivatives:
    def test_ddx_single_mode(self):
        g = make_grid(nx=32, ny=64, ymax=8.0)
        f = Field.from_profiles(g, cosine_spectrum(g, 4), np.ones(g.ny))
        df = ddx(f)
        # d/dx cos(4x) = -4 sin(4x): amplitude i*4*(1/2) at mode +4 (and
        # the implied conjugate -2i at mode -4)
        assert df.coeffs[0, 4] == pytest.approx(2.0j, abs=1e-13)
        assert np.all(np.delete(df.coeffs[0], [4]) == 0.0)
        assert np.max(np.abs(df.physical()[0] + 4.0 * np.sin(4.0 * g.x))) \
            < 1e-13

    def test_ddx_kills_dc(self):
        g = make_grid(nx=16, ny=64, ymax=8.0)
        f = Field.from_profiles(g, dc_spectrum(g), np.exp(-g.y))
        assert np.max(np.abs(ddx(f).coeffs)) == 0.0

    def test_linear_profile_second_derivative_vanishes(self):
        g = make_grid(nx=16, ny=64, ymax=8.0)
        f = Field.from_profiles(g, dc_spectrum(g), g.y, "dirichlet")
        interior = d2dy(f).coeffs[1:-1, 0]
        assert np.max(np.abs(interior)) < 1e-12

    def test_ddy_dirichlet_convergence(self):
        errs = []
        for ny in (257, 513):
            g = make_grid(nx=8, ny=ny, ymax=13.0)
            prof = g.y * np.exp(-0.5 * g.y**2)
            exact = (1.0 - g.y**2) * np.exp(-0.5 * g.y**2)
            f = Field.from_profiles(g, dc_spectrum(g), prof, "dirichlet")
            errs.append(np.max(np.abs(ddy(f).coeffs[:, 0].real - exact)))
        ratio = errs[0] / errs[1]
        assert 3.5 < ratio < 4.6
        assert errs[1] < 1e-3

    def test_ddy_neumann_wall_is_exactly_flat(self):
        g = make_grid(nx=8, ny=257, ymax=13.0)
        prof = (1.0 - g.y**2) * np.exp(-0.5 * g.y**2)
        f = Field.from_profiles(g, dc_spectrum(g), prof, "neumann")
        df = ddy(f)
        assert np.all(df.coeffs[0] == 0.0)
        exact = (g.y**3 - 3.0 * g.y) * np.exp(-0.5 * g.y**2)
        assert np.max(np.abs(df.coeffs[:, 0].real - exact)) < 1.2 * g.dy**2

    def test_ddy_swaps_bc_tag(self):
        g = make_grid(nx=8, ny=64, ymax=8.0)
        f = Field.zeros(g, "dirichlet")
        assert ddy(f).bc == "neumann"
        assert ddy(Field.zeros(g, "neumann")).bc == "dirichlet"

    def test_d2dy_dirichlet_convergence(self):
        errs = []
        for ny in (257, 513):
            g = make_grid(nx=8, ny=ny, ymax=13.0)
            prof = g.y * np.exp(-0.5 * g.y**2)
            exact = (g.y**3 - 3.0 * g.y) * np.exp(-0.5 * g.y**2)
            f = Field.from_profiles(g, dc_spectrum(g), prof, "dirichlet")
            errs.append(np.max(np.abs(d2dy(f).coeffs[:, 0].real - exact)))
        ratio = errs[0] / errs[1]
        assert 3.5 < ratio < 4.6

    def test_d2dy_neumann_wall_closure(self):
        """Even ghost closure recovers f'' at the wall to second order."""
        errs = []
        for ny in (257, 513):
            g = make_grid(nx=8, ny=ny, ymax=13.0)
            prof = (1.0 - g.y**2) * np.exp(-0.5 * g.y**2)
            exact0 = -3.0  # f''(0) for (1 - y^2) e^{-y^2/2}
            f = Field.from_profiles(g, dc_spectrum(g), prof, "neumann")
            errs.append(abs(d2dy(f).coeffs[0, 0].real - exact0))
        assert errs[1] < errs[0]
        assert errs[1] < 1e-3

    def test_d2dy_preserves_bc_tag(self):
        g = make_grid(nx=8, ny=64, ymax=8.0)
        assert d2dy(Field.zeros(g, "neumann")).bc == "neumann"


class TestCumulativeIntegrals:
    def test_zero_field_maps_to_zero(self):
        g = make_grid(nx=16, ny=64, ymax=8.0)
        assert np.all(integrate_y_tail(Field.zeros(g)).coeffs == 0.0)
        assert np.all(integrate_y_from0(Field.zeros(g)).coeffs == 0.0)

    def test_tail_gaussian_moment(self):
        g = make_grid(nx=8, ny=1025)
        prof = g.y * np.exp(-0.5 * g.y**2)
        f = Field.from_profiles(g, dc_spectrum(g), prof)
        got = integrate_y_tail(f).coeffs[:, 0].real
        exact = np.exp(-0.5 * g.y**2)
        assert np.max(np.abs(got - exact)) < 0.2 * g.dy**2

    def test_tail_cubic_moment(self):
        g = make_grid(nx=8, ny=1025)
        prof = (g.y - 0.5 * g.y**3) * np.exp(-0.5 * g.y**2)
        f = Field.from_profiles(g, dc_spectrum(g), prof)
        got = integrate_y_tail(f).coeffs[:, 0].real
        exact = -(0.5 * g.y**2) * np.exp(-0.5 * g.y**2)
        assert np.max(np.abs(got - exact)) < 0.5 * g.dy**2

    def test_from0_gaussian_moment(self):
        g = make_grid(nx=8, ny=1025)
        prof = g.y * np.exp(-0.5 * g.y**2)
        f = Field.from_profiles(g, dc_spectrum(g), prof)
        got = integrate_y_from0(f).coeffs[:, 0].real
        exact = 1.0 - np.exp(-0.5 * g.y**2)
        # the truncated strip misses only the e^{-ymax^2/2} tail
        assert np.max(np.abs(got - exact)) < 0.2 * g.dy**2

    def test_from0_cubic_moment(self):
        g = make_grid(nx=8, ny=1025)
        prof = (g.y - 0.5 * g.y**3) * np.exp(-0.5 * g.y**2)
        f = Field.from_profiles(g, dc_spectrum(g), prof)
        got = integrate_y_from0(f).coeffs[:, 0].real
        exact = (0.5 * g.y**2) * np.exp(-0.5 * g.y**2)
        assert np.max(np.abs(got - exact)) < 0.5 * g.dy**2

    def test_anchor_rows_are_bitwise_zero(self):
        g = make_grid(nx=16, ny=256)
        rng = np.random.default_rng(2)
        f = Field(g, x_transform(g, rng.standard_normal((g.ny, g.nx)),
                                 "forward"))
        assert np.all(integrate_y_tail(f).coeffs[-1] == 0.0)
        assert np.all(integrate_y_from0(f).coeffs[0] == 0.0)

    def test_tail_decays_with_relative_accuracy(self):
        """Far-field rows of the tail integral must track the true decay.

        They are later multiplied by Gaussian-growing weights, so an
        absolute noise floor at the rounding level of the total would be
        fatal.
        """
        g = make_grid(nx=8, ny=1025)
        prof = g.y * np.exp(-0.5 * g.y**2)
        f = Field.from_profiles(g, dc_spectrum(g), prof)
        got = integrate_y_tail(f).coeffs[:, 0].real
        i = int(np.searchsorted(g.y, 20.0))
        assert 0.0 < got[i] < 1e-80

    def test_complement_identity(self):
        """from0 + tail reproduces the per-mode total to one rounding."""
        g = make_grid(nx=32, ny=512)
        rng = np.random.default_rng(9)
        for _ in range(20):
            prof = np.zeros(g.ny)
            for _ in range(3):
                a = rng.uniform(0.2, 2.0)
                c0 = rng.uniform(0.0, 4.0)
                w = rng.uniform(0.5, 1.5)
                prof += rng.choice([-1.0, 1.0]) * a * np.exp(-((g.y - c0) / w) ** 2)
            phases = np.exp(2j * np.pi * rng.uniform(size=g.nmodes))
            f = Field(g, np.outer(prof, phases).astype(complex), "dirichlet")
            tail = integrate_y_tail(f).coeffs
            fr0 = integrate_y_from0(f).coeffs
            total = tail[0]
            dev = np.abs(fr0 + tail - total[None, :]).max(axis=0)
            scale = np.maximum(np.abs(tail).max(axis=0), np.abs(total))
            assert np.all(dev <= 2.0 * np.spacing(scale))

    def test_integrals_are_deterministic(self):
        g = make_grid(nx=16, ny=256)
        rng = np.random.default_rng(4)
        f = Field(g, x_transform(g, rng.standard_normal((g.ny, g.nx)),
                                 "forward"))
        a = integrate_y_tail(f).coeffs
        b = integrate_y_tail(f.copy()).coeffs
        assert np.array_equal(a, b)
        a0 = integrate_y_from0(f).coeffs
        b0 = integrate_y_from0(f.copy()).coeffs
        assert np.array_equal(a0, b0)

    def test_ddx_commutes_with_integration(self):
        """Both operations are diagonal per x mode, so they commute."""
        g = make_grid(nx=16, ny=256, ymax=12.0)
        rng = np.random.default_rng(6)
        prof = np.exp(-0.5 * g.y**2) * rng.standard_normal(g.ny)
        f = Field.from_profiles(g, rng.standard_normal(g.nmodes) + 0j, prof)
        ab = ddx(integrate_y_tail(f)).coeffs
        ba = integrate_y_tail(ddx(f)).coeffs
        assert np.max(np.abs(ab - ba)) < 1e-13 * max(1.0, np.max(np.abs(ab)))

    def test_column_flux_matches_trapezoid(self):
        g = make_grid(nx=8, ny=1025)
        prof = g.y * np.exp(-0.5 * g.y**2)
        f = Field.from_profiles(g, dc_spectrum(g), prof)
        flux = column_flux(f)
        assert flux[0].real == pytest.approx(1.0, abs=1e-4)
        assert np.max(np.abs(flux[1:])) == 0.0


class TestWeightedNorms:
    def test_zero_field_norm(self):
        g = make_grid()
        assert weighted_l2(Field.zeros(g), 1.0, 0.0) == 0.0

    def test_gaussian_closed_form(self):
        # || e^{Psi} e^{-y^2/4} ||^2 = lx * int_0^inf e^{-y^2/4} = lx*sqrt(pi)
        g = make_grid(nx=16, ny=4097, ymax=26.0, lx=2.0 * np.pi)
        f = Field.from_profiles(g, dc_spectrum(g), np.exp(-0.25 * g.y**2))
        got = weighted_l2(f, 1.0, 0.0) ** 2
        assert got == pytest.approx(g.lx * np.sqrt(np.pi), rel=1e-7)

    def test_zero_weight_matches_physical_quadrature(self):
        rng = np.random.default_rng(12)
        for frac in FRACTIONS:
            g = make_grid(nx=32, ny=512, ymax=12.0, lx=3.0,
                          dealias_fraction=frac)
            phys = stored_physical(g, rng) * np.exp(-g.y)[:, None]
            f = Field(g, x_transform(g, phys, "forward"))
            direct = np.sqrt(np.sum(g.trapz_weights[:, None] * phys**2)
                             * (g.lx / g.nx))
            assert weighted_l2(f, 0.0, 0.0) == pytest.approx(direct,
                                                             rel=1e-12)

    def test_zero_weight_equals_physical_sum(self):
        """weighted_l2(f, 0, 0) is sqrt(lx/nx sum_y w_y sum_x f^2)."""
        rng = np.random.default_rng(21)
        for frac in FRACTIONS:
            g = make_grid(nx=64, ny=300, ymax=10.0, lx=5.0,
                          dealias_fraction=frac)
            phys = stored_physical(g, rng) * np.exp(-0.3 * g.y)[:, None]
            f = Field(g, x_transform(g, phys, "forward"))
            direct = np.sqrt(g.lx / g.nx * np.sum(
                g.trapz_weights * np.sum(phys ** 2, axis=1)))
            assert weighted_l2(f, 0.0, 0.0) == pytest.approx(direct,
                                                             rel=1e-13)

    def test_psi_weight_values(self):
        g = make_grid(ny=101, ymax=10.0)
        w = psi_weight(g, 1.0, 3.0)
        assert w[0] == 1.0
        assert w[-1] == pytest.approx(np.exp(100.0 / 32.0), rel=1e-13)

    def test_weight_overflow_raises_tail_violation(self):
        g = make_grid(nx=8, ny=256, ymax=30.0)
        f = Field.from_profiles(g, dc_spectrum(g), np.ones(g.ny))
        with pytest.raises(TailViolationError, match="overflow"):
            weighted_l2(f, 20.0, 0.0)

    def test_zero_rows_do_not_trip_overflow(self):
        """Rows that are exactly zero are immune to an infinite weight."""
        g = make_grid(nx=8, ny=256, ymax=30.0)
        prof = np.where(g.y < 5.0, np.exp(-g.y**2), 0.0)
        f = Field.from_profiles(g, dc_spectrum(g), prof)
        val = weighted_l2(f, 20.0, 0.0)
        assert np.isfinite(val) and val > 0.0

    # every weighted reduction of field f under the weight exponent a; a
    # State refuses a weight_alpha of no weight branch, so the tail guard
    # gets a stand-in with the five attributes it reads
    REDUCTIONS = {
        "weighted_l2": lambda f, a: weighted_l2(f, a, 0.0),
        "shell_weighted_norms": lambda f, a: shell_weighted_norms(
            build_partition(f.grid), f, a, 0.0),
        "tail_guard_check": lambda f, a: tail_guard_check(SimpleNamespace(
            grid=f.grid, weight_alpha=a, t=0.0, u=f, b=f)),
        "heat_energy_slack": lambda f, a: heat_energy_slack(
            f, Field(f.grid, 2.0 * f.coeffs, f.bc), 0.0, 1e-2, [(a, 1.0)]),
    }

    @pytest.mark.parametrize("reduction", sorted(REDUCTIONS))
    def test_masked_weight_at_every_caller(self, reduction):
        """exp(20 y^2/8) overflows above y ~ 16.8 on [0, 30].  A nonzero
        row there is a tail violation; rows that are exactly zero are
        immune to the infinite weight."""
        reduce = self.REDUCTIONS[reduction]
        g = make_grid(nx=8, ny=256, ymax=30.0)
        spec = cosine_spectrum(g, 1)
        f = Field.from_profiles(g, spec, np.ones(g.ny))
        with pytest.raises(TailViolationError, match="overflow"):
            reduce(f, 20.0)
        prof = np.where(g.y < 5.0, np.exp(-g.y**2), 0.0)
        val = np.asarray(reduce(Field.from_profiles(g, spec, prof), 20.0))
        assert np.all(np.isfinite(val))
        # the tail ratio is 0 here: the rows above 0.8 ymax are empty
        assert np.any(val != 0.0) or reduction == "tail_guard_check"

    def test_norm_is_deterministic(self):
        g = make_grid(nx=32, ny=512, ymax=12.0)
        rng = np.random.default_rng(8)
        phys = rng.standard_normal((g.ny, g.nx)) * np.exp(-g.y)[:, None]
        f = Field(g, x_transform(g, phys, "forward"))
        assert weighted_l2(f, 0.5, 1.0) == weighted_l2(f.copy(), 0.5, 1.0)

    @given(seed=st.integers(0, 2**32 - 1), frac=st.sampled_from(FRACTIONS))
    @settings(max_examples=15, deadline=None)
    def test_parseval_property(self, seed, frac):
        """Spectral and physical quadrature agree for random fields the
        layout holds."""
        g = GridSpec(lx=2.0 * np.pi, nx=16, ymax=8.0, ny=48,
                     dealias_fraction=frac)
        rng = np.random.default_rng(seed)
        phys = 3.0 * stored_physical(g, rng)
        f = Field(g, x_transform(g, phys, "forward"))
        direct = np.sqrt(np.sum(g.trapz_weights[:, None] * phys**2) * (g.lx / g.nx))
        assert weighted_l2(f, 0.0, 0.0) == pytest.approx(direct, rel=1e-12,
                                                         abs=1e-15)
