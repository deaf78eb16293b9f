"""Tests for the dyadic frequency layer.

Covers: the smooth cutoff pair (supports, telescoping, partition of
unity), shell tables on a concrete grid, their shell pieces and Bernstein
bounds, weighted shell norms against the plain weighted norm, Besov norms
in both the strip and profile flavours, the analytic-band multiplier,
and the Bony product split of the test oracle.
"""

import numpy as np
import pytest

from mhdbl.grid import Field, GridSpec, weighted_l2, x_transform
from mhdbl.lp import (
    besov_h_shell_norms,
    besov_pair_norm,
    build_partition,
    chi_lowpass,
    phi_shell,
    shell_weighted_norms,
    smooth_step,
)
from oracles import paraproduct


def make_grid(nx=64, ny=96, ymax=12.0, lx=2.0 * np.pi,
              dealias_fraction=2.0 / 3.0):
    return GridSpec(lx=lx, nx=nx, ymax=ymax, ny=ny,
                    dealias_fraction=dealias_fraction)


def physical(f):
    return x_transform(f.grid, f.coeffs, "inverse")


def single_mode_field(grid, j, profile, bc="dirichlet"):
    """cos(xi_j x) profile(y) for 0 < j < nx/2: stored amplitude 1/2 at j."""
    s = np.zeros(grid.nmodes, dtype=complex)
    s[j] = 0.5
    return Field.from_profiles(grid, s, profile, bc)


class TestCutoffs:
    def test_smooth_step_range(self):
        tau = np.linspace(-1.0, 2.0, 301)
        v = smooth_step(tau)
        assert np.all(v[tau <= 0.0] == 0.0)
        assert np.all(v[tau >= 1.0] == 1.0)
        assert np.all(np.diff(v) >= -1e-15)

    def test_chi_plateau_and_support(self):
        assert chi_lowpass(0.0) == 1.0
        assert chi_lowpass(0.75) == 1.0
        assert chi_lowpass(4.0 / 3.0) == 0.0
        assert chi_lowpass(-0.5) == 1.0
        mid = chi_lowpass(1.0)
        assert 0.0 < mid < 1.0

    def test_phi_support(self):
        assert phi_shell(0.74) == 0.0
        assert phi_shell(8.0 / 3.0 + 1e-9) == 0.0
        assert phi_shell(1.4) == 1.0  # plateau [4/3, 3/2]
        assert phi_shell(-1.4) == 1.0

    def test_phi_telescopes_to_one(self):
        tau = np.geomspace(0.01, 100.0, 500)
        total = np.zeros_like(tau)
        for k in range(-12, 13):
            total += phi_shell(tau / 2.0**k)
        assert np.max(np.abs(total - 1.0)) < 1e-12


class TestPartition:
    def test_partition_of_unity_on_grid_modes(self):
        g = make_grid(nx=64)
        part = build_partition(g)
        tot = part.phi_table.sum(axis=0)
        nz = np.abs(g.xi) > 0.0
        assert np.max(np.abs(tot[nz] - 1.0)) < 1e-12
        assert np.all(part.phi_table[:, ~nz] == 0.0)

    def test_window_covers_grid_frequencies(self):
        for frac in (2.0 / 3.0, 1.0):
            g = make_grid(nx=64, lx=2.0 * np.pi, dealias_fraction=frac)
            part = build_partition(g)
            assert part.n_shells == part.k_max - part.k_min + 1
            assert part.n_shells >= 5
            # smallest and largest stored nonzero frequencies both live in
            # the window
            assert part.phi_table[:, 1].sum() == pytest.approx(1.0, abs=1e-12)
            j_hi = g.nmodes - 1
            assert part.phi_table[:, j_hi].sum() == pytest.approx(1.0,
                                                                  abs=1e-12)

    def test_power_table_is_weighted_squared_shells(self):
        g = make_grid(nx=64)
        part = build_partition(g)
        assert part.power_table is part.power_table    # built once
        assert np.array_equal(part.power_table,
                              part.phi_table ** 2 * g.mode_weights)

    def test_projections_sum_to_field_minus_mean(self):
        """The shell pieces, the field's stored modes times each row of
        phi_table, add up to the field without its x mean."""
        g = make_grid()
        part = build_partition(g)
        rng = np.random.default_rng(1)
        f = Field(g, x_transform(g, rng.standard_normal((g.ny, g.nx)),
                                 "forward"))
        acc = np.zeros_like(f.coeffs)
        for row in part.phi_table:
            acc += f.coeffs * row
        expect = f.coeffs.copy()
        expect[:, 0] = 0.0
        assert np.max(np.abs(acc - expect)) < 1e-12

    def test_bernstein_bounds(self):
        """Shell pieces obey (3/4) 2^k <= |xi| <= (8/3) 2^k: row k of
        phi_table is zero outside that band."""
        g = make_grid(nx=128)
        part = build_partition(g)
        rng = np.random.default_rng(3)
        f = Field(g, x_transform(g, rng.standard_normal((g.ny, g.nx))
                                    * np.exp(-g.y)[:, None],
                                 "forward"))
        for k, row in zip(part.ks, part.phi_table):
            live = g.xi[row > 0.0]
            assert np.all(live >= 0.75 * 2.0**k)
            assert np.all(live <= (8.0 / 3.0) * 2.0**k)
            piece = Field(g, f.data * row)
            nk = weighted_l2(piece, 0.0, 0.0)
            if nk < 1e-14:
                continue
            dk = weighted_l2(Field(g, piece.data * (1j * g.xi)), 0.0, 0.0)
            assert dk <= (8.0 / 3.0) * 2.0**k * nk * (1.0 + 1e-9)
            assert dk >= 0.75 * 2.0**k * nk * (1.0 - 1e-9)


class TestShellNorms:
    def test_pure_shell_mode(self):
        """xi = 3 sits on the phi plateau of shell k = 1 and nowhere else."""
        g = make_grid(nx=64, lx=2.0 * np.pi)
        part = build_partition(g)
        prof = np.exp(-0.5 * g.y**2)
        f = single_mode_field(g, 3, prof)
        norms = shell_weighted_norms(part, f, 0.0, 0.0)
        k1 = 1 - part.k_min
        assert norms[k1] == pytest.approx(weighted_l2(f, 0.0, 0.0), rel=1e-12)
        others = np.delete(norms, k1)
        assert np.max(others) < 1e-14

    def test_band_multiplier_scales_single_mode(self):
        g = make_grid(nx=64, lx=2.0 * np.pi)
        part = build_partition(g)
        prof = np.exp(-0.5 * g.y**2)
        f = single_mode_field(g, 3, prof)
        base = shell_weighted_norms(part, f, 0.0, 0.0)
        banded = shell_weighted_norms(part, f, 0.0, 0.0, r=0.2)
        assert banded[1 - part.k_min] == pytest.approx(
            np.exp(0.2 * 3.0) * base[1 - part.k_min], rel=1e-12)

    def test_weighted_shell_norm_matches_weighted_l2(self):
        g = make_grid(nx=64)
        part = build_partition(g)
        prof = g.y * np.exp(-0.5 * g.y**2)
        f = single_mode_field(g, 3, prof)
        norms = shell_weighted_norms(part, f, 1.0, 2.0)
        assert norms[1 - part.k_min] == pytest.approx(
            weighted_l2(f, 1.0, 2.0), rel=1e-12)


class TestBesovNorms:
    def test_single_shell_value(self):
        g = make_grid(nx=64)
        part = build_partition(g)
        prof = np.exp(-0.5 * g.y**2)
        f = single_mode_field(g, 3, prof)
        v = part.besov_sum(shell_weighted_norms(part, f, 0.0, 0.0))
        assert v == pytest.approx(2.0**0.5 * weighted_l2(f, 0.0, 0.0),
                                  rel=1e-12)

    def test_pair_norm_reduces_and_combines(self):
        g = make_grid(nx=64)
        part = build_partition(g)
        prof = np.exp(-0.5 * g.y**2)
        f = single_mode_field(g, 3, prof)
        z = Field.zeros(g)
        single = part.besov_sum(shell_weighted_norms(part, f, 0.0, 0.0))
        assert besov_pair_norm(part, f, z) == pytest.approx(single, rel=1e-12)
        assert besov_pair_norm(part, f, f) == pytest.approx(
            np.sqrt(2.0) * single, rel=1e-12)

    def test_profile_norm_allows_any_regularity(self):
        """A profile's shell norms take the B^{1/2} sum: cos(3x) sits on
        shell 1, weighted 2^{1/2}."""
        g = make_grid(nx=64, lx=2.0 * np.pi)
        part = build_partition(g)
        spec = np.zeros(g.nmodes, dtype=complex)
        spec[3] = 0.5               # cos(3x): 1/2 at +-3
        shells = besov_h_shell_norms(part, spec)
        k1 = 1 - part.k_min
        expect = np.sqrt(g.lx * 2.0 * 0.25)
        assert shells[k1] == pytest.approx(expect, rel=1e-12)
        assert part.besov_sum(shells) == pytest.approx(
            2.0**0.5 * expect, rel=1e-12)

    def test_profile_norm_validates_shape(self):
        g = make_grid(nx=64)
        part = build_partition(g)
        with pytest.raises(ValueError, match="spectrum"):
            besov_h_shell_norms(part, np.zeros(12, dtype=complex))


class TestParaproduct:
    def test_bony_pieces_reconstruct_product(self):
        for frac in (2.0 / 3.0, 1.0):
            g = make_grid(nx=64, ny=48, dealias_fraction=frac)
            part = build_partition(g)
            rng = np.random.default_rng(6)
            fa = Field(g, x_transform(g, rng.standard_normal((g.ny, g.nx)),
                                      "forward"))
            fb = Field(g, x_transform(g, rng.standard_normal((g.ny, g.nx)),
                                      "forward"))
            t1, t2, rem = paraproduct(part, fa, fb)
            fp, gp = physical(fa), physical(fb)
            mean_term = (fa.coeffs[:, 0].real * fb.coeffs[:, 0].real)[:, None]
            # the pieces against the stored modes of the grid product
            prod = x_transform(g, fp * gp, "forward")
            prod[:, 0] -= mean_term[:, 0]
            pieces = t1.coeffs + t2.coeffs + rem.coeffs
            scale = max(1.0, float(np.max(np.abs(prod))))
            assert np.max(np.abs(pieces - prod)) < 1e-10 * scale
            if frac == 1.0:
                # every mode stored: the pieces rebuild the product itself
                lhs = physical(t1) + physical(t2) + physical(rem)
                rhs = fp * gp - mean_term
                scale = max(1.0, float(np.max(np.abs(rhs))))
                assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale

    def test_grid_mismatch_rejected(self):
        g1 = make_grid(nx=64)
        g2 = make_grid(nx=32)
        part = build_partition(g1)
        with pytest.raises(ValueError, match="share a grid"):
            paraproduct(part, Field.zeros(g1), Field.zeros(g2))
