"""Acceptance protocol: nine numbered criteria, one printed PASS/FAIL line
per check (run with -s to stream them while the long fixtures cook).

Criteria 4, 5, and 8 share one 100-time-unit run at kappa=1; criterion 6
runs the kappa=3/2 branch at the same scale.  Those two runs take 75 to
90 seconds each on two CPU cores, so the file is about three minutes end
to end; deselect them with `-m "not slow"`.
"""

import json
import math
import time

import numpy as np
import pytest

from mhdbl.cli import main, read_norms_csv
from mhdbl.grid import BC_DIRICHLET, BC_NEUMANN, Field, GridSpec, x_transform
from mhdbl.lp import besov_pair_norm, build_partition, paraproduct
from mhdbl.scenario import Params, initial_data_standard
from mhdbl.solver import (kappa_rescale_map, load_checkpoint, make_state,
                          recommended_ymax, save_checkpoint, simulate,
                          step_imex)
from mhdbl.verify import (fit_decay, multiplier_convexity_check,
                          poincare_check, run_poincare_suite,
                          run_sup_constants_suite, theta_report)

HALF_ROOT_PI = 0.5 * math.sqrt(math.pi)


def note(ok, label, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}", flush=True)
    return ok


def _standard_run(kappa, weight_alpha, branch):
    ymax = recommended_ymax(100.0, kappa=kappa, weight_alpha=weight_alpha)
    grid = GridSpec(2.0 * np.pi, 64, ymax, 768)
    params = Params(kappa=kappa, epsilon=1e-3)
    u0, b0, report = initial_data_standard(grid, params)
    assert report["ok"]
    t0 = time.perf_counter()
    res = simulate(make_state(grid, params, u0, b0, branch), t_final=100.0,
                   dt_max=1e-2, cfl=0.4, sample_every=10)
    wall = time.perf_counter() - t0
    assert res.reason == "completed"
    return {"grid": grid, "params": params, "res": res, "wall": wall,
            "dt": 1e-2}


@pytest.fixture(scope="module")
def run4():
    return _standard_run(1.0, 1.0, "auto")


@pytest.fixture(scope="module")
def run6():
    return _standard_run(1.5, 2.0 / 3.0, "kappa")


class TestCriterion1Poincare:
    def test_gaussian_equality_under_refinement(self):
        f = lambda y: np.exp(-y ** 2 / 4.0)
        lhs_c, rhs_c, _, _ = poincare_check(f, t=0.0, kappa=1.0, ny=2048)
        lhs_f, rhs_f, _, ok = poincare_check(f, t=0.0, kappa=1.0, ny=4096)
        gap_c = abs(lhs_c - rhs_c)
        gap_f = abs(lhs_f - rhs_f)
        good = (ok and gap_f < gap_c
                and abs(lhs_f - HALF_ROOT_PI) < 1e-6
                and abs(rhs_f - HALF_ROOT_PI) < 1e-6)
        note(good, "criterion 1a",
             f"Gaussian equality: lhs={lhs_f:.9f} rhs={rhs_f:.9f} "
             f"gap {gap_c:.2e} -> {gap_f:.2e}")
        assert good

    def test_random_suite_450_cases(self):
        t0 = time.perf_counter()
        rep = run_poincare_suite(seed=0)
        wall = time.perf_counter() - t0
        good = rep["all_pass"] and rep["cases"] == 450 and wall < 10.0
        note(good, "criterion 1b",
             f"{rep['cases']} cases, {rep['failures']} failures, "
             f"{wall:.2f}s (< 10s)")
        assert good


class TestCriterion2SupConstants:
    def test_closed_form_constants(self):
        t0 = time.perf_counter()
        rep = run_sup_constants_suite()
        wall = time.perf_counter() - t0
        e1 = abs(rep["sup1"] - 0.541044)
        e2 = abs(rep["sup2"] - 0.886227)
        good = e1 <= 1e-5 and e2 <= 1e-7 and wall < 1.0
        note(good, "criterion 2",
             f"sup1={rep['sup1']:.7f} (err {e1:.1e} <= 1e-5), "
             f"sup2={rep['sup2']:.8f} (err {e2:.1e} <= 1e-7), {wall:.2f}s")
        assert good


def _heat_exact(y, t):
    s = 1.0 + 2.0 * t
    return s ** -1.5 * y * np.exp(-y ** 2 / (2.0 * s))


def _heat_run(grid, params, dt, t_final):
    spec = np.zeros(grid.nmodes, dtype=complex)
    spec[0] = 1.0
    u0 = Field.from_profiles(grid, spec, _heat_exact(grid.y, 0.0),
                             BC_DIRICHLET)
    b0 = Field.zeros(grid, BC_NEUMANN)
    st = make_state(grid, params, u0, b0)
    for _ in range(round(t_final / dt)):
        st = step_imex(st, dt)
    return st.u.coeffs[:, 0].real


class TestCriterion3Heat:
    def test_closed_form_and_refinement(self):
        grid = GridSpec(2.0 * np.pi, 8, 18.0, 512)
        params = Params(kappa=1.0, epsilon=1e-3)
        got = _heat_run(grid, params, 1e-3, 1.0)
        err = float(np.max(np.abs(got - _heat_exact(grid.y, 1.0))))

        sols = [_heat_run(grid, params, dt, 0.25)
                for dt in (5e-3, 2.5e-3, 1.25e-3)]
        d1 = float(np.max(np.abs(sols[0] - sols[1])))
        d2 = float(np.max(np.abs(sols[1] - sols[2])))
        ratio = d1 / d2
        good = err < 1e-4 and 3.5 <= ratio <= 4.5
        note(good, "criterion 3",
             f"heat error {err:.2e} (< 1e-4), dt-halving ratio "
             f"{ratio:.3f} (in [3.5, 4.5])")
        assert good


@pytest.mark.slow
class TestCriterion4Decay:
    def test_fitted_exponents(self, run4):
        s = run4["res"].series
        e_ub, s_ub = fit_decay(s, "norm_ub", (10.0, 100.0))
        e_gh, s_gh = fit_decay(s, "norm_gh", (10.0, 100.0))
        good = (e_ub <= -0.68 and e_gh <= -1.15
                and s_ub < 0.02 and s_gh < 0.02)
        note(good, "criterion 4",
             f"fields ~ t^{e_ub:.3f} (<= -0.68, stderr {s_ub:.1e}), "
             f"corrected pair ~ t^{e_gh:.3f} (<= -1.15, stderr {s_gh:.1e}); "
             f"run took {run4['wall']:.0f}s")
        assert good


@pytest.mark.slow
class TestCriterion5BandBudget:
    def test_theta_converged(self, run4):
        s = run4["res"].series
        t = s.column("t")
        th = s.column("theta")
        th50 = float(np.interp(50.0, t, th))
        th100 = float(th[-1])
        ratio = (th100 - th50) / th100
        good = ratio <= 0.02
        note(good, "criterion 5a",
             f"theta(100)-theta(50) = {ratio:.2%} of theta(100) (<= 2%)")
        assert good

    def test_theta_below_band_cap(self, run4):
        th100 = run4["res"].summary["theta_final"]
        cap = run4["params"].delta / (2.0 * run4["params"].lam)
        good = th100 < cap
        note(good, "criterion 5b",
             f"theta(100) = {th100:.3e} < delta/(2 lam) = {cap:.3e}")
        assert good

    def test_gradient_integral_tail(self, run4):
        rep = theta_report(run4["res"].series, t_split=50.0)
        frac = rep["integral1_tail_fraction"]
        good = frac <= 0.05
        note(good, "criterion 5c",
             f"gradient integral accumulates {frac:.2%} after t=50 (<= 5%)")
        assert good


@pytest.mark.slow
class TestCriterion6KappaBranch:
    def test_fitted_exponent(self, run6):
        s = run6["res"].series
        bound = -(0.5 + 2.0 / 9.0) + 0.07
        e_ub, s_ub = fit_decay(s, "norm_ub", (10.0, 100.0))
        good = e_ub <= bound and s_ub < 0.02
        note(good, "criterion 6",
             f"kappa=3/2 fields ~ t^{e_ub:.3f} (<= {bound:.4f}, "
             f"stderr {s_ub:.1e}); run took {run6['wall']:.0f}s")
        assert good


class TestCriterion7ScalingSymmetry:
    def test_conjugate_runs_agree(self):
        kap = 2.0
        ymax = recommended_ymax(1.0, kappa=kap, weight_alpha=0.5)
        grid_a = GridSpec(2.0 * np.pi, 32, ymax, 257)
        par_a = Params(kappa=kap, epsilon=1e-3)
        u0a, b0a, _ = initial_data_standard(grid_a, par_a)
        grid_b, u0b, b0b = kappa_rescale_map(grid_a, u0a, b0a, kap)
        par_b = Params(kappa=kap, epsilon=1e-3, nu_u=1.0 / kap, nu_b=1.0)

        res_a = simulate(make_state(grid_a, par_a, u0a, b0a), t_final=1.0,
                         dt_max=1e-2, sample_every=100)
        res_b = simulate(make_state(grid_b, par_b, u0b, b0b), t_final=1.0,
                         dt_max=1e-2, sample_every=100)
        _, mu, mb = kappa_rescale_map(grid_a, res_a.state.u,
                                      res_a.state.b, kap)
        part = build_partition(grid_b)
        du = Field(grid_b, mu.coeffs - res_b.state.u.coeffs, mu.bc)
        db = Field(grid_b, mb.coeffs - res_b.state.b.coeffs, mb.bc)
        rel = (besov_pair_norm(part, du, db)
               / besov_pair_norm(part, res_b.state.u, res_b.state.b))
        good = rel < 1e-5
        note(good, "criterion 7",
             f"rescaled runs differ by {rel:.2e} relative at t=1 (< 1e-5)")
        assert good


@pytest.mark.slow
class TestCriterion8EnergyAudit:
    def test_discrete_slack_along_run(self, run4):
        slacks = run4["res"].summary["audit_min_slack"]
        dy = run4["grid"].dy
        bound = -(10.0 * run4["dt"] + 10.0 * dy * dy)
        worst = min(slacks.values())
        good = worst >= bound
        note(good, "criterion 8",
             f"worst audit slack {worst:.2e} >= {bound:.2e} "
             f"over {len(slacks)} weight/diffusivity combos")
        assert good


class TestCriterion9Structural:
    def test_partition_of_unity(self):
        g = GridSpec(2.0 * np.pi, 128, 16.0, 33)
        part = build_partition(g)
        tot = part.phi_table.sum(axis=0)
        nz = np.abs(g.xi) > 0.0
        worst = float(np.max(np.abs(tot[nz] - 1.0)))
        good = worst < 1e-12 and not np.any(part.phi_table[:, ~nz])
        note(good, "criterion 9a", f"partition of unity residual {worst:.2e}")
        assert good

    def test_bony_reconstruction(self):
        """The pieces rebuild the stored modes of the grid product; with
        every mode stored (dealias_fraction 1) also the product itself."""
        good = True
        for frac in (2.0 / 3.0, 1.0):
            g = GridSpec(2.0 * np.pi, 64, 12.0, 48, frac)
            part = build_partition(g)
            rng = np.random.default_rng(7)
            fa = Field(g, x_transform(g, rng.standard_normal((g.ny, g.nx)),
                                      "forward"))
            fb = Field(g, x_transform(g, rng.standard_normal((g.ny, g.nx)),
                                      "forward"))
            t1, t2, rem = paraproduct(part, fa, fb)
            mean_term = (fa.coeffs[:, 0].real * fb.coeffs[:, 0].real)[:, None]
            rhs = fa.physical() * fb.physical() - mean_term
            prod = x_transform(g, rhs, "forward")
            pieces = t1.coeffs + t2.coeffs + rem.coeffs
            scale = max(1.0, float(np.max(np.abs(prod))))
            worst = float(np.max(np.abs(pieces - prod))) / scale
            if frac == 1.0:
                lhs = t1.physical() + t2.physical() + rem.physical()
                scale = max(1.0, float(np.max(np.abs(rhs))))
                worst = max(worst, float(np.max(np.abs(lhs - rhs))) / scale)
            good = note(worst < 1e-10, "criterion 9b",
                        f"product reconstruction residual {worst:.2e} "
                        f"(dealias_fraction {frac:.3g})") and good
        assert good

    def test_multiplier_convexity_suite(self):
        rng = np.random.default_rng(2024)
        n = 64
        failures = 0
        for i in range(200):
            f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            r = float(rng.uniform(0.0, 0.5))
            rep = multiplier_convexity_check(f, g, r)
            if not rep["passed"]:
                failures += 1
        good = failures == 0
        note(good, "criterion 9c",
             f"{failures} failures over 200 random pairs")
        assert good

    def test_zero_data_stays_zero(self):
        g = GridSpec(2.0 * np.pi, 16, 12.0, 65)
        p = Params(kappa=1.0, epsilon=1e-3)
        res = simulate(make_state(g, p, Field.zeros(g, BC_DIRICHLET),
                                  Field.zeros(g, BC_NEUMANN)), t_final=0.1,
                       dt_max=1e-2, sample_every=5)
        s = res.series
        cols_zero = all(not np.any(s.column(c)) for c in
                        ("theta", "norm_ub", "norm_gh", "norm_dy_gh",
                         "norm_phipsi", "cl_dyub_sq"))
        good = (cols_zero and not np.any(res.state.u.coeffs)
                and not np.any(res.state.b.coeffs))
        note(good, "criterion 9d", "zero data: all samples and final "
             "state exactly zero" if good else "zero data leaked")
        assert good

    def test_checkpoint_round_trip_bits(self, tmp_path):
        g = GridSpec(2.0 * np.pi, 16, 12.0, 65)
        p = Params(kappa=1.5, epsilon=1e-3)
        u0, b0, _ = initial_data_standard(g, p)
        st = make_state(g, p, u0, b0)
        for _ in range(3):
            st = step_imex(st, 1e-3)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(str(p1), st, None, extras={"tag": 1})
        st2, ff, extras = load_checkpoint(str(p1))
        save_checkpoint(str(p2), st2, ff, extras=extras)
        same_bytes = p1.read_bytes() == p2.read_bytes()
        same_fields = (np.array_equal(st.u.coeffs, st2.u.coeffs)
                       and np.array_equal(st.b.coeffs, st2.b.coeffs)
                       and np.array_equal(st.prev_ru, st2.prev_ru))
        good = same_bytes and same_fields
        note(good, "criterion 9e",
             f"round trip bit-exact: fields {same_fields}, "
             f"resave {same_bytes}")
        assert good

    def test_deterministic_rerun_bytes(self, tmp_path):
        args = ["simulate", "--set", "grid.nx=16", "--set", "grid.ny=96",
                "--set", "grid.ymax=16", "--set", "run.t_final=0.1"]
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        same = ((out_a / "norms.csv").read_bytes()
                == (out_b / "norms.csv").read_bytes())
        good = same
        note(good, "criterion 9f", "identical config gives byte-identical "
             "norms.csv" if same else "rerun bytes differ")
        assert good
