"""End-to-end checks of the command line: config parsing and validation,
simulate/verify/fit/resume flows, output files, and exit codes.
"""

import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mhdbl
from mhdbl.cli import (
    ConfigError,
    main,
    parse_config,
    read_norms_csv,
    validate_config,
    write_norms_csv,
)
from mhdbl.solver import NormSeries, load_checkpoint


def run_cli(*argv):
    return main(list(argv))


def base_args(out, *overrides):
    args = ["simulate", "--out", str(out),
            "--set", "grid.nx=16", "--set", "grid.ny=128",
            "--set", "grid.ymax=16", "--set", "run.t_final=0.1"]
    for ov in overrides:
        args += ["--set", ov]
    return args


class TestConfig:
    def test_defaults(self):
        cfg = parse_config()
        assert cfg["params.kappa"] == 1.0
        assert cfg["grid.nx"] == 64
        assert cfg["scenario.farfield"] == "trivial"
        assert cfg["run.branch"] == "auto"

    def test_file_comments_and_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# full line comment\n"
            "\n"
            "params.kappa = 1.5   # trailing comment\n"
            "grid.nx=32\n")
        cfg = parse_config(str(path), ["run.t_final=2.0"])
        assert cfg["params.kappa"] == 1.5
        assert cfg["grid.nx"] == 32
        assert cfg["run.t_final"] == 2.0
        # untouched keys keep their defaults
        assert cfg["grid.ny"] == 256

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("params.kappa=1.0\njust words\n")
        with pytest.raises(ConfigError, match="malformed line 2"):
            parse_config(str(path))

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match="params.kapa"):
            parse_config(None, ["params.kapa=2.0"])

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="expected int"):
            parse_config(None, ["grid.nx=tiny"])

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read config"):
            parse_config("/no/such/file.cfg")

    def test_validate_rejects_bad_fields(self):
        """validate_config refuses only the names the CLI gives meaning
        to; the library refuses every other value (TestSimulateCommand)."""
        for item, msg in (
                ("scenario.id=warped", "unknown scenario.id 'warped'"),
                ("scenario.farfield=steady",
                 "unknown scenario.farfield 'steady'")):
            cfg = parse_config(None, [item])
            with pytest.raises(ConfigError, match=msg):
                validate_config(cfg)


class TestSimulateCommand:
    def test_zero_scenario_run(self, tmp_path, capsys):
        out = tmp_path / "zero"
        code = run_cli(*base_args(out, "scenario.id=zero"))
        assert code == 0
        assert "reason=completed" in capsys.readouterr().out

        data = read_norms_csv(str(out / "norms.csv"))
        assert set(data) == set(NormSeries.COLUMNS)
        for col in ("theta", "norm_ub", "norm_gh", "norm_dy_gh",
                    "norm_phipsi", "cl_dyub_sq"):
            assert not np.any(data[col])
        assert np.all(np.diff(data["t"]) > 0.0)

        doc = json.loads((out / "summary.json").read_text())
        assert doc["summary"]["reason"] == "completed"
        assert doc["config"]["scenario.id"] == "zero"
        assert "initial_data" not in doc["summary"]
        # too few samples inside the fit window: fits degrade to null
        assert doc["fits"]["norm_ub"] is None

        state, ff, extras = load_checkpoint(str(out / "final.ckpt"))
        assert state.t == pytest.approx(0.1, abs=1e-12)
        assert not np.any(state.u.coeffs)
        assert ff is None

    def test_standard_run_writes_report(self, tmp_path):
        out = tmp_path / "std"
        code = run_cli(*base_args(out))
        assert code == 0
        doc = json.loads((out / "summary.json").read_text())
        assert doc["summary"]["initial_data"]["ok"]
        assert doc["summary"]["theta_final"] > 0.0
        assert doc["theta"]["t_final"] == pytest.approx(0.1, abs=1e-12)
        data = read_norms_csv(str(out / "norms.csv"))
        assert data["norm_ub"][0] > 0.0

    def test_reruns_are_byte_identical(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_cli(*base_args(out_a)) == 0
        assert run_cli(*base_args(out_b)) == 0
        assert (out_a / "norms.csv").read_bytes() == \
            (out_b / "norms.csv").read_bytes()
        assert (out_a / "final.ckpt").read_bytes() == \
            (out_b / "final.ckpt").read_bytes()

    def test_config_error_exits_two(self, tmp_path, capsys):
        code = run_cli("simulate", "--out", str(tmp_path / "x"),
                       "--set", "params.kapa=2")
        assert code == 2
        assert "params.kapa" in capsys.readouterr().err
        # non-finite or non-positive run values are input errors too,
        # refused by simulate in its own words
        for item in ("run.t_final=nan", "run.cfl=nan", "run.cfl=-1",
                     "run.dt_max=nan"):
            code = run_cli(*base_args(tmp_path / "x", item))
            assert code == 2, item
            name, value = item[len("run."):].split("=")
            assert capsys.readouterr().err == (
                f"error: {name} must be positive and finite, got "
                f"{float(value)!r}\n")
        # so are non-finite physical parameters, grid and far-field
        # values, with the key named
        for item in ("params.lam=inf", "params.epsilon=nan",
                     "params.kappa=nan", "params.delta=inf", "grid.ymax=inf",
                     "grid.lx=nan", "grid.lx=inf", "scenario.ff_eps=nan",
                     "scenario.ff_eps=inf", "scenario.alpha=nan",
                     "scenario.alpha=inf"):
            far = () if item.startswith(("params.", "grid.")) else (
                "params.kappa=1.5", "scenario.farfield=decaying")
            code = run_cli(*base_args(tmp_path / "x", *far, item))
            assert code == 2, item
            key, value = item.split("=")
            words = ("finite and >= 0" if key == "scenario.ff_eps"
                     else "positive and finite")
            assert capsys.readouterr().err == (
                f"error: {key} must be {words}, got {value}\n")
        # and counts past the largest double (401 and 422 digits), refused
        # by name before GridSpec converts them
        for key, value, low in (("grid.ny", 10 ** 400, 16),
                                ("grid.nx", 2 ** 1400, 8)):
            code = run_cli(*base_args(tmp_path / "x", f"{key}={value}"))
            assert code == 2, key
            assert capsys.readouterr().err == (
                f"error: {key} must be an integer >= {low}, got {value}\n")
        # and values whose square overflows a Python float: kappa in the
        # energy audit, dy in d2dy, the far-field amplitude in U d_x U
        for item, msg, far in (
                ("params.kappa=1e160", "params.kappa=1e+160 is too large: "
                                       "the energy audit squares it", ()),
                ("grid.ymax=1e300", "ymax must exceed 4 and keep dy^2 "
                                    "finite, got grid.ymax=1e+300", ()),
                ("scenario.ff_eps=1e160", "scenario.ff_eps=1e+160 is too "
                 "large: U d_x U squares it",
                 ("params.kappa=1.5", "scenario.farfield=decaying"))):
            out = tmp_path / "huge"
            code = run_cli(*base_args(out, *far, item))
            assert code == 2, item
            assert capsys.readouterr().err == f"error: {msg}\n"
            assert not (out / "norms.csv").exists()
        # and a band radius whose multiplier e^(delta xi) overflows on the
        # default grid's top mode, xi_max = 21, or on a short period's
        for item, delta, xi_max in (("params.delta=34", 34.0, "21"),
                                    ("params.delta=800", 800.0, "21"),
                                    ("grid.lx=1e-3", 1.0, "131947")):
            out = tmp_path / "band"
            code = run_cli("simulate", "--out", str(out), "--set", item)
            assert code == 2, item
            assert capsys.readouterr().err == (
                f"error: params.delta={delta!r} is too large: e^(delta xi) "
                f"overflows at xi_max={xi_max}\n")
            assert not (out / "norms.csv").exists()
        # and initial data whose square overflows, refused before any norm
        # squares it (and warns)
        out = tmp_path / "loud"
        code = run_cli("simulate", "--out", str(out), "--set", "grid.nx=16",
                       "--set", "grid.ny=92", "--set", "params.epsilon=3e227",
                       "--set", "run.t_final=1e-6")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: initial amplitude max |u0|, |b0| = ")
        assert err.endswith(" is too large: its square overflows a double\n")
        assert err.count("\n") == 1 and "RuntimeWarning" not in err
        assert not (out / "norms.csv").exists()
        # and initial data so small that the flush of parts whose square
        # underflows would zero it whole; the zero scenario still runs
        out = tmp_path / "faint"
        code = run_cli("simulate", "--out", str(out), "--set", "grid.nx=16",
                       "--set", "grid.ny=92", "--set", "params.epsilon=1e-160",
                       "--set", "run.t_final=1e-6")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: initial amplitude max |u0|, |b0| = ")
        assert err.endswith(" is too small: its square underflows a "
                            "double\n")
        assert err.count("\n") == 1
        assert not (out / "norms.csv").exists()
        out = tmp_path / "still"
        assert run_cli("simulate", "--out", str(out), "--set", "grid.nx=16",
                       "--set", "grid.ny=92", "--set", "params.epsilon=1e-160",
                       "--set", "scenario.id=zero",
                       "--set", "run.t_final=1e-6") == 0
        assert (out / "norms.csv").exists()
        # and heights whose dy leaves the zero-flux shape y e^{-y^2/2} no
        # mass at any node, refused before the profiles' y^3 overflows
        for ymax, extra in (("1e60", ()), ("1e103", ()), ("1e155", ()),
                            ("1e120", ("--set", "scenario.id=zero"))):
            out = tmp_path / f"coarse{ymax}"
            code = run_cli("simulate", "--out", str(out),
                           "--set", "grid.nx=16", "--set", "grid.ny=92",
                           "--set", f"grid.ymax={ymax}",
                           "--set", "run.t_final=1e-6", *extra)
            assert code == 2, ymax
            err = capsys.readouterr().err
            assert err.startswith(f"error: grid.ymax={float(ymax):g} over "
                                  "grid.ny=92 gives dy="), err
            assert err.count("\n") == 1 and "RuntimeWarning" not in err
            assert not (out / "norms.csv").exists()

    @pytest.mark.parametrize("items, msg", [
        (("scenario.farfield=decaying",),
         "kappa = 1 runs require the trivial far field"),
        (("scenario.farfield=decaying", "scenario.ff_eps=1e-4"),
         "kappa = 1 runs require the trivial far field"),
        (("run.sample_every=0",), "sample_every must be an integer >= 1, "
                                  "got 0"),
        (("run.branch=sideways",), "unknown branch 'sideways'"),
        (("run.t_final=0",), "t_final must be positive and finite, got 0.0"),
        (("run.t_final=inf",), "t_final must be positive and finite, got inf"),
        (("run.dt_max=-1",), "dt_max must be positive and finite, got -1.0"),
    ], ids=["farfield-k1", "farfield-k1-eps", "sample_every", "branch",
            "t_final-0", "t_final-inf", "dt_max"])
    def test_run_inputs_refused_by_the_library(self, tmp_path, capsys, items,
                                               msg):
        """A far field at kappa = 1, a bad run setting and an unknown
        weight branch are refused once, by make_state or simulate: exit 2
        with their one line, before any output."""
        out = tmp_path / "r"
        assert run_cli(*base_args(out, *items)) == 2
        assert capsys.readouterr().err == f"error: {msg}\n"
        assert not (out / "norms.csv").exists()

    def test_tstar_exits_three_with_partial_output(self, tmp_path, capsys):
        out = tmp_path / "tstar"
        code = run_cli(*base_args(out, "params.lam=1000000000"))
        assert code == 3
        cap = capsys.readouterr()
        assert "reason=tstar" in cap.out
        assert re.fullmatch(r"simulate: stopped: band exhausted at t=\S+\n",
                            cap.err)
        doc = json.loads((out / "summary.json").read_text())
        assert doc["summary"]["reason"] == "tstar"
        assert (out / "norms.csv").exists()

    def test_tail_guard_at_t0_exits_four_with_partial_output(self, tmp_path,
                                                             capsys):
        # a domain this short shows the weighted tail at the t=0 sample
        out = tmp_path / "short"
        code = run_cli(*base_args(out, "grid.ymax=6"))
        assert code == 4
        cap = capsys.readouterr()
        assert "reason=tail t=0 " in cap.out
        # the guard's message, one line on stderr
        assert re.fullmatch(r"simulate: stopped: weighted tail ratio \S+ "
                            r"above 0\.8\*ymax at t=0; domain too short "
                            r"for this horizon\n", cap.err)
        doc = json.loads((out / "summary.json").read_text())
        assert doc["summary"]["reason"] == "tail"
        assert doc["summary"]["steps"] == 0
        assert len(read_norms_csv(str(out / "norms.csv"))["t"]) == 1
        assert (out / "final.ckpt").exists()

    def test_band_overflow_exits_four_naming_the_band(self, tmp_path,
                                                      capsys):
        # e^(delta xi_max) = e^630 on the default grid is finite, but its
        # square times the data's is not: the band, not ymax, is named,
        # and no RuntimeWarning (an error under this suite) is printed
        out = tmp_path / "band"
        code = run_cli("simulate", "--out", str(out),
                       "--set", "params.delta=30")
        assert code == 4
        assert capsys.readouterr().err == (
            "simulate: stopped: band multiplier e^(r xi) at radius r=30 "
            "overflows the shell power\n")

    def test_huge_far_field_diverges_at_the_start_up_midpoint(self, tmp_path,
                                                             capsys):
        # eps^2 is finite, but the start-up midpoint holds about eps^2 dt/2,
        # and its products would overflow: the blow-up limit stops the run
        # before they are formed, so no RuntimeWarning is printed
        for eps in ("1e100", "1e150"):
            out = tmp_path / f"ff{eps}"
            code = run_cli(*base_args(out, "grid.ny=512", "grid.ymax=20",
                                      "run.t_final=0.02", "params.kappa=1.5",
                                      "scenario.farfield=decaying",
                                      f"scenario.ff_eps={eps}"))
            assert code == 4, eps
            assert re.fullmatch(r"simulate: stopped: field magnitude \S+ "
                                r"exceeds 1\.000e\+06\n",
                                capsys.readouterr().err)
            doc = json.loads((out / "summary.json").read_text())
            assert doc["summary"]["reason"] == "divergence"

    def test_unresolved_cutoff_exits_two_before_output(self, tmp_path,
                                                       capsys):
        # the same short domain with a far field: its cutoff cannot be
        # sampled, an input error that precedes the t=0 sample
        out = tmp_path / "cut"
        code = run_cli(*base_args(out, "grid.ny=64", "grid.ymax=6",
                                  "params.kappa=1.5",
                                  "scenario.farfield=decaying",
                                  "scenario.ff_eps=1e-4"))
        assert code == 2
        err = capsys.readouterr().err
        assert err == ("error: cutoff transition zone holds only 11 nodes; "
                       "need >= 16 (refine ny or shrink ymax)\n")
        assert not (out / "norms.csv").exists()


# Configs for the property test: small grids and at most 3 steps of
# dt_max = 0.01, every float log-uniform over 1e-300 to 1e300, and at
# most one key set to a negative, non-finite or malformed value.
_MAGNITUDE = st.floats(-300.0, 300.0).map(lambda e: repr(10.0 ** e))
_CONFIG = {
    "grid.nx": st.sampled_from(["8", "16"]),
    "grid.ny": st.integers(16, 96).map(str),
    "run.t_final": st.floats(1e-6, 0.03).map(repr),
}
_OPTIONAL = {
    **{key: _MAGNITUDE for key in (
        "params.kappa", "params.epsilon", "params.delta", "params.lam",
        "grid.lx", "grid.ymax", "scenario.alpha", "scenario.ff_eps",
        "run.cfl")},
    "run.sample_every": st.integers(1, 4).map(str),
    "scenario.id": st.sampled_from(["standard", "zero"]),
    "scenario.farfield": st.sampled_from(["trivial", "decaying"]),
    "run.branch": st.sampled_from(["auto", "unit", "kappa"]),
}
_BAD = st.tuples(
    st.sampled_from(sorted({*_CONFIG, *_OPTIONAL})),
    _MAGNITUDE.map(lambda v: "-" + v)
    | st.sampled_from(["0", "-0.0", "nan", "inf", "-inf", "1e999", "7", "",
                       "x", "1,5"]))


class TestAnyConfig:
    @given(cfg=st.fixed_dictionaries(_CONFIG, optional=_OPTIONAL),
           bad=st.none() | _BAD)
    @settings(max_examples=40, deadline=None)
    def test_simulate_ends_with_a_documented_exit_code(self, cfg, bad):
        """Over bounded configs with extreme magnitudes and at most one
        bad value, simulate returns 0, 2, 3 or 4 and raises nothing.
        numpy's overflow and invalid-value warnings, which extreme values
        set off on their way to a guard, are not raised here."""
        if bad is not None:
            cfg[bad[0]] = bad[1]
        items = ["run.dt_max=0.01"] + [f"{k}={v}" for k, v in cfg.items()]
        with tempfile.TemporaryDirectory() as out, np.errstate(all="ignore"):
            code = run_cli("simulate", "--out", out,
                           *[a for item in items for a in ("--set", item)])
        assert code in (0, 2, 3, 4)


class TestImports:
    def test_run_loads_no_unused_scipy_module(self, tmp_path):
        """A far-field run and its resume, then the conjugate map and a
        short run of the conjugate system, in a fresh interpreter, load no
        scipy module at all: the CN solves are numpy, and the verify
        suites import what they use of scipy on first use."""
        out = tmp_path / "far"
        argv = base_args(out, "grid.ny=256", "params.kappa=1.5",
                         "scenario.farfield=decaying", "scenario.ff_eps=1e-4")
        code = (
            "import sys\n"
            "import mhdbl.cli\n"
            f"assert mhdbl.cli.main({argv!r}) == 0\n"
            f"assert mhdbl.cli.main(['resume', {str(out / 'final.ckpt')!r},"
            f" '--out', {str(tmp_path / 'more')!r},"
            " '--set', 'run.t_final=0.2']) == 0\n"
            "from mhdbl.grid import GridSpec\n"
            "from mhdbl.scenario import Params, initial_data_standard\n"
            "from mhdbl.solver import kappa_rescale_map, make_state, simulate\n"
            "g = GridSpec(6.283185307179586, 16, 16.0, 128)\n"
            "u, b, _ = initial_data_standard(g, Params(2.0, 1e-3))\n"
            "g, u, b = kappa_rescale_map(g, u, b, 2.0)\n"
            "p = Params(2.0, 1e-3, nu_u=0.5, nu_b=1.0)\n"
            "res = simulate(make_state(g, p, u, b), t_final=0.02)\n"
            "assert res.reason == 'completed', res.message\n"
            "print(' '.join(sorted(sys.modules)))\n")
        src = os.path.dirname(os.path.dirname(mhdbl.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.splitlines()[-1].split())
        assert "mhdbl.solver" in loaded
        assert not [m for m in loaded if m.split(".")[0] == "scipy"]


class TestVerifyCommand:
    def test_sup_constants(self, tmp_path, capsys):
        out = tmp_path / "v"
        code = run_cli("verify", "sup-constants", "--out", str(out))
        assert code == 0
        assert "pass" in capsys.readouterr().out
        rep = json.loads((out / "report.json").read_text())
        assert rep["all_pass"]
        assert rep["sup1"] == pytest.approx(0.541044, abs=1e-5)

    def test_unknown_suite(self, tmp_path, capsys):
        code = run_cli("verify", "frobnicate", "--out", str(tmp_path))
        assert code == 2
        assert "unknown verification suite" in capsys.readouterr().err


class TestFitCommand:
    def _write_csv(self, path, slope=-0.75):
        s = NormSeries()
        for t in np.linspace(0.0, 100.0, 300):
            v = 2.0 * (1.0 + t) ** slope
            s.append(t=t, theta=0.0, radius=1.0, norm_ub=v, norm_gh=v,
                     norm_dy_gh=v, norm_phipsi=v, cl_dyub_sq=0.0,
                     theta_integral1=0.0)
        write_norms_csv(str(path), s)

    def test_exact_power_law(self, tmp_path, capsys):
        csv = tmp_path / "norms.csv"
        self._write_csv(csv)
        code = run_cli("fit", str(csv), "norm_ub", "10", "100")
        assert code == 0
        out = capsys.readouterr().out
        m = re.search(r"exponent (-?[0-9.e+-]+) stderr", out)
        assert m, out
        assert float(m.group(1)) == pytest.approx(-0.75, abs=1e-9)

    def test_missing_column(self, tmp_path, capsys):
        csv = tmp_path / "norms.csv"
        self._write_csv(csv)
        code = run_cli("fit", str(csv), "no_such_column", "10", "100")
        assert code == 2
        assert "not present" in capsys.readouterr().err
        # the time column is named too, not raised as a KeyError
        csv.write_text("time,norm_ub\n0,1\n1,0.5\n")
        code = run_cli("fit", str(csv), "norm_ub", "0", "1")
        assert code == 2
        assert capsys.readouterr().err == (
            f"column 't' not present in {csv}; have ['norm_ub', 'time']\n")

    def test_window_too_narrow(self, tmp_path, capsys):
        csv = tmp_path / "norms.csv"
        self._write_csv(csv)
        code = run_cli("fit", str(csv), "norm_ub", "99.5", "100")
        assert code == 2
        assert "fit failed" in capsys.readouterr().err
        # so does a window that holds a non-finite sample
        rows = csv.read_text().splitlines()
        for bad in ("nan", "inf"):
            cols = rows[200].split(",")
            cols[3] = bad                   # norm_ub at t ~ 66.6
            csv.write_text("\n".join(rows[:200] + [",".join(cols)]
                                     + rows[201:]) + "\n")
            code = run_cli("fit", str(csv), "norm_ub", "10", "100")
            assert code == 2
            assert capsys.readouterr().err == \
                "fit failed: samples in the fit window must be finite\n"

    def test_missing_file(self, tmp_path, capsys):
        code = run_cli("fit", str(tmp_path / "nope.csv"), "norm_ub", "0", "1")
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_csv_round_trip(self, tmp_path):
        csv = tmp_path / "norms.csv"
        self._write_csv(csv, slope=-1.25)
        data = read_norms_csv(str(csv))
        assert data["t"].shape == (300,)
        # repr-based writing keeps doubles exact through the round trip
        assert data["norm_ub"][0] == 2.0


class TestResumeCommand:
    def test_split_run_matches_straight_run(self, tmp_path):
        first = tmp_path / "first"
        straight = tmp_path / "straight"
        resumed = tmp_path / "resumed"
        assert run_cli(*base_args(first)) == 0
        assert run_cli(*base_args(straight, "run.t_final=0.2")) == 0
        code = run_cli("resume", str(first / "final.ckpt"),
                       "--out", str(resumed), "--set", "run.t_final=0.2",
                       "--set", "grid.nx=16", "--set", "grid.ny=128")
        # grid overrides are rejected on resume; retry with run keys only
        assert code == 2
        code = run_cli("resume", str(first / "final.ckpt"),
                       "--out", str(resumed), "--set", "run.t_final=0.2")
        assert code == 0
        rows_straight = (straight / "norms.csv").read_text().splitlines()
        rows_resumed = (resumed / "norms.csv").read_text().splitlines()
        # the seam sits on a sample boundary, so the resumed series is a
        # suffix of the straight one, byte for byte
        assert rows_resumed[0] == rows_straight[0]
        tail = rows_resumed[1:]
        assert tail == rows_straight[-len(tail):]
        assert (resumed / "final.ckpt").read_bytes() == \
            (straight / "final.ckpt").read_bytes()

    def test_fixed_keys_cannot_be_overridden(self, tmp_path, capsys):
        first = tmp_path / "first"
        assert run_cli(*base_args(first)) == 0
        code = run_cli("resume", str(first / "final.ckpt"),
                       "--out", str(tmp_path / "r"),
                       "--set", "params.kappa=1.5")
        assert code == 2
        assert "cannot override" in capsys.readouterr().err
        # the weight branch is fixed too: the checkpoint carries its alpha
        code = run_cli("resume", str(first / "final.ckpt"),
                       "--out", str(tmp_path / "r"),
                       "--set", "run.branch=unit")
        assert code == 2
        assert "cannot override 'run.branch'" in capsys.readouterr().err
        # a config file may not set them either
        for item in ("run.branch=unit", "grid.ny=4096", "params.kappa=0.7"):
            cfg = tmp_path / "resume.cfg"
            cfg.write_text(f"run.t_final = 0.2\n{item}\n")
            code = run_cli("resume", str(first / "final.ckpt"),
                           "--out", str(tmp_path / "r"), "--config", str(cfg))
            assert code == 2
            key = item.split("=")[0]
            assert f"cannot override {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("branch,echo", [("kappa", "auto"),
                                             ("unit", "unit")])
    def test_resume_echoes_the_checkpoint_settings(self, tmp_path, branch,
                                                   echo):
        """summary.json reports the grid, parameters and weight branch the
        resumed run used, which are the checkpoint's, not the defaults."""
        first = tmp_path / "first"
        assert run_cli(*base_args(first, "params.kappa=1.5",
                                  f"run.branch={branch}")) == 0
        out = tmp_path / "r"
        assert run_cli("resume", str(first / "final.ckpt"), "--out", str(out),
                       "--set", "run.t_final=0.2") == 0
        cfg = json.loads((out / "summary.json").read_text())["config"]
        assert (cfg["grid.nx"], cfg["grid.ny"], cfg["grid.ymax"]) == \
            (16, 128, 16.0)
        assert cfg["params.kappa"] == 1.5
        assert cfg["run.branch"] == echo
        assert cfg["run.t_final"] == 0.2

    def test_resume_echoes_the_scenario_id(self, tmp_path):
        first = tmp_path / "first"
        assert run_cli(*base_args(first, "scenario.id=zero")) == 0
        out = tmp_path / "r"
        assert run_cli("resume", str(first / "final.ckpt"), "--out", str(out),
                       "--set", "run.t_final=0.2") == 0
        cfg = json.loads((out / "summary.json").read_text())["config"]
        assert cfg["scenario.id"] == "zero"
        # and the resumed run's checkpoint carries it on
        _, _, extras = load_checkpoint(str(out / "final.ckpt"))
        assert extras["scenario_id"] == "zero"

    def test_resume_refuses_an_unknown_scenario_id(self, tmp_path, capsys,
                                                   rewrite_checkpoint):
        """The scenario id that resume echoes from the checkpoint meets a
        config's rule."""
        first = tmp_path / "first"
        assert run_cli(*base_args(first)) == 0
        bad = tmp_path / "bad.ckpt"
        rewrite_checkpoint(first / "final.ckpt", bad,
                           lambda m: m["header"]["extras"].update(
                               scenario_id=["warped", 5]))
        out = tmp_path / "r"
        code = run_cli("resume", str(bad), "--out", str(out),
                       "--set", "run.t_final=0.2")
        assert code == 2
        assert capsys.readouterr().err == \
            "error: unknown scenario.id ['warped', 5]\n"
        assert not (out / "summary.json").exists()

    def test_must_extend_the_run(self, tmp_path, capsys):
        first = tmp_path / "first"
        assert run_cli(*base_args(first)) == 0
        code = run_cli("resume", str(first / "final.ckpt"),
                       "--out", str(tmp_path / "r"),
                       "--set", "run.t_final=0.05")
        assert code == 2
        assert "does not extend" in capsys.readouterr().err

    def test_unreadable_checkpoints_exit_two(self, tmp_path, capsys,
                                             rewrite_checkpoint):
        first = tmp_path / "first"
        assert run_cli(*base_args(first)) == 0

        def bad_json(members):
            members["header"] = b"]" + json.dumps(
                members["header"]).encode("utf-8")[1:]

        def no_key(members):
            members["header"]["grit"] = members["header"].pop("grid")

        for change, msg in (
                (None, "cannot read checkpoint"),
                (bad_json, "checkpoint header is not valid JSON"),
                (no_key, "checkpoint header lacks key 'grid'"),
                (lambda m: m["header"].update(extras=[]),
                 "malformed checkpoint header"),
                # an integer no double can hold
                (lambda m: m["header"].update(t=10 ** 400),
                 "checkpoint t must be finite and >= 0, got 1000")):
            path = tmp_path / "missing.ckpt"
            if change is not None:
                path = tmp_path / "bad.ckpt"
                rewrite_checkpoint(first / "final.ckpt", path, change)
            code = run_cli("resume", str(path), "--out", str(tmp_path / "r"),
                           "--set", "run.t_final=0.2")
            assert code == 2, msg
            err = capsys.readouterr().err
            assert err.startswith("error: ") and msg in err
            assert err.count("\n") == 1

    @pytest.mark.parametrize("index, name",
                             enumerate(["u", "b", "prev_ru", "prev_rb"]))
    def test_non_finite_checkpoint_arrays_exit_two(self, tmp_path, capsys,
                                                   rewrite_checkpoint,
                                                   index, name):
        """A NaN in the real part of the DC column, which the real-field
        check never sees, is refused on load whichever array holds it."""
        first = tmp_path / "first"
        assert run_cli(*base_args(first)) == 0

        def poison(members):
            assert members["header"]["prev_dt"] is not None
            members[name][5, 0] = np.nan     # row 5, j = 0

        bad = tmp_path / "nan.ckpt"
        rewrite_checkpoint(first / "final.ckpt", bad, poison)
        code = run_cli("resume", str(bad), "--out", str(tmp_path / "r"),
                       "--set", "run.t_final=0.2")
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: checkpoint {name} holds non-finite values\n"
        assert not (tmp_path / "r" / "norms.csv").exists()

    @pytest.fixture(scope="class")
    def stepped_checkpoint(self, tmp_path_factory):
        """The path of a run's final checkpoint, multistep history
        included."""
        first = tmp_path_factory.mktemp("stepped")
        assert run_cli(*base_args(first)) == 0
        return first / "final.ckpt"

    NAN = float("nan")

    # A row refused by grid.checked or the state's workspace keeps the id
    # it was first listed under, whose last part names the rule in the
    # loader's former words.
    @pytest.mark.parametrize("key, value, msg", [
        pytest.param("t", "x", "finite and >= 0",
                     id="t-x-a finite number >= 0"),
        pytest.param("t", NAN, "finite and >= 0",
                     id="t-nan-a finite number >= 0"),
        pytest.param("t", -0.5, "finite and >= 0",
                     id="t--0.5-a finite number >= 0"),
        pytest.param("theta", "x", "finite and >= 0",
                     id="theta-x-a finite number >= 0"),
        ("step_index", "x", "an integer >= 0"),
        ("step_index", 1.5, "an integer >= 0"),
        ("step_index", -1, "an integer >= 0"),
        pytest.param("weight_alpha", "x", "positive and finite",
                     id="weight_alpha-x-1 or 1/kappa"),
        # the state's workspace refuses an alpha of no branch at kappa
        pytest.param("weight_alpha", 0.3, "weight_alpha=0.3 is the alpha of "
                     "no weight branch at kappa=1.0",
                     id="weight_alpha-0.3-1 or 1/kappa"),
        pytest.param("prev_dt", "x", "positive and finite",
                     id="prev_dt-x-null or a finite number > 0"),
        pytest.param("prev_dt", NAN, "positive and finite",
                     id="prev_dt-nan-null or a finite number > 0"),
        pytest.param("theta_int1", [1], "finite and >= 0",
                     id="theta_int1-value11-a finite number >= 0"),
        pytest.param("theta_int1", NAN, "finite and >= 0",
                     id="theta_int1-nan-a finite number >= 0"),
        pytest.param("umax", {}, "finite and >= 0",
                     id="umax-value13-a finite number >= 0"),
        pytest.param("umax", NAN, "finite and >= 0",
                     id="umax-nan-a finite number >= 0"),
        pytest.param("blow_limit", NAN, "positive and finite",
                     id="blow_limit-nan-a finite number > 0"),
        pytest.param("blow_limit", 0.0, "positive and finite",
                     id="blow_limit-0.0-a finite number > 0"),
        pytest.param("cl_integrals", "nan in one", "finite and >= 0",
                     id="cl_integrals-nan in one-4 finite numbers >= 0"),
        ("cl_integrals", "one short", "4 finite numbers >= 0"),
        pytest.param("audit_min", {"u:a1:b1": "x"}, "finite, got 'x'",
                     id="audit_min-value19-an object of finite numbers"),
        ("audit_min", [], "an object of finite numbers"),
        # (kappa, weight_alpha): 1/kappa without the kappa branch (kappa <=
        # 1/2) and 1 without the plain one (kappa >= 2)
        pytest.param("weight_alpha", (0.4, 2.5), "weight_alpha=2.5 is the "
                     "alpha of no weight branch at kappa=0.4",
                     id="weight_alpha-value21-1 or 1/kappa"),
        pytest.param("weight_alpha", (3.0, 1.0), "weight_alpha=1.0 is the "
                     "alpha of no weight branch at kappa=3.0",
                     id="weight_alpha-value22-1 or 1/kappa"),
        # a bool is no number
        ("t", True, "finite and >= 0"),
        ("step_index", True, "an integer >= 0"),
        ("weight_alpha", True, "positive and finite"),
        ("audit_min", {"u:a1:b1": True}, "finite, got True"),
    ])
    def test_bad_header_values_exit_two(self, tmp_path, capsys,
                                        stepped_checkpoint, rewrite_checkpoint,
                                        key, value, msg):
        """Every value of the state's header is checked for type, finiteness
        and range on load, so a bad one exits 2 with one line before any
        step or output.  A msg that starts with "KEY=" is the whole line
        of a rule that joins the key with other values."""
        def change(members):
            header, new = members["header"], value
            if key == "cl_integrals":
                cl = header[key]
                assert len(cl) == 4
                new = cl[:-1] if value == "one short" else [self.NAN] + cl[1:]
            if isinstance(value, tuple):
                header["params"]["kappa"], new = value
            header[key] = new

        path = tmp_path / "bad.ckpt"
        rewrite_checkpoint(stepped_checkpoint, path, change)
        out = tmp_path / "r"
        code = run_cli("resume", str(path), "--out", str(out),
                       "--set", "run.t_final=0.2")
        assert code == 2
        err = capsys.readouterr().err
        want = msg if msg.startswith(f"{key}=") else \
            f"checkpoint {key} must be {msg}"
        assert err.startswith(f"error: {want}")
        assert err.count("\n") == 1
        assert not (out / "norms.csv").exists()

    def test_bad_farfield_values_exit_two(self, tmp_path, capsys,
                                          rewrite_checkpoint):
        """A checkpoint's far field is validated like a new one: a bad
        decay exponent or amplitude exits 2 instead of running or
        raising."""
        first = tmp_path / "first"
        assert run_cli(*base_args(first, "grid.ny=256", "params.kappa=1.5",
                                  "scenario.farfield=decaying",
                                  "scenario.ff_eps=1e-4")) == 0
        for key, value, msg in (
                ("alpha", -1.0, "scenario.alpha must be positive and finite"),
                ("alpha", float("nan"),
                 "scenario.alpha must be positive and finite"),
                ("alpha", "x", "scenario.alpha must be positive and finite"),
                ("eps", 1e160, "scenario.ff_eps=1e+160 is too large")):
            path = tmp_path / "bad.ckpt"
            rewrite_checkpoint(first / "final.ckpt", path,
                               lambda m: m["header"]["farfield"].update(
                                   {key: value}))
            code = run_cli("resume", str(path), "--out", str(tmp_path / "r"),
                           "--set", "run.t_final=0.2")
            assert code == 2, value
            err = capsys.readouterr().err
            assert err.startswith("error: ") and msg in err
            assert err.count("\n") == 1

    def test_header_values_meet_the_run_refusals(self, tmp_path, capsys,
                                                 rewrite_checkpoint):
        """A header is refused where a config would be: an out-of-range
        grid, params or far-field value (a bool, or a float count,
        included) by its constructor, a grid too coarse for the zero-flux
        shapes by the state's workspace, and a far field at kappa = 1 by
        simulate.  The archive is written anew, CRC-32s included, so a
        header that passes those checks loads."""
        first = tmp_path / "first"
        assert run_cli(*base_args(first, "grid.ny=256", "params.kappa=1.5",
                                  "run.branch=unit",
                                  "scenario.farfield=decaying",
                                  "scenario.ff_eps=1e-4")) == 0
        for section, key, value, msg in (
                ("params", "kappa", 1.0,
                 "kappa = 1 runs require the trivial far field"),
                ("grid", "ny", 8, "grid.ny must be an integer >= 16, got 8"),
                ("params", "kappa", -1.0, "params.kappa must be positive and "
                 "finite, got -1.0"),
                ("grid", "ymax", 1e60, "grid.ymax=1e+60 over grid.ny=256 "
                 "gives dy=3.92e+57: the zero-flux shape y e^(-y^2/2) "
                 "underflows to 0 at every node"),
                ("farfield", "alpha", True,
                 "scenario.alpha must be positive and finite, got True"),
                ("farfield", "eps", True, "scenario.ff_eps must be finite and "
                 ">= 0, got True"),
                # a bool is no number, and a float no count
                *(("params", key, True, f"params.{key} must be positive and "
                   "finite, got True")
                  for key in ("kappa", "epsilon", "delta", "lam")),
                *(("grid", key, True, f"grid.{key} must be positive and "
                   "finite, got True") for key in ("lx", "dealias_fraction")),
                ("grid", "ny", 256.0, "grid.ny must be an integer >= 16, "
                 "got 256.0")):
            path = tmp_path / "bad.ckpt"
            rewrite_checkpoint(first / "final.ckpt", path,
                               lambda m: m["header"][section].update(
                                   {key: value}))
            out = tmp_path / f"r-{key}-{value}"
            code = run_cli("resume", str(path), "--out", str(out),
                           "--set", "run.t_final=0.2")
            assert code == 2, (key, value)
            assert capsys.readouterr().err == f"error: {msg}\n"
            assert not (out / "norms.csv").exists()

    def test_step_zero_checkpoint_trips_the_t0_guard_again(self, tmp_path,
                                                           capsys):
        """A checkpoint written at step 0, as the t=0 tail-guard trip
        writes it, holds a state at step 0: resuming it takes the t=0
        sample again and trips the same guard."""
        first = tmp_path / "short"
        assert run_cli(*base_args(first, "grid.ymax=6")) == 4
        err = capsys.readouterr().err
        out = tmp_path / "r"
        code = run_cli("resume", str(first / "final.ckpt"), "--out", str(out),
                       "--set", "run.t_final=0.2")
        assert code == 4
        cap = capsys.readouterr()
        assert "reason=tail t=0 " in cap.out
        assert cap.err == err.replace("simulate:", "resume:", 1)
        for name in ("norms.csv", "final.ckpt"):
            assert (out / name).read_bytes() == (first / name).read_bytes()

    def test_corrupt_version_rejected(self, tmp_path, capsys,
                                      rewrite_checkpoint):
        """Any version but 5 is refused.  Files of versions 1 to 4 are no
        .npz archive: they start with the magic b"MHDBL\\0" and a
        little-endian version word.  Version 1 files stored all nx modes
        and kept part of a run's tallies outside the state, without the
        blow-up limit, so they cannot resume a run exactly; version 2
        files carry no CRC; a version 3 file stores its far field's x
        profile, which may not be the default_x_profile that a far field
        now always has, so it would resume on another far field."""
        first = tmp_path / "first"
        assert run_cli(*base_args(first)) == 0
        broken = tmp_path / "broken.ckpt"
        for version in (42, 4):
            rewrite_checkpoint(first / "final.ckpt", broken,
                               lambda m: m["header"].update(version=version))
            code = run_cli("resume", str(broken), "--out", str(tmp_path / "r"),
                           "--set", "run.t_final=0.2")
            assert code == 2
            assert capsys.readouterr().err == \
                f"error: unsupported checkpoint version {version}\n"
        for version in (1, 2, 3, 4):
            broken.write_bytes(b"MHDBL\0" + version.to_bytes(4, "little")
                               + bytes(64))
            code = run_cli("resume", str(broken), "--out", str(tmp_path / "r"),
                           "--set", "run.t_final=0.2")
            assert code == 2
            assert capsys.readouterr().err == (
                "error: not a checkpoint archive of format 5, or one cut "
                "short or with bytes past its end\n")
