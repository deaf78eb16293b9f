"""End-to-end checks of the command line: config parsing and validation,
simulate/verify/fit/resume flows, output files, and exit codes.
"""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import mhdbl
from mhdbl.cli import (
    ConfigError,
    main,
    parse_config,
    read_norms_csv,
    validate_config,
    write_norms_csv,
)
from mhdbl.grid import GridSpec
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


def parent_layout(src, dst, extra_shell=0.0):
    """Rewrite checkpoint `src` to `dst` as the writer did when every mode
    was stored: the modes above the dealias cut hold the 1e-214 tail of
    the standard data, and cl_integrals has one more shell."""
    raw = src.read_bytes()
    hlen = int.from_bytes(raw[10:18], "little")
    header = json.loads(raw[18:18 + hlen])
    gd = header["grid"]
    nx = gd["nx"]
    nmodes = GridSpec(gd["lx"], nx, gd["ymax"], gd["ny"],
                      gd["dealias_fraction"]).nmodes
    header["extras"]["cl_integrals"].append(extra_shell)
    arrays = np.frombuffer(raw[18 + hlen:], dtype="<c16").reshape(
        -1, gd["ny"], nx).copy()
    arrays[..., nmodes:nx - nmodes + 1] = 1e-214
    blob = json.dumps(header).encode("utf-8")
    dst.write_bytes(raw[:10] + len(blob).to_bytes(8, "little") + blob
                    + arrays.tobytes())


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

    def test_validate_kappa_one_farfield(self):
        cfg = parse_config(None, ["scenario.farfield=decaying"])
        with pytest.raises(ConfigError, match="requires scenario.farfield"):
            validate_config(cfg)

    def test_validate_rejects_bad_fields(self):
        for item, msg in (
                ("scenario.id=warped", "unknown scenario.id"),
                ("run.sample_every=0", "sample_every"),
                ("run.branch=sideways", "unknown run.branch"),
                ("run.t_final=0", "must be positive"),
                ("run.t_final=nan", "run.t_final must be positive"),
                ("run.t_final=inf", "run.t_final must be positive"),
                ("run.dt_max=nan", "run.dt_max must be positive"),
                ("run.cfl=nan", "run.cfl must be positive"),
                ("run.cfl=-1", "run.cfl must be positive")):
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
        # non-finite or non-positive run values are input errors too
        for item in ("run.t_final=nan", "run.cfl=nan", "run.cfl=-1",
                     "run.dt_max=nan"):
            code = run_cli(*base_args(tmp_path / "x", item))
            assert code == 2, item
            err = capsys.readouterr().err
            assert err.startswith(f"error: {item.split('=')[0]} must be")
            assert err.count("\n") == 1
        # so are non-finite physical parameters
        for item in ("params.lam=inf", "params.epsilon=nan",
                     "params.kappa=nan", "params.delta=inf"):
            code = run_cli(*base_args(tmp_path / "x", item))
            assert code == 2, item
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            assert f"must be positive and finite, got {item}" in err
            assert err.count("\n") == 1
        # and non-finite grid and far-field values, with the key named
        for item in ("grid.ymax=inf", "grid.lx=nan", "grid.lx=inf",
                     "scenario.ff_eps=nan", "scenario.ff_eps=inf",
                     "scenario.alpha=nan", "scenario.alpha=inf"):
            far = () if item.startswith("grid.") else (
                "params.kappa=1.5", "scenario.farfield=decaying")
            code = run_cli(*base_args(tmp_path / "x", *far, item))
            assert code == 2, item
            err = capsys.readouterr().err
            assert err.startswith("error: ") and f"got {item}" in err
            assert err.count("\n") == 1

    def test_tstar_exits_three_with_partial_output(self, tmp_path, capsys):
        out = tmp_path / "tstar"
        code = run_cli(*base_args(out, "params.lam=1000000000"))
        assert code == 3
        assert "reason=tstar" in capsys.readouterr().out
        doc = json.loads((out / "summary.json").read_text())
        assert doc["summary"]["reason"] == "tstar"
        assert (out / "norms.csv").exists()

    def test_tail_guard_at_t0_exits_four_with_partial_output(self, tmp_path,
                                                             capsys):
        # a domain this short shows the weighted tail at the t=0 sample
        out = tmp_path / "short"
        code = run_cli(*base_args(out, "grid.ymax=6"))
        assert code == 4
        assert "reason=tail t=0 " in capsys.readouterr().out
        doc = json.loads((out / "summary.json").read_text())
        assert doc["summary"]["reason"] == "tail"
        assert doc["summary"]["steps"] == 0
        assert len(read_norms_csv(str(out / "norms.csv"))["t"]) == 1
        assert (out / "final.ckpt").exists()

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


class TestImports:
    def test_run_loads_no_unused_scipy_module(self, tmp_path):
        """A far-field run and its resume, in a fresh interpreter, load no
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

    def test_window_too_narrow(self, tmp_path, capsys):
        csv = tmp_path / "norms.csv"
        self._write_csv(csv)
        code = run_cli("fit", str(csv), "norm_ub", "99.5", "100")
        assert code == 2
        assert "fit failed" in capsys.readouterr().err

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

    def test_parent_layout_checkpoint_resumes(self, tmp_path, capsys):
        """A checkpoint written when every mode was stored resumes exactly
        like the same state written now: its modes above the dealias cut
        and its trailing zero Chemin-Lerner shell are dropped."""
        first = tmp_path / "first"
        assert run_cli(*base_args(first)) == 0
        old = tmp_path / "old.ckpt"
        parent_layout(first / "final.ckpt", old)
        for ckpt, out in ((first / "final.ckpt", "new"), (old, "old")):
            assert run_cli("resume", str(ckpt), "--out", str(tmp_path / out),
                           "--set", "run.t_final=0.2") == 0
        for name in ("norms.csv", "summary.json", "final.ckpt"):
            assert (tmp_path / "old" / name).read_bytes() == \
                (tmp_path / "new" / name).read_bytes()
        # a shell outside the window that is not exactly 0 is refused
        parent_layout(first / "final.ckpt", old, extra_shell=1e-30)
        code = run_cli("resume", str(old), "--out", str(tmp_path / "bad"),
                       "--set", "run.t_final=0.2")
        assert code == 2
        assert "Chemin-Lerner shells" in capsys.readouterr().err

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

    def test_must_extend_the_run(self, tmp_path, capsys):
        first = tmp_path / "first"
        assert run_cli(*base_args(first)) == 0
        code = run_cli("resume", str(first / "final.ckpt"),
                       "--out", str(tmp_path / "r"),
                       "--set", "run.t_final=0.05")
        assert code == 2
        assert "does not extend" in capsys.readouterr().err

    def test_unreadable_checkpoints_exit_two(self, tmp_path, capsys):
        first = tmp_path / "first"
        assert run_cli(*base_args(first)) == 0
        raw = (first / "final.ckpt").read_bytes()
        hlen = int.from_bytes(raw[10:18], "little")
        header = raw[18:18 + hlen]
        bad_json = tmp_path / "json.ckpt"
        bad_json.write_bytes(raw[:18] + b"]" + header[1:] + raw[18 + hlen:])
        no_key = tmp_path / "key.ckpt"
        no_key.write_bytes(raw[:18] + header.replace(b'"grid"', b'"grit"')
                           + raw[18 + hlen:])
        doc = json.loads(header)
        doc["extras"] = []
        blob = json.dumps(doc).encode("utf-8")
        bad_extras = tmp_path / "extras.ckpt"
        bad_extras.write_bytes(raw[:10] + len(blob).to_bytes(8, "little")
                               + blob + raw[18 + hlen:])
        for path, msg in (
                (tmp_path / "missing.ckpt", "cannot read checkpoint"),
                (bad_json, "checkpoint header is not valid JSON"),
                (no_key, "checkpoint header lacks key 'grid'"),
                (bad_extras, "malformed checkpoint header")):
            code = run_cli("resume", str(path), "--out", str(tmp_path / "r"),
                           "--set", "run.t_final=0.2")
            assert code == 2, path
            err = capsys.readouterr().err
            assert err.startswith("error: ") and msg in err
            assert err.count("\n") == 1

    @pytest.mark.parametrize("index, name",
                             enumerate(["u", "b", "prev_ru", "prev_rb"]))
    def test_non_finite_checkpoint_arrays_exit_two(self, tmp_path, capsys,
                                                   index, name):
        """A NaN in the DC column, which the conjugate-mirror check never
        sees, is refused on load whichever array holds it."""
        first = tmp_path / "first"
        assert run_cli(*base_args(first)) == 0
        raw = bytearray((first / "final.ckpt").read_bytes())
        hlen = int.from_bytes(raw[10:18], "little")
        assert json.loads(raw[18:18 + hlen])["has_prev"]
        nx, row = 16, 5
        at = 18 + hlen + (index * 128 + row) * nx * 16    # mode 0 of row 5
        raw[at:at + 8] = np.float64(np.nan).tobytes()
        bad = tmp_path / "nan.ckpt"
        bad.write_bytes(bytes(raw))
        code = run_cli("resume", str(bad), "--out", str(tmp_path / "r"),
                       "--set", "run.t_final=0.2")
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: checkpoint {name} holds non-finite values\n"
        assert not (tmp_path / "r" / "norms.csv").exists()

    def test_bad_farfield_values_exit_two(self, tmp_path, capsys):
        """A checkpoint's far field is validated like a new one: a bad
        decay exponent exits 2 instead of running or raising."""
        first = tmp_path / "first"
        assert run_cli(*base_args(first, "grid.ny=256", "params.kappa=1.5",
                                  "scenario.farfield=decaying",
                                  "scenario.ff_eps=1e-4")) == 0
        raw = (first / "final.ckpt").read_bytes()
        hlen = int.from_bytes(raw[10:18], "little")
        header = json.loads(raw[18:18 + hlen])
        for alpha, msg in ((-1.0, "need finite alpha > 0"),
                           (float("nan"), "need finite alpha > 0"),
                           ("x", "malformed checkpoint header")):
            header["farfield"]["alpha"] = alpha
            blob = json.dumps(header).encode("utf-8")
            path = tmp_path / "bad.ckpt"
            path.write_bytes(raw[:10] + len(blob).to_bytes(8, "little")
                             + blob + raw[18 + hlen:])
            code = run_cli("resume", str(path), "--out", str(tmp_path / "r"),
                           "--set", "run.t_final=0.2")
            assert code == 2, alpha
            err = capsys.readouterr().err
            assert err.startswith("error: ") and msg in err
            assert err.count("\n") == 1

    def test_corrupt_version_rejected(self, tmp_path, capsys):
        first = tmp_path / "first"
        assert run_cli(*base_args(first)) == 0
        ckpt = first / "final.ckpt"
        raw = bytearray(ckpt.read_bytes())
        raw[6] = 42
        broken = tmp_path / "broken.ckpt"
        broken.write_bytes(bytes(raw))
        code = run_cli("resume", str(broken), "--out", str(tmp_path / "r"),
                       "--set", "run.t_final=0.2")
        assert code == 2
        assert "unsupported checkpoint version 42" in capsys.readouterr().err
