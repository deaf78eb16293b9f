"""Command-line front end: run simulations from flat key=value configs,
drive the verification suites, fit decay exponents from CSV output, and
resume checkpointed runs.

Exit codes: 0 success, 1 a verification suite reported failures,
2 configuration or input errors, 3 the analytic band was exhausted
(partial output is still written), 4 the fields diverged or the weighted
tail left the domain (likewise); 3 and 4 name the guard on stderr.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from .grid import Field, GridSpec
from .scenario import FarField, Params, initial_data_standard
from .solver import (CheckpointError, NormSeries, load_checkpoint,
                     make_state, resolve_branch_alpha, save_checkpoint,
                     simulate)
from .verify import (fit_decay, fit_loglog, run_poincare_suite,
                     run_sup_constants_suite, theta_report)


class ConfigError(ValueError):
    pass


_TWO_PI = 2.0 * math.pi

# key -> (caster, default).  Everything a run needs lives here; unknown
# keys are rejected by name so typos never silently fall back to defaults.
_SCHEMA = {
    "params.kappa": (float, 1.0),
    "params.epsilon": (float, 1e-3),
    "params.delta": (float, 1.0),
    "params.lam": (float, 10.0),
    "grid.lx": (float, _TWO_PI),
    "grid.nx": (int, 64),
    "grid.ny": (int, 256),
    "grid.ymax": (float, 30.0),
    "scenario.id": (str, "standard"),
    "scenario.farfield": (str, "trivial"),
    "scenario.alpha": (float, 2.5),
    "scenario.ff_eps": (float, 0.0),
    "run.t_final": (float, 1.0),
    "run.dt_max": (float, 1e-2),
    "run.cfl": (float, 0.4),
    "run.sample_every": (int, 10),
    "run.branch": (str, "auto"),
}


def _apply_item(cfg: dict, key: str, raw: str, where: str,
                fixed: tuple) -> None:
    if key not in _SCHEMA:
        raise ConfigError(f"unknown config key {key!r} ({where})")
    if key.startswith(fixed):
        raise ConfigError(f"cannot override {key!r} on resume ({where}); "
                          "it is fixed by the checkpoint")
    caster = _SCHEMA[key][0]
    try:
        cfg[key] = caster(raw)
    except ValueError:
        raise ConfigError(
            f"bad value {raw!r} for key {key!r} ({where}): "
            f"expected {caster.__name__}")


def parse_config(path=None, overrides=(), fixed=()) -> dict:
    """Flat key=value text with dotted section prefixes; '#' comments.
    Overrides are extra KEY=VALUE strings applied after the file.  Keys
    starting with a prefix in `fixed` are refused from both."""
    cfg = {k: v for k, (_, v) in _SCHEMA.items()}
    if path is not None:
        try:
            with open(path) as f:
                lines = f.readlines()
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}")
        for lineno, line in enumerate(lines, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(
                    f"malformed line {lineno} in {path}: {line.strip()!r}")
            key, raw = body.split("=", 1)
            _apply_item(cfg, key.strip(), raw.strip(), f"{path}:{lineno}",
                        fixed)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"malformed override {item!r}")
        key, raw = item.split("=", 1)
        _apply_item(cfg, key.strip(), raw.strip(), "command line", fixed)
    return cfg


def validate_config(cfg: dict) -> None:
    """The CLI's own names; the library refuses every other value."""
    if cfg["scenario.id"] not in ("standard", "zero"):
        raise ConfigError(f"unknown scenario.id {cfg['scenario.id']!r}")
    if cfg["scenario.farfield"] not in ("trivial", "decaying"):
        raise ConfigError(
            f"unknown scenario.farfield {cfg['scenario.farfield']!r}")


def _prepare_out(out_dir: str) -> str:
    """Create the output directory and probe it with a write.  Called once
    a command's inputs are built and checked, so a refused input leaves no
    directory, and before any step, so an unwritable one costs none."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        probe = os.path.join(out_dir, ".write-probe")
        with open(probe, "w") as f:
            f.write("")
        os.remove(probe)
    except OSError as e:
        raise ConfigError(f"output path {out_dir!r} not writable: {e}")
    return out_dir


def build_run(cfg: dict):
    """Grid, parameters, initial fields, and far field (None for
    scenario.farfield=trivial) from a validated config."""
    grid = GridSpec(lx=cfg["grid.lx"], nx=cfg["grid.nx"],
                    ymax=cfg["grid.ymax"], ny=cfg["grid.ny"])
    params = Params(kappa=cfg["params.kappa"], epsilon=cfg["params.epsilon"],
                    delta=cfg["params.delta"], lam=cfg["params.lam"])
    if cfg["scenario.id"] == "zero":
        u0 = Field.zeros(grid, "dirichlet")
        b0 = Field.zeros(grid, "neumann")
        report = None
    else:
        u0, b0, report = initial_data_standard(grid, params)
    ff = None
    if cfg["scenario.farfield"] == "decaying":
        ff = FarField(grid, cfg["scenario.ff_eps"], cfg["scenario.alpha"])
    return grid, params, u0, b0, ff, report


def write_norms_csv(path: str, series: NormSeries) -> None:
    cols = NormSeries.COLUMNS
    with open(path, "w", newline="") as f:
        f.write(",".join(cols) + "\n")
        n = len(series.t)
        for i in range(n):
            f.write(",".join(repr(getattr(series, c)[i]) for c in cols))
            f.write("\n")


def read_norms_csv(path: str) -> dict:
    try:
        with open(path) as f:
            header = f.readline().strip().split(",")
            rows = [line.strip().split(",") for line in f if line.strip()]
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}")
    data = np.asarray(rows, dtype=float) if rows else np.zeros((0, len(header)))
    return {name: data[:, j] for j, name in enumerate(header)}


def _fits_for_summary(series: NormSeries, t_final: float) -> dict:
    window = (t_final / 10.0, t_final)
    fits = {"window": list(window)}
    for col in ("norm_ub", "norm_gh"):
        try:
            expo, err = fit_decay(series, col, window)
            fits[col] = {"exponent": expo, "stderr": err}
        except ValueError:
            fits[col] = None
    return fits


# exit code of each way a run ends
_EXIT_CODES = {"completed": 0, "tstar": 3, "divergence": 4, "tail": 4}


def _finish(command: str, out_dir: str, cfg, result, ff) -> int:
    """Write norms.csv, summary.json and final.ckpt; report the ending on
    stdout, and a guard's message on stderr; return the exit code."""
    series, summary = result.series, result.summary
    write_norms_csv(os.path.join(out_dir, "norms.csv"), series)
    doc = {
        "config": cfg,
        "summary": summary,
        "fits": _fits_for_summary(series, summary["t_final"]),
        "theta": theta_report(series) if series.t else None,
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    save_checkpoint(os.path.join(out_dir, "final.ckpt"), result.state, ff,
                    extras={"scenario_id": cfg["scenario.id"]})
    print(f"{command}: reason={result.reason} t={result.state.t:.6g} "
          f"theta={result.state.theta:.6g} -> {out_dir}")
    if result.message:
        print(f"{command}: stopped: {result.message}", file=sys.stderr)
    return _EXIT_CODES[result.reason]


def cmd_simulate(args) -> int:
    cfg = parse_config(args.config, args.overrides)
    validate_config(cfg)
    grid, params, u0, b0, ff, id_report = build_run(cfg)
    start = [make_state(grid, params, u0, b0, cfg["run.branch"])]
    out_dir = _prepare_out(args.out)
    # handed over, not kept here, so the run frees each state it leaves
    result = simulate(start.pop(), ff, t_final=cfg["run.t_final"],
                      dt_max=cfg["run.dt_max"], cfl=cfg["run.cfl"],
                      sample_every=cfg["run.sample_every"])
    if id_report is not None:
        result.summary["initial_data"] = id_report
    return _finish("simulate", out_dir, cfg, result, ff)


def cmd_verify(args) -> int:
    if args.suite == "poincare":
        report = run_poincare_suite(seed=args.seed)
    elif args.suite == "sup-constants":
        report = run_sup_constants_suite()
    else:
        print(f"unknown verification suite {args.suite!r}; "
              "choose poincare or sup-constants", file=sys.stderr)
        return 2
    out_dir = _prepare_out(args.out)
    path = os.path.join(out_dir, "report.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    ok = bool(report.get("all_pass"))
    print(f"verify {args.suite}: "
          f"{'pass' if ok else 'FAIL'} -> {path}")
    return 0 if ok else 1


def cmd_fit(args) -> int:
    data = read_norms_csv(args.csv)
    for col in ("t", args.quantity):
        if col not in data:
            print(f"column {col!r} not present in {args.csv}; "
                  f"have {sorted(data)}", file=sys.stderr)
            return 2
    try:
        expo, err = fit_loglog(data["t"], data[args.quantity],
                               (args.t1, args.t2))
    except ValueError as e:
        print(f"fit failed: {e}", file=sys.stderr)
        return 2
    print(f"exponent {expo!r} stderr {err!r}")
    return 0


def cmd_resume(args) -> int:
    # the checkpoint fixes these; refused from a file and --set alike
    cfg = parse_config(args.config, args.overrides,
                       fixed=("grid.", "params.", "scenario.", "run.branch"))
    state, ff, extras = load_checkpoint(args.checkpoint)
    # echo the settings the run uses, which are the checkpoint's
    g, p, alpha = state.grid, state.params, state.weight_alpha
    cfg.update({"grid.lx": g.lx, "grid.nx": g.nx, "grid.ny": g.ny,
                "grid.ymax": g.ymax, "params.kappa": p.kappa,
                "params.epsilon": p.epsilon, "params.delta": p.delta,
                "params.lam": p.lam,
                "scenario.id": extras.get("scenario_id", cfg["scenario.id"])})
    if ff is not None:
        cfg.update({"scenario.farfield": "decaying",
                    "scenario.ff_eps": ff.eps, "scenario.alpha": ff.alpha})
    if alpha != resolve_branch_alpha(p.kappa, "auto"):
        cfg["run.branch"] = "unit" if alpha == 1.0 else "kappa"
    # the checkpoint's scenario id meets a config's rule
    validate_config(cfg)
    if cfg["run.t_final"] <= state.t:
        raise ConfigError(
            f"run.t_final={cfg['run.t_final']} does not extend the "
            f"checkpoint time {state.t:.6g}")
    out_dir = _prepare_out(args.out)
    result = simulate(state, ff, t_final=cfg["run.t_final"],
                      dt_max=cfg["run.dt_max"], cfl=cfg["run.cfl"],
                      sample_every=cfg["run.sample_every"])
    return _finish("resume", out_dir, cfg, result, ff)


def _build_parser():
    p = argparse.ArgumentParser(
        prog="mhdbl",
        description="Pseudo-spectral boundary-layer runs and their "
                    "verification suites.")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="run from a config file")
    ps.add_argument("--config", default=None, help="key=value config file")
    ps.add_argument("--out", default="out", help="output directory")
    ps.add_argument("--set", dest="overrides", action="append", default=[],
                    metavar="KEY=VALUE", help="override one config key")
    ps.set_defaults(func=cmd_simulate)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--out", default="out")
    pv.set_defaults(func=cmd_verify)

    pf = sub.add_parser("fit", help="fit a decay exponent from norms.csv")
    pf.add_argument("csv")
    pf.add_argument("quantity")
    pf.add_argument("t1", type=float)
    pf.add_argument("t2", type=float)
    pf.set_defaults(func=cmd_fit)

    pr = sub.add_parser("resume", help="continue from a checkpoint")
    pr.add_argument("checkpoint")
    pr.add_argument("--config", default=None)
    pr.add_argument("--out", default="out")
    pr.add_argument("--set", dest="overrides", action="append", default=[],
                    metavar="KEY=VALUE", help="override one config key")
    pr.set_defaults(func=cmd_resume)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (ValueError, CheckpointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
