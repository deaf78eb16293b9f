"""Benchmark of the mhdbl CLI: step time, set-up, wall time and memory of
fresh single-process runs, with a traced variant for per-layer figures.

Run from the root of a checkout:

    python3 perfbench/run.py --workload accept-k1 --seed 1 --seconds 42 --trace 0

Each workload execution ("unit") is one or two CLI invocations, each a
fresh `python3 perfbench/child.py` process that imports mhdbl from the
checkout's src/ and calls mhdbl.cli.main.  Units run back to back, one
process at a time (a closed loop with one client), until the next unit
would overrun --seconds.  The last line of stdout is one JSON object:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1.  Every invocation's output is checked; a failed
check counts the invocation as failed.

    python3 perfbench/run.py --make-reference

re-records perfbench/reference/ from the current code.
"""

import argparse
import csv
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference"

# The seed picks one of SEED_CLASSES input variants: params.epsilon (and
# scenario.ff_eps where the far field is on) is scaled by 1 + 0.02 k for
# k = seed mod SEED_CLASSES, i.e. within [1, 1.14] times the nominal value.
# Grid, window and step count never change.  A reference is stored per k.
SEED_CLASSES = 8
EPS_STEP = 0.02

INVOCATION_TIMEOUT_S = 100.0   # keeps a hung run inside 180 s
# Step intervals dropped at the start of each invocation: the first steps
# pay for first-touch allocation and cold caches (they stay in run_s).
# One audit cycle, so the kept intervals hold whole cycles.
WARMUP_STEPS = 10
CHECK_RTOL = 1e-8         # output deviation from the reference, per column scale
HERMITIAN_RTOL = 1e-12    # Hermitian defect of the final fields, per field scale

# Why each workload exists, and what it stresses.  Windows are 1.2 time
# units (120 steps at dt=1e-2), short enough that a run holds several
# units, so the medians of set-up and wall time rest on several values.
#   accept-k1            ROADMAP's unit of work: the acceptance grid at kappa=1,
#                        trivial far field; audits every 10th step, which is
#                        where step_ms_p95 lands.
#   farfield-k32         kappa=3/2 on the kappa branch with the decaying far
#                        field: the only workload running source terms, the
#                        far-field theta term, two CN diffusivities and 8
#                        distinct audit pairs.  ymax = recommended_ymax(1.2,
#                        1.5, 2/3).
#   dense-sample-resume  half-height grid sampling every step, split into
#                        simulate + resume: sampling, checkpoint write/read,
#                        norms.csv, a second import and set-up.  ymax =
#                        recommended_ymax(1.2, 1, 1).
WORKLOADS = {
    "accept-k1": {
        "t_final": 1.2, "resume": False, "farfield": False,
        "set": ["grid.nx=64", "grid.ny=768", "grid.ymax=181",
                "params.kappa=1", "run.dt_max=0.01", "run.sample_every=10"],
    },
    "farfield-k32": {
        "t_final": 1.2, "resume": False, "farfield": True,
        "set": ["grid.nx=64", "grid.ny=768", "grid.ymax=26",
                "params.kappa=1.5", "run.branch=kappa",
                "scenario.farfield=decaying", "scenario.alpha=2.5",
                "run.dt_max=0.01", "run.sample_every=10"],
    },
    "dense-sample-resume": {
        "t_final": 1.2, "resume": True, "farfield": False,
        "set": ["grid.nx=64", "grid.ny=384", "grid.ymax=23",
                "params.kappa=1", "run.dt_max=0.01", "run.sample_every=1"],
    },
}
EPSILON = 1e-3
FF_EPS = 1e-4

# Caller phase of a span, from the span that called it; used as a name
# infix for functions that run in more than one phase.
PHASES = {
    "lp.shell_weighted_norms": {"solver.step_imex": "theta",
                                "solver.simulate": "cl",
                                "lp.besov_pair_norm": "sample"},
    "lp.besov_pair_norm": {"solver.simulate": "sample"},
}

SUMMARY_FIELDS = ("theta_final", "radius_final")
FIT_FIELDS = ("norm_ub", "norm_gh")


class BenchError(RuntimeError):
    pass


# ---- inputs ------------------------------------------------------------------


def seed_class(seed):
    return seed % SEED_CLASSES


def invocations(name, k, unit_dir):
    """CLI argument lists of one unit of workload `name`, seed class k."""
    wl = WORKLOADS[name]
    scale = 1.0 + EPS_STEP * k
    settings = wl["set"] + [f"params.epsilon={EPSILON * scale!r}"]
    if wl["farfield"]:
        settings.append(f"scenario.ff_eps={FF_EPS * scale!r}")
    sets = [a for s in settings for a in ("--set", s)]
    t_final = wl["t_final"]
    if not wl["resume"]:
        out = unit_dir / "sim"
        return [(["simulate", "--out", str(out), *sets,
                  "--set", f"run.t_final={t_final!r}"], out)]
    sim, res = unit_dir / "sim", unit_dir / "res"
    run_sets = [a for s in settings if s.startswith("run.")
                for a in ("--set", s)]
    return [(["simulate", "--out", str(sim), *sets,
              "--set", f"run.t_final={t_final / 2!r}"], sim),
            (["resume", str(sim / "final.ckpt"), "--out", str(res),
              *run_sets, "--set", f"run.t_final={t_final!r}"], res)]


def child_env():
    env = dict(os.environ)
    nproc = str(len(os.sched_getaffinity(0)))
    env["MHDBL_THREADS"] = nproc
    env["OPENBLAS_NUM_THREADS"] = nproc
    env.pop("PYTHONPATH", None)
    return env


# ---- one invocation -----------------------------------------------------------


def run_invocation(argv, record_path, trace, env):
    """Spawn one CLI process; returns (record or None, spawn time, exit time,
    error or None).  Times are CLOCK_MONOTONIC, shared with the child."""
    ctl = json.dumps({"src": str(SRC), "record": str(record_path),
                      "run_id": str(record_path.relative_to(WORK)),
                      "trace": int(trace)})
    cmd = [sys.executable, str(HERE / "child.py"), ctl, "--", *argv]
    log_path = record_path.with_suffix(".log")
    with open(log_path, "w") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                cwd=str(ROOT), env=env)
        try:
            code = proc.wait(timeout=INVOCATION_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return None, t_spawn, time.monotonic(), "timed out"
        t_exit = time.monotonic()
    if code != 0:
        tail = log_path.read_text()[-400:].strip()
        return None, t_spawn, t_exit, f"exit code {code}: {tail}"
    try:
        with open(record_path) as f:
            record = json.load(f)
    except (OSError, ValueError) as e:
        return None, t_spawn, t_exit, f"no record: {e}"
    if not record["stamps"]:
        return None, t_spawn, t_exit, "no solver.step_imex entry recorded"
    return record, t_spawn, t_exit, None


# ---- output checks ---------------------------------------------------------------


def read_outputs(out_dir):
    """norms.csv columns and the checked summary fields of one invocation."""
    with open(out_dir / "norms.csv", newline="") as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:]
    norms = {c: [float(r[j]) for r in body] for j, c in enumerate(header)}
    with open(out_dir / "summary.json") as f:
        doc = json.load(f)
    summ = doc["summary"]
    fields = {k: summ[k] for k in SUMMARY_FIELDS}
    for key, val in sorted(summ["audit_min_slack"].items()):
        fields[f"audit_min_slack.{key}"] = val
    for col in FIT_FIELDS:
        # a window with fewer than 20 samples has no fit
        if doc["fits"].get(col) is not None:
            fields[f"fit.{col}"] = doc["fits"][col]["exponent"]
    return {"norms": norms, "summary": fields}


def _max_rel_dev(got, ref):
    scale = max((abs(r) for r in ref), default=0.0)
    if scale == 0.0:
        scale = 1.0
    return max((abs(g - r) / scale for g, r in zip(got, ref)), default=0.0)


def check_invocation(out_dir, ref, load_checkpoint):
    """Invariants for every seed, then, given a reference, the comparison
    with it.  Returns (list of failures, largest relative deviation from
    the reference, or None when nothing was compared)."""
    errors = []
    try:
        got = read_outputs(out_dir)
    except (OSError, ValueError, KeyError, IndexError) as e:
        return [f"unreadable output: {e!r}"], None
    norms, summ = got["norms"], got["summary"]
    if not norms.get("t"):
        errors.append("norms.csv has no rows")
    for col, vals in norms.items():
        if not all(math.isfinite(v) for v in vals):
            errors.append(f"non-finite value in norms.csv column {col}")
    for key, val in summ.items():
        if not math.isfinite(val):
            errors.append(f"summary field {key} is {val!r}")
    theta = norms.get("theta", [])
    if any(b < a for a, b in zip(theta, theta[1:])):
        errors.append("theta decreases")
    try:
        state, _, _ = load_checkpoint(str(out_dir / "final.ckpt"))
    except Exception as e:  # any failure to read back is a failed check
        errors.append(f"final checkpoint unreadable: {e!r}")
    else:
        for name, fld in (("u", state.u), ("b", state.b)):
            defect_fn = getattr(fld, "hermitian_defect", None)
            if defect_fn is None:
                continue
            scale = float(abs(fld.coeffs).max()) or 1.0
            if not defect_fn() <= HERMITIAN_RTOL * scale:
                errors.append(f"checkpoint field {name} is not Hermitian")
    if ref is None:
        return errors, None
    dev = 0.0
    if set(norms) != set(ref["norms"]):
        errors.append("norms.csv columns differ from the reference")
    for col, rvals in ref["norms"].items():
        vals = norms.get(col, [])
        if len(vals) != len(rvals):
            errors.append(f"norms.csv column {col} has {len(vals)} rows, "
                          f"reference {len(rvals)}")
            continue
        dev = max(dev, _max_rel_dev(vals, rvals))
    if set(summ) != set(ref["summary"]):
        errors.append("summary fields differ from the reference")
    for key, rval in ref["summary"].items():
        if key in summ:
            dev = max(dev, _max_rel_dev([summ[key]], [rval]))
    if not dev <= CHECK_RTOL:
        errors.append(f"outputs deviate from the reference by {dev:.3e} "
                      f"(relative to column scale; limit {CHECK_RTOL:g})")
    return errors, dev


# ---- metrics -------------------------------------------------------------------


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def step_intervals_ms(record):
    s = record["stamps"][WARMUP_STEPS:]
    return [(b - a) * 1e3 for a, b in zip(s, s[1:])]


def unit_steps(unit):
    """Step intervals of one unit, warm-up steps left out."""
    return [x for r in unit["records"] for x in step_intervals_ms(r)]


def step_figures(units):
    """(p50, p95, interval count): each unit's median and 95th percentile
    step interval, averaged over the units.  The host's speed drifts
    between units; a mean moves in proportion to the share of slow units,
    where a pooled median jumps from one speed to the other."""
    steps = [unit_steps(u) for u in units]
    if min(len(s) for s in steps) < 20:
        raise BenchError("fewer than 20 step intervals in a unit")
    return (statistics.mean(statistics.median(s) for s in steps),
            statistics.mean(percentile(s, 95) for s in steps),
            sum(len(s) for s in steps))


def layer_values(records):
    """Per-layer totals of one traced unit: calls, inclusive ms, self ms,
    caller-phase ms and computed counters per span name."""
    acc = defaultdict(float)
    for rec in records:
        spans, counts = rec["spans"], rec["counts"]
        child_s = [0.0] * len(spans)
        for _, t0, t1, parent in spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        for i, (name, t0, t1, parent) in enumerate(spans):
            ms = (t1 - t0) * 1e3
            acc[f"{name}.calls"] += 1
            acc[f"{name}.ms"] += ms
            acc[f"{name}.self_ms"] += ms - child_s[i] * 1e3
            if name in PHASES:
                caller = spans[parent][0] if parent >= 0 else None
                phase = PHASES[name].get(caller, "other")
                acc[f"{name}.{phase}.ms"] += ms
            for key, val in counts.get(str(i), {}).items():
                acc[f"{name}.{key}"] += val
        acc["cli.import.s"] += rec["import_s"]
    return acc


def src_loc():
    return sum(len(p.read_text().splitlines())
               for p in sorted(SRC.rglob("*.py")))


def run_record(workload):
    """Machine, library and input facts that the figures depend on."""
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    grid = dict(s.split("=") for s in WORKLOADS[workload]["set"]
                if s.startswith("grid."))
    env = child_env()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "MHDBL_THREADS": env["MHDBL_THREADS"],
        "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"],
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("version", "unknown"),
        "cpu": cpu,
        "caches": caches,
        "field_bytes": int(grid["grid.ny"]) * int(grid["grid.nx"]) * 16,
        "src_loc": src_loc(),
    }


# ---- runs ---------------------------------------------------------------------


def warm_up(env):
    """Compile bytecode and fill the page cache before anything is timed."""
    subprocess.run([sys.executable, "-c",
                    f"import sys; sys.path.insert(0, {str(SRC)!r}); "
                    "import mhdbl.cli"],
                   env=env, check=True, stdout=subprocess.DEVNULL)


def run_unit(workload, k, unit_dir, trace, env, refs, load_checkpoint):
    """One workload execution: its invocations in order, each checked.
    A unit whose invocations all ran is "complete" and gives timings,
    even when an output check failed."""
    unit_dir.mkdir(parents=True)
    plan = invocations(workload, k, unit_dir)
    result = {"records": [], "setup_s": 0.0, "run_s": 0.0, "errors": [],
              "failed": 0, "attempted": len(plan), "devs": []}
    for i, (argv, out_dir) in enumerate(plan):
        rec, t_spawn, t_exit, err = run_invocation(
            argv, unit_dir / f"inv{i}.json", trace, env)
        if rec is None:
            # the invocations after this one depend on its output
            result["failed"] += len(plan) - i
            result["errors"].append(f"invocation {i}: {err}")
            break
        result["records"].append(rec)
        result["setup_s"] += rec["stamps"][0] - t_spawn
        result["run_s"] += t_exit - t_spawn
        errors, dev = check_invocation(out_dir, refs[i], load_checkpoint)
        result["devs"].append(dev)
        if errors:
            result["failed"] += 1
            result["errors"].append(f"invocation {i}: " + "; ".join(errors))
    result["complete"] = len(result["records"]) == len(plan)
    return result


def benchmark(workload, seed, seconds, trace):
    k = seed_class(seed)
    try:
        with open(REFERENCE / f"{workload}.json") as f:
            refs = json.load(f)[str(k)]
    except (OSError, KeyError) as e:
        raise BenchError(f"no reference output for {workload}, seed class "
                         f"{k}: {e!r}")
    # only the latest run's outputs are kept
    shutil.rmtree(WORK, ignore_errors=True)
    run_dir = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    run_dir.mkdir(parents=True)
    env = child_env()
    warm_up(env)
    sys.path.insert(0, str(SRC))
    from mhdbl.solver import load_checkpoint

    units = []
    start = time.monotonic()
    while True:
        # in a traced run, even units are untraced and odd ones traced
        traced = trace and len(units) % 2 == 1
        u = run_unit(workload, k, run_dir / f"unit{len(units)}", traced,
                     env, refs, load_checkpoint)
        u["traced"] = traced
        units.append(u)
        elapsed = time.monotonic() - start
        if trace and len(units) < 2:
            continue
        # stop when one more unit of average length would overrun
        if elapsed * (len(units) + 1) / len(units) > seconds:
            break
    return units


def end_to_end(units):
    good = [u for u in units if u["complete"]]
    if not good:
        raise BenchError("no unit ran to the end; no figures")
    p50, p95, n_steps = step_figures(good)
    return {
        "setup_s": (statistics.median(u["setup_s"] for u in good), "s"),
        "step_ms_p50": (p50, "ms"),
        "step_ms_p95": (p95, "ms"),
        "run_s": (statistics.mean(u["run_s"] for u in good), "s"),
        "peak_rss_mb": (statistics.median(
            max(r["maxrss_kb"] for r in u["records"]) / 1024.0
            for u in good), "MB"),
    }, n_steps


def per_layer(units, names):
    good = [u for u in units if u["complete"]]
    traced = [u for u in good if u["traced"]]
    plain = [u for u in good if not u["traced"]]
    if not traced or not plain:
        raise BenchError("a traced run needs a traced and an untraced unit")
    values = [layer_values(u["records"]) for u in traced]
    special = {
        "trace.overhead.step_ms_p50":
            step_figures(traced)[0] - step_figures(plain)[0],
        "check.norms_max_rel_dev": max(d for u in units for d in u["devs"]),
        "repo.src_loc": src_loc(),
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        else:
            out[name] = statistics.median(v.get(name, 0.0) for v in values)
    absent = sorted({a for u in traced for r in u["records"]
                     for a in r["absent"]})
    return out, absent


def make_reference():
    """Record the outputs of every workload and seed class."""
    env = child_env()
    warm_up(env)
    sys.path.insert(0, str(SRC))
    from mhdbl.solver import load_checkpoint
    REFERENCE.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        refs = {}
        for k in range(SEED_CLASSES):
            unit_dir = WORK / "reference" / f"{workload}-k{k}"
            shutil.rmtree(unit_dir, ignore_errors=True)
            unit_dir.mkdir(parents=True)
            refs[str(k)] = []
            for i, (argv, out_dir) in enumerate(
                    invocations(workload, k, unit_dir)):
                _, _, _, err = run_invocation(
                    argv, unit_dir / f"inv{i}.json", False, env)
                if err is not None:
                    raise BenchError(f"{workload} k={k}: {err}")
                errors, _ = check_invocation(out_dir, None, load_checkpoint)
                if errors:
                    raise BenchError(f"{workload} k={k}: {errors}")
                refs[str(k)].append(read_outputs(out_dir))
            print(f"reference {workload} k={k}", flush=True)
        with open(REFERENCE / f"{workload}.json", "w") as f:
            json.dump(refs, f, separators=(",", ":"), sort_keys=True)
            f.write("\n")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=42.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--make-reference", action="store_true")
    args = p.parse_args(argv)

    if not (SRC / "mhdbl" / "cli.py").is_file():
        print(f"error: no mhdbl sources under {SRC}", file=sys.stderr)
        return 2
    if args.make_reference:
        make_reference()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)

    units = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    for u in units:
        for err in u["errors"]:
            print(f"FAILED: {err}", file=sys.stderr)
    record = run_record(args.workload)
    record.update(workload=args.workload, seed=args.seed,
                  seed_class=seed_class(args.seed), units=len(units),
                  trace=args.trace)

    if args.trace:
        units_of = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values, absent = per_layer(units, list(units_of))
        metrics = {n: {"value": v, "unit": units_of[n]}
                   for n, v in values.items()}
        record["absent"] = absent
        for name in absent:
            print(f"absent: {name}")
    else:
        figures, n_steps = end_to_end(units)
        metrics = {n: {"value": v, "unit": unit}
                   for n, (v, unit) in figures.items()}
        record["step_intervals"] = n_steps
    print("record: " + json.dumps(record, sort_keys=True))
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']!r} {m['unit']}")
    print(f"{args.workload} fail_frac {failed / attempted!r} "
          f"({failed}/{attempted} invocations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(1)
