"""One CLI invocation under the benchmark's instrumentation.

Usage: python3 perfbench/child.py CONTROL_JSON -- CLI_ARG...

CONTROL_JSON holds "src" (the checkout's src directory), "record" (where
to write this invocation's record), "run_id" (shared by all its spans)
and "trace" (0 or 1).  The process
imports mhdbl from "src", times the import, and runs mhdbl.cli.main on
the CLI arguments.

Untraced, the only instrumentation is one timestamp at each entry of
solver.step_imex.  Traced, the public functions listed in WRAPPED are
replaced, in the namespace of every mhdbl module that binds them, by a
wrapper that records a span (name, start, end, parent index) and the
computed work counters of COUNTERS.  Spans stay in memory and go to the
record when main returns.  The exit code is mhdbl's.
"""

import json
import os
import resource
import sys
import time

# (module that defines the name, attribute, span name).  Span names are
# "<layer>.<function>"; both integrators share one span name.
WRAPPED = (
    ("grid", "x_transform", "grid.x_transform"),
    ("grid", "ddy", "grid.ddy"),
    ("grid", "d2dy", "grid.d2dy"),
    ("grid", "integrate_y_from0", "grid.integrate_y"),
    ("grid", "integrate_y_tail", "grid.integrate_y"),
    ("lp", "shell_weighted_norms", "lp.shell_weighted_norms"),
    ("lp", "besov_pair_norm", "lp.besov_pair_norm"),
    ("lp", "besov_h_shell_norms", "lp.besov_h_shell_norms"),
    ("scenario", "source_terms", "scenario.source_terms"),
    ("scenario", "project_zero_flux", "scenario.project_zero_flux"),
    ("solver", "step_imex", "solver.step_imex"),
    ("solver", "solve_banded", "solver.solve_banded"),
    ("solver", "recover_vh", "solver.recover_vh"),
    ("solver", "reconstruct_phipsi", "solver.reconstruct_phipsi"),
    ("solver", "compute_GH", "solver.compute_GH"),
    ("solver", "simulate", "solver.simulate"),
    ("solver", "heat_energy_slack", "solver.heat_energy_slack"),
    ("solver", "tail_guard_check", "solver.tail_guard_check"),
    ("verify", "theta_report", "verify.theta_report"),
    ("verify", "fit_loglog", "verify.fit_loglog"),
    ("cli", "build_run", "cli.build_run"),
    ("cli", "write_norms_csv", "cli.write_norms_csv"),
    ("cli", "save_checkpoint", "cli.save_checkpoint"),
    ("cli", "load_checkpoint", "cli.load_checkpoint"),
)

MODULES = ("grid", "lp", "scenario", "solver", "verify", "cli")


def _arg(args, kw, pos, name):
    return kw[name] if name in kw else args[pos]


def _count_x_transform(args, kw, out):
    values = _arg(args, kw, 1, "values")
    physical = out if _arg(args, kw, 2, "direction") == "inverse" else values
    return {"rows_nx": int(physical.size),
            "bytes_computed": int(values.nbytes) + int(out.nbytes)}


def _count_solve_banded(args, kw, out):
    b = _arg(args, kw, 2, "b")
    return {"cols": int(b.shape[1]) if b.ndim == 2 else 1}


def _count_shell_norms(args, kw, out):
    field = _arg(args, kw, 1, "field")
    return {"rows_shells": int(field.coeffs.shape[0]) * int(out.shape[0])}


def _count_file(args, kw, out):
    return {"bytes": os.path.getsize(_arg(args, kw, 0, "path"))}


# Computed work counters: functions of the call's arguments and result,
# so they repeat exactly from run to run.
COUNTERS = {
    "grid.x_transform": _count_x_transform,
    "solver.solve_banded": _count_solve_banded,
    "lp.shell_weighted_norms": _count_shell_norms,
    "cli.write_norms_csv": _count_file,
    "cli.save_checkpoint": _count_file,
    "cli.load_checkpoint": _count_file,
}


class Tracer:
    """In-memory span log with per-span computed counters."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index]
        self.counts = {}     # span index -> {counter: value}
        self.stack = []
        self.broken = set()  # span names whose counters could not be computed

    def wrap(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        count = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kw):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kw)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            if count is not None:
                try:
                    counts[idx] = count(args, kw, out)
                except (AttributeError, IndexError, KeyError, TypeError,
                        OSError):
                    # the call's signature or result changed shape
                    self.broken.add(f"{name} counters")
            return out

        return traced


def _rebind(mods, defmod, attr, make_wrapper):
    """Replace `attr` by a wrapper in every module bound to the same
    object as in its defining module; False if the name is gone."""
    orig = getattr(mods[defmod], attr, None)
    if orig is None:
        return False
    wrapper = make_wrapper(orig)
    for mod in mods.values():
        if getattr(mod, attr, None) is orig:
            setattr(mod, attr, wrapper)
    return True


def main():
    ctl = json.loads(sys.argv[1])
    cli_argv = sys.argv[3:] if sys.argv[2:3] == ["--"] else sys.argv[2:]
    src = os.path.realpath(ctl["src"])
    sys.path.insert(0, src)
    t0 = time.monotonic()
    import mhdbl.cli
    import_s = time.monotonic() - t0
    if not os.path.realpath(mhdbl.cli.__file__).startswith(src + os.sep):
        print(f"mhdbl imported from {mhdbl.cli.__file__}, not {src}",
              file=sys.stderr)
        return 97
    mods = {m: sys.modules[f"mhdbl.{m}"] for m in MODULES}

    tracer = Tracer() if ctl["trace"] else None
    absent = set()
    if tracer is not None:
        for defmod, attr, name in WRAPPED:
            if not _rebind(mods, defmod, attr,
                           lambda fn, name=name: tracer.wrap(name, fn)):
                absent.add(name)

    stamps = []
    clock = time.monotonic

    def stamp(fn):
        def stamped(*args, **kw):
            stamps.append(clock())
            return fn(*args, **kw)
        return stamped

    if not _rebind(mods, "solver", "step_imex", stamp):
        absent.add("solver.step_imex")

    code = mhdbl.cli.main(cli_argv)
    record = {
        "run_id": ctl["run_id"],
        "code": code,
        "import_s": import_s,
        "stamps": stamps,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        absent |= tracer.broken
        record["spans"] = tracer.spans
        record["counts"] = {str(k): v for k, v in tracer.counts.items()}
    record["absent"] = sorted(absent)
    with open(ctl["record"], "w") as f:
        json.dump(record, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
