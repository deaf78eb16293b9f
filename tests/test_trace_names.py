"""The benchmark's traced run wraps functions by (module, attribute).

A name that mhdbl no longer binds is reported there as `absent` and its
per-layer metrics read 0, which is easy to miss; this pins every wrapped
name to an attribute that exists, and the calling spans by which the
benchmark splits the shell-norm time into phases.
"""

import importlib
import math
from collections import Counter
from pathlib import Path

import pytest

from mhdbl.grid import GridSpec
from mhdbl.scenario import Params, initial_data_standard

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def bench_namespace(script):
    # executed from source so no bytecode is written under perfbench/
    path = PERFBENCH / script
    ns = {"__name__": f"perfbench_{path.stem}", "__file__": str(path)}
    exec(compile(path.read_text(), str(path), "exec"), ns)
    return ns


def wrapped_names():
    return [(mod, attr)
            for mod, attr, _ in bench_namespace("child.py")["WRAPPED"]]


@pytest.mark.parametrize("module, attr", wrapped_names())
def test_wrapped_name_resolves(module, attr):
    mod = importlib.import_module(f"mhdbl.{module}")
    assert callable(getattr(mod, attr, None)), f"mhdbl.{module}.{attr}"


def test_shell_norm_spans_have_their_phase_parents(monkeypatch):
    """The benchmark names the phase of an lp.shell_weighted_norms span by
    its parent span: solver.step_imex is theta, solver.simulate the CL
    integrals and lp.besov_pair_norm the sample.  A traced kappa = 1 run
    has 2 such spans per step under each of the first two and 8 per
    sample under the third."""
    child = bench_namespace("child.py")
    tracer = child["Tracer"]()
    mods = {m: importlib.import_module(f"mhdbl.{m}")
            for m in child["MODULES"]}
    # the benchmark's rebinding, undone after the test
    for defmod, attr, name in child["WRAPPED"]:
        orig = getattr(mods[defmod], attr)
        wrapper = tracer.wrap(name, orig)
        for mod in mods.values():
            if getattr(mod, attr, None) is orig:
                monkeypatch.setattr(mod, attr, wrapper)
    solver = mods["solver"]
    g = GridSpec(2.0 * math.pi, 16, 16.0, 128)
    p = Params(kappa=1.0, epsilon=1e-3)
    u0, b0, _ = initial_data_standard(g, p)
    res = solver.simulate(solver.make_state(g, p, u0, b0), t_final=0.05,
                          dt_max=1e-2, sample_every=2)
    steps, samples = res.state.step_index, len(res.series.t)
    assert (steps, samples) == (5, 4)
    spans = tracer.spans
    parents = Counter(spans[parent][0] for name, _, _, parent in spans
                      if name == "lp.shell_weighted_norms")
    assert parents == {"solver.step_imex": 2 * steps,
                       "solver.simulate": 2 * steps,
                       "lp.besov_pair_norm": 8 * samples}
    phases = bench_namespace("run.py")["PHASES"]["lp.shell_weighted_norms"]
    assert set(phases) == set(parents)
