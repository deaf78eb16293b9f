"""Smoke tests of the scripts in demos/: each runs to the end against the
current API and prints the figures it promises.
"""

import pathlib
import re
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


def run_demo(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    return capsys.readouterr().out


def figure(pattern, out):
    return float(re.search(pattern, out).group(1))


def test_conjugate_runs(capsys):
    out = run_demo("conjugate_runs", capsys)
    assert figure(r"at t=0\.5: (\S+)", out) < 1e-10


def test_heat_check(capsys):
    out = run_demo("heat_check", capsys)
    assert figure(r"at t=1 \(dt=1e-3\): (\S+)", out) < 1e-4
    assert 3.5 < figure(r"ratio (\S+)", out) < 4.5


def test_inequality_gallery(capsys):
    out = run_demo("inequality_gallery", capsys)
    assert "pass: True" in out
    assert "all ratios finite: True" in out


@pytest.mark.slow
def test_decay_run(capsys):
    out = run_demo("decay_run", capsys)
    assert "initial data ok: True" in out
    assert "finished: reason=completed  t=20" in out
