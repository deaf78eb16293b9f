"""The benchmark checks every invocation's output against its recorded
reference and reads back its final checkpoint; a change to the outputs or
to the checkpoint format that breaks either makes every benchmark
invocation fail.  This runs workloads' invocations in-process and applies
the benchmark's own check to each: dense-sample-resume for the checkpoint
round trip, accept-k1 for a tall grid whose upper rows are exactly zero
(the row window), farfield-k32 for the far field.  Each runs at both ends
of the benchmark's seed classes, 0 and 7, whose epsilon is 1.14 times
class 0's, so a change that breaks only the largest data fails here.
"""

import json
from pathlib import Path

import pytest

from mhdbl.cli import main
from mhdbl.solver import load_checkpoint

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"

# the first and the last of perfbench's SEED_CLASSES
CLASSES = (0, 7)


def bench_module():
    # executed from source so no bytecode is written under perfbench/
    ns = {"__name__": "perfbench_run", "__file__": str(RUN)}
    exec(compile(RUN.read_text(), str(RUN), "exec"), ns)
    return ns


def check_against_reference(workload, out_dir, k=0):
    """Run seed class k of `workload` and check each invocation; returns
    the CLI command of each."""
    bench = bench_module()
    with open(bench["REFERENCE"] / f"{workload}.json") as f:
        refs = json.load(f)[str(k)]
    plan = bench["invocations"](workload, k, out_dir)
    for (argv, out), ref in zip(plan, refs, strict=True):
        assert main(argv) == 0, (k, argv)
        errors, dev = bench["check_invocation"](out, ref, load_checkpoint)
        assert errors == [], (k, argv[0])
        assert dev <= bench["CHECK_RTOL"], (k, argv[0], dev)
    return [argv[0] for argv, _ in plan]


def test_dense_sample_resume_passes_the_reference_check(tmp_path):
    for k in CLASSES:
        assert check_against_reference("dense-sample-resume",
                                       tmp_path / str(k), k) \
            == ["simulate", "resume"]


@pytest.mark.parametrize("workload", ["accept-k1", "farfield-k32"])
def test_tall_and_far_field_runs_pass_the_reference_check(workload,
                                                         tmp_path):
    for k in CLASSES:
        assert check_against_reference(workload, tmp_path / str(k), k) \
            == ["simulate"]
