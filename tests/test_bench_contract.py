"""The benchmark checks every invocation's output against its recorded
reference and reads back its final checkpoint; a change to the outputs or
to the checkpoint format that breaks either makes every benchmark
invocation fail.  This runs one workload's invocations in-process and
applies the benchmark's own check to each.
"""

import json
from pathlib import Path

from mhdbl.cli import main
from mhdbl.solver import load_checkpoint

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def bench_module():
    # executed from source so no bytecode is written under perfbench/
    ns = {"__name__": "perfbench_run", "__file__": str(RUN)}
    exec(compile(RUN.read_text(), str(RUN), "exec"), ns)
    return ns


def test_dense_sample_resume_passes_the_reference_check(tmp_path):
    bench = bench_module()
    workload, k = "dense-sample-resume", 0
    with open(bench["REFERENCE"] / f"{workload}.json") as f:
        refs = json.load(f)[str(k)]
    plan = bench["invocations"](workload, k, tmp_path)
    assert [argv[0] for argv, _ in plan] == ["simulate", "resume"]
    for (argv, out_dir), ref in zip(plan, refs, strict=True):
        assert main(argv) == 0, argv
        errors, dev = bench["check_invocation"](out_dir, ref,
                                                load_checkpoint)
        assert errors == [], argv[0]
        assert dev <= bench["CHECK_RTOL"]
