"""Each benchmark workload, run at a tiny shape under bench/tracer.py's
`Tracer`, calls every function bench/spec.py expects to see called on it.
A change that drops one of those calls fails here, not only in a traced
benchmark run (`bench/run.py --trace 1`)."""

import importlib.util
from pathlib import Path

import pytest

from sarqc import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
TINY_LAYER = {"d_out": 8, "d_in": 64, "n": 32}  # the workload's layer count, at this shape
TINY_TRIALS = "3"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPEC = load_bench_module("spec")
TRACER = load_bench_module("tracer")
INPUTS = load_bench_module("inputs")


@pytest.mark.parametrize("workload", sorted(SPEC.WORKLOADS))
def test_workload_calls_every_expected_function(tmp_path, workload):
    layers = SPEC.WORKLOADS[workload]["layers"]
    manifest = None
    if layers is not None:
        shape = (layers["count"], TINY_LAYER["d_out"], TINY_LAYER["d_in"], TINY_LAYER["n"])
        manifest = INPUTS.write_manifest(tmp_path / "inputs", 7, *shape, "layer")
    with TRACER.Tracer() as tracer:
        for i, cmd in enumerate(SPEC.WORKLOADS[workload]["commands"]):
            out = tmp_path / f"out{i}"
            if cmd[0] == "quantize":
                argv = [*cmd, "--manifest", str(manifest), "--out", str(out)]
            else:
                argv = [*cmd[: cmd.index("--trials") + 1], TINY_TRIALS, "--seed", "7", "--out", f"{out}.json"]
            assert tracer.root(cli.main, argv) == 0
    counts = tracer.call_counts()
    assert [name for name in SPEC.EXPECTED_CALLS[workload] if not counts.get(name)] == []
