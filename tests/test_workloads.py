"""One pass of each in-process benchmark workload, built by the workload's
own setup in perfbench/workloads.py: every operation must match its exact
oracle or the reference recorded under perfbench/refs/, so a change that
alters a benchmarked output fails here and not only in a benchmark run."""
import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" \
    / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module        # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name,ops", [("lys-survey", 120),
                                      ("holomorphy-sweep", 338)])
def test_one_pass_of_each_in_process_workload(name, ops):
    workloads = load_workloads()
    workload = workloads.WORKLOADS[name]
    assert workload.in_process
    operations = workload.setup(0, workloads.Counts())
    assert len(operations) == ops
    failed = [op.label for op in operations if op.run() is not True]
    assert not failed, failed
