"""The benchmark's workloads call the library as it is: one scenario each.

For every workload of ``bench/workloads.py``, the first scenario of the
seed-1 round runs through the workload's timed operation and passes the
workload's own check. A signature change that breaks the benchmark's
calls fails here first. Inputs and reports go under ``tmp_path``.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return workloads


@pytest.mark.parametrize("name", ["AgencyFixedPoint", "RevisableGrid", "FiniteSearch"])
def test_first_scenario_passes_its_check(workloads, name, tmp_path):
    workload = getattr(workloads, name)(ROOT, tmp_path)
    scenario = workload.make_round(1)[0]
    assert workload.check(scenario, workload.execute(scenario)) == []
