"""The benchmark's ops against the library: batch 0, seed 0 of every
workload in perfbench.workloads must run and pass its own checks, so a
change to a recipe's signature or its meta keys shows up here and not
first as failed benchmark ops."""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from agmds.curves import Curve  # noqa: E402
from agmds.field import FieldSpec  # noqa: E402
from perfbench.tracer import CURVE_METHODS, FIELD_COUNTED, FIELD_TABLES  # noqa: E402
from perfbench.workloads import WORKLOADS, build_tables  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_batch_passes_its_checks(name, tmp_path):
    workload = WORKLOADS[name]
    build_tables(workload.fields)
    steps = workload.batch(0, 0, str(tmp_path))
    outputs = [step.run() for step in steps]
    failures = [
        (step.label, reason)
        for step, out in zip(steps, outputs)
        if step.is_op and (reason := step.check(out)) is not None
    ]
    assert failures == []
    assert any(step.is_op for step in steps)


def test_tracer_names_are_library_attributes():
    # the tracer patches these by name; a rename must fail here, not in a traced run
    for owner, names in ((Curve, CURVE_METHODS), (FieldSpec, FIELD_COUNTED + FIELD_TABLES)):
        assert [name for name in names if not callable(getattr(owner, name, None))] == []
