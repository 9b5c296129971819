"""The benchmark's ops against the library: batch 0, seed 0 of every
workload in perfbench.workloads must run and pass its own checks, so a
change to a recipe's signature or its meta keys shows up here and not
first as failed benchmark ops."""

import importlib
import inspect
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from agmds.curves import Curve  # noqa: E402
from agmds.field import FieldSpec  # noqa: E402
from perfbench.tracer import (  # noqa: E402
    ALIASES,
    CURVE_METHODS,
    FIELD_COUNTED,
    FIELD_TABLES,
    LAYER_ONLY,
    LAYERS,
)
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


def _traced_names():
    """The names the tracer records calls under: each public function a
    layer module defines (renamed by ALIASES), and the patched Curve and
    FieldSpec methods."""
    names = {f"curves.{attr}" for attr in CURVE_METHODS}
    names |= {f"field.{attr}" for attr in FIELD_COUNTED}
    for layer in LAYERS:
        mod = importlib.import_module(f"agmds.{layer}")
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and attr in LAYER_ONLY.get(layer, (attr,))):
                names.add(ALIASES.get(f"{layer}.{attr}", f"{layer}.{attr}"))
    return names


def test_per_layer_metrics_name_traced_functions():
    # a traced run starts every per-layer metric at 0, so one whose function
    # was renamed or deleted would read 0 instead of failing
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        per_layer = [metric["name"] for metric in json.load(fh)["per_layer"]]
    suffixes = (".calls", ".total_s", ".self_s", ".true_ratio")
    functions = [name.rsplit(".", 1)[0] for name in per_layer if name.endswith(suffixes)]
    assert functions
    assert sorted(set(functions) - _traced_names()) == []
