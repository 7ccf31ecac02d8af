"""The benchmark's contract with the library: perfbench/layers.py looks up
every traced function by module and name, and rebuilds maslov_qs
quasi-states with dataclasses.replace on their evaluate fields;
perfbench/workloads.py builds its inputs from library functions it imports
by name."""

import dataclasses
import importlib
import os
import sys

import numpy as np

from spqs.quasistates import maslov_qs
from spqs.symplectic import SpElement, SymplecticSpace

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
)

import layers  # noqa: E402
import workloads  # noqa: E402


def test_every_traced_target_resolves():
    for name, module, attr, _ in layers.TARGETS:
        fn = getattr(importlib.import_module(module), attr, None)
        assert callable(fn), f"{name}: {module}.{attr} is missing"


def test_maslov_qs_fields_the_tracer_replaces():
    qs = maslov_qs()
    assert dataclasses.is_dataclass(qs)
    fields = {f.name for f in dataclasses.fields(qs)}
    assert {"evaluate", "evaluate_with_error"} <= fields
    traced = dataclasses.replace(
        qs, evaluate=qs.evaluate, evaluate_with_error=qs.evaluate_with_error
    )
    rot = SpElement(SymplecticSpace(1), np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert traced.evaluate_with_error(rot) == qs.evaluate_with_error(rot)


def test_workload_inputs_build(tmp_path):
    wl = workloads.LimitBatch()
    wl.setup(0, str(tmp_path))
    assert [len(els) for _, _, els, _ in wl.batches] == [wl.BATCH] * len(wl.POPULATIONS)
