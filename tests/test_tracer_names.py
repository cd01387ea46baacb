"""Every function the benchmark's per-layer tracer wraps still exists.

The tracer lists a traced name that the package no longer has as absent
and carries on, so a deleted or renamed helper would only show up as
per-layer metrics that read 0. This reads the tracer's ``TRACED`` table
and resolves each name in ``seqcal``.
"""

import importlib
import importlib.util
import sys
from functools import reduce
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("seqcal_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer  # its dataclasses look their module up
    try:
        spec.loader.exec_module(tracer)
    finally:
        del sys.modules[spec.name]
    return [(module, qualname) for module, qualname, _ in tracer.TRACED]


@pytest.mark.parametrize("module, qualname", traced_names())
def test_traced_name_resolves(module, qualname):
    target = reduce(getattr, qualname.split("."), importlib.import_module(f"seqcal.{module}"))
    assert callable(target)
