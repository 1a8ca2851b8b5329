"""The benchmark tracer wraps named functions by where their callers
look them up; each of those names must still resolve in the package, so
that moving a function fails here and not only in a traced run."""

import importlib
import runpy
from pathlib import Path

import pytest

# run_path compiles the file without writing bytecode next to it.
TRACER = runpy.run_path(str(Path(__file__).resolve().parent.parent / "bench" / "tracer.py"))
TABLES = ("RUN_SPANS", "RUN_COUNTED", "GENERATE_SPANS", "PROBE_SPANS")
ENTRIES = sorted({(owner, attr) for table in TABLES for owner, attr, _ in TRACER[table]})


@pytest.mark.parametrize("owner_path, attr", ENTRIES)
def test_traced_boundary_resolves(owner_path, attr):
    module_name, _, class_name = owner_path.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    # Tracer.install reads the owner's own namespace, not an inherited name.
    assert callable(owner.__dict__.get(attr))
