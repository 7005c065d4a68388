"""The benchmark tracer's targets still name attributes of the package.

``perfbench/tracer.py`` rebinds each ``TARGETS`` entry by reading it from
its owner's ``__dict__``; a renamed or deleted function would make the
traced benchmark fail.  This test reads the same table without
installing the tracer.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _targets():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return [(modname, path) for _name, modname, path, _mode in tracer.TARGETS]


TARGETS = _targets()


@pytest.mark.parametrize("modname,path", TARGETS, ids=[f"{m}.{p}" for m, p in TARGETS])
def test_tracer_target_resolves(modname, path):
    owner = importlib.import_module(modname)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    assert attr in owner.__dict__, f"{modname}.{path} is gone"
