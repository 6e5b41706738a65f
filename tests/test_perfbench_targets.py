"""The traced benchmark patches program names by path: they must exist.

``perfbench/spans.py`` wraps each ``SPANS`` target in a timing span and
the ``COUNTED`` target in a call counter.  A rename or deletion in
``gmapkit`` would otherwise only surface as a failed traced run.
"""

import importlib
import runpy
from pathlib import Path

import pytest

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# run_path compiles from source and writes no bytecode next to the file
_spans = runpy.run_path(str(SPANS_PY))
TARGETS = [(module, path) for module, path, _, _ in _spans["SPANS"]] + [_spans["COUNTED"]]


@pytest.mark.parametrize("module,path", TARGETS, ids=lambda t: t)
def test_span_target_resolves(module, path):
    owner_name, _, attr = path.rpartition(".")
    owner = importlib.import_module(module)
    if owner_name:
        owner = getattr(owner, owner_name)
        # spans.py patches the class attribute itself, not an inherited one
        assert attr in vars(owner)
    assert callable(getattr(owner, attr))
