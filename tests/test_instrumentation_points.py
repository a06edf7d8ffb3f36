"""The repository benchmark's instrumentation points still exist.

``perfbench/layers.py`` names, in ``POINTS``, every program attribute
the traced benchmark run (``perfbench/run.py --trace 1``) wraps.  A
rename in the program would only surface as a crash of that run; this
test makes it fail the test suite instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _points(monkeypatch):
    # layers.py imports its sibling ``spans`` module by bare name; that
    # import is dropped from ``sys.modules`` again afterwards.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    had_spans = "spans" in sys.modules
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", PERFBENCH / "layers.py"
    )
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    if not had_spans:
        del sys.modules["spans"]
    return layers.POINTS


def test_every_point_resolves_to_a_callable(monkeypatch):
    points = _points(monkeypatch)
    assert points
    missing = []
    for module, attr, _span, _hook in points:
        owner = importlib.import_module(module)
        try:
            for part in attr.split("."):
                owner = getattr(owner, part)
        except AttributeError:
            missing.append(f"{module}.{attr}")
            continue
        assert callable(owner), f"{module}.{attr} is not callable"
    assert missing == []
