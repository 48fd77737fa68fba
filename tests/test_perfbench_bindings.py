"""The benchmark's traced run wraps maddm's layers where callers look them up.

``perfbench/spans.py`` patches ``(owner, attribute)`` pairs such as
``harness.select_advisors`` and restores them from ``owner.__dict__``.
A refactor that moves one of those names (renames it, stops importing it
into the calling module, or moves a method to a base class) breaks the
traced benchmark run; this check makes it fail here first.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_layer_is_bound_on_its_owner():
    spans = load_spans()
    patches = spans.layer_patches(spans.SpanRecorder())
    assert patches
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in patches
        if attr not in owner.__dict__
    ]
    assert missing == []
