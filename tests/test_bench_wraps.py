"""The benchmark's traced run wraps named layers of the package.

``perfbench/tracing.py`` replaces module attributes and class methods (the
acceptance engines, the row estimators' ``draw_w_rows``, the prox
iteration, ...) with counting wrappers.  Building a ``Tracer`` looks every
wrap point up without applying any, and raises KeyError or AttributeError
for one the package no longer has, so a refactor that renames a layer
fails here and not only in the traced benchmark.
"""

import importlib.util
from pathlib import Path

from forsample import fors, rgo

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_wrap_point():
    before = (fors.fors_accept_rows, rgo._FirstOrderRows.draw_w_rows,
              rgo._ZerothOrderRows.draw_w_rows)
    tracer = _tracing().Tracer()
    wrapped = {(getattr(owner, "__name__", None), attr)
               for owner, attr, _, _ in tracer._patches}
    for name in ("fors_accept_rows", "fors_sample_many", "fors_sample",
                 "approx_prox_rows", "sample_tilt_many"):
        assert any(attr == name for _, attr in wrapped), name
    assert ("_FirstOrderRows", "draw_w_rows") in wrapped
    assert ("_ZerothOrderRows", "draw_w_rows") in wrapped
    # building the tracer patches nothing
    assert (fors.fors_accept_rows, rgo._FirstOrderRows.draw_w_rows,
            rgo._ZerothOrderRows.draw_w_rows) == before
