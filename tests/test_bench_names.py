"""Every span the benchmark's tracer records names a callable in ``amzv``.

``bench/tracing.py`` wraps each name in its ``SPAN_METRIC`` table by
attribute lookup, ``module.function`` or ``module.Class.method`` with the
method defined on the class itself, so a renamed or deleted function would
break a traced run (``bench/run.py --trace 1``) and no other test.  The
tracer is loaded by path as a plain module; nothing under ``bench/`` runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _span_names():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sorted(module.SPAN_METRIC)


@pytest.mark.parametrize("name", _span_names())
def test_span_metric_name_resolves(name):
    modname, *rest = name.split(".")
    owner = importlib.import_module(f"amzv.{modname}")
    if len(rest) == 2:
        owner = getattr(owner, rest[0])
        assert rest[1] in vars(owner), f"{name} is not defined on its class"
    assert callable(getattr(owner, rest[-1], None)), f"{name} does not resolve"
