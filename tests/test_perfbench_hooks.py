"""The benchmark tracer replaces functions by name; each name must still resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from regime_bench import imputers, synth

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


PATCHES = _load_tracer().PATCHES


@pytest.mark.parametrize("span", sorted(PATCHES))
def test_patched_name_is_callable_on_its_module(span):
    module, _ = PATCHES[span]
    attr = span.rsplit(".", 1)[1]
    assert callable(getattr(importlib.import_module(f"regime_bench.{module}"), attr, None))


def test_synth_reaches_export_csv_through_its_module():
    assert callable(getattr(synth, "export_csv", None))


def test_builtin_imputers_are_callable():
    assert imputers.BUILTIN_IMPUTERS
    assert all(callable(fn) for fn in imputers.BUILTIN_IMPUTERS.values())
