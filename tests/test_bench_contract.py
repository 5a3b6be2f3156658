"""Every function the benchmark's tracer wraps must exist: a traced name
that is renamed or deleted silently drops its per-layer metrics."""

import importlib.util
from pathlib import Path

import pytest

import atomlam  # noqa: F401  (loads every atomlam.* module but the CLI)
import atomlam.cli  # noqa: F401  (the benchmark's workloads import it)

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("prefix, module, attr", tracing.LAYERS,
                         ids=[layer[0] for layer in tracing.LAYERS])
def test_traced_function_exists(prefix, module, attr):
    assert tracing._resolve(module, attr) is not None, prefix


def test_selftest_names_exist():
    # perfbench/selftest.py checks the tracer rebinds this import
    assert atomlam.diagram.search_beta_eta is atomlam.analysis.search_beta_eta
