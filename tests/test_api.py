"""The public surface: what bilinid exports, what it no longer exports, and
the bindings the traced benchmark wraps."""

import ast
import importlib
from pathlib import Path

import pytest

import bilinid

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

# (home module, name) of the public names that were removed; the home is
# imported by name, since the attribute bilinid.simulate is the function
REMOVED = [("bilinid.realization", "word_at"),
           ("bilinid.realization", "reach_obs"),
           ("bilinid.realization", "in_B"),
           ("bilinid.realization", "extended_reach"),
           ("bilinid.realization", "extended_obs"),
           ("bilinid.counterex", "psi_inverse"),
           ("bilinid.counterex", "phi_inverse"),
           ("bilinid.simulate", "SampledSystem"),
           ("bilinid.errors", "ZeroS")]


def _traced_bindings():
    """(home module, function) of every entry of LAYERS in
    bench/tracing.py, read from its source without importing it."""
    for node in ast.parse(TRACING.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["LAYERS"]):
            return [(home, attr)
                    for _, home, attr in ast.literal_eval(node.value)]
    raise AssertionError("bench/tracing.py defines no LAYERS")


def test_every_exported_name_resolves_once():
    assert len(bilinid.__all__) == len(set(bilinid.__all__))
    for name in bilinid.__all__:
        assert hasattr(bilinid, name), name


@pytest.mark.parametrize("home, attr", REMOVED)
def test_removed_names_are_gone(home, attr):
    assert not hasattr(importlib.import_module(home), attr)
    assert not hasattr(bilinid, attr)
    assert attr not in bilinid.__all__


def test_traced_bindings_resolve():
    bindings = _traced_bindings()
    assert bindings
    for home, attr in bindings:
        assert callable(getattr(importlib.import_module(home), attr)), \
            f"{home}.{attr}"
