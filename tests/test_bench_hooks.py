"""The names that the benchmark's per-layer tracer (bench/tracing.py) wraps.

``bench/run.py --trace 1`` replaces these functions and methods by name, so
a refactor that renames or removes one breaks the traced run.  This module
pins them.
"""

import importlib
import inspect

import pytest

from edrkit import IntegerRing, RingMatrix, diagonal_reduce

WRAPPED_FUNCTIONS = {
    "edrkit.cli": ["dispatch", "read_matrix", "_completion_payload", "_pretty_matrix",
                   "render", "determinant"],
    "edrkit.completion": ["determinant", "complete_row"],
    "edrkit.registry": ["make_ring", "format_element"],
    "edrkit.matrices": ["diagonal_reduce", "reduce_2x2", "_clear_pivot", "_enforce_chain",
                        "_normalize_diagonal", "_reduce_modular", "_reduce_product",
                        "verify_reduction"],
    "edrkit.stability": ["check_property", "select_stable", "lift_unit"],
    "edrkit.exhaustive": ["structure_for", "stable_range_1", "is_clean",
                          "all_nonzero_adequate", "locally_stable", "neat_range_1"],
}

WRAPPED_METHODS = {
    "edrkit.matrices": {"RingMatrix": ["__matmul__"]},
    "edrkit.rings": {cls: ["bezout_raw", "associate_unit", "canonical_associate",
                           "divides", "mul"]
                     for cls in ("IntegerRing", "ModularRing", "GFPolynomialRing",
                                 "ProductRing", "TrivialExtensionRing")},
    "edrkit.exhaustive": {cls: ["comaximal"] for cls in ("ModStructure", "PolyModStructure",
                                                         "TableStructure", "QuotientTable")},
}


@pytest.mark.parametrize("module", sorted(WRAPPED_FUNCTIONS))
def test_wrapped_functions_exist(module):
    mod = importlib.import_module(module)
    for name in WRAPPED_FUNCTIONS[module]:
        assert callable(getattr(mod, name, None)), f"{module}.{name}"


@pytest.mark.parametrize("module", sorted(WRAPPED_METHODS))
def test_wrapped_methods_exist(module):
    mod = importlib.import_module(module)
    for cls_name, attrs in WRAPPED_METHODS[module].items():
        cls = getattr(mod, cls_name)
        for attr in attrs:
            assert callable(getattr(cls, attr, None)), f"{module}.{cls_name}.{attr}"


@pytest.mark.parametrize("module", sorted(WRAPPED_METHODS))
def test_wrapped_methods_are_plain_functions(module):
    """The tracer sets a plain function in place of each method, which then
    receives the instance as its first argument; a staticmethod there (say
    ``staticmethod(abs)``) would be called with one argument too many."""
    mod = importlib.import_module(module)
    for cls_name, attrs in WRAPPED_METHODS[module].items():
        cls = getattr(mod, cls_name)
        for attr in attrs:
            raw = next(vars(k)[attr] for k in cls.__mro__ if attr in vars(k))
            assert inspect.isfunction(raw), f"{module}.{cls_name}.{attr}"


def test_engine_phases_are_called_through_their_module_names(monkeypatch):
    """A wrapper installed on the module attribute sees every call, with the
    sweep (whose .d the tracer reads for peak bits) as first argument."""
    matrices = importlib.import_module("edrkit.matrices")
    seen = []

    def spy(name):
        original = getattr(matrices, name)

        def wrapper(*args):
            seen.append((name, args[0].d))
            return original(*args)
        return wrapper

    for name in ("_clear_pivot", "_enforce_chain", "_normalize_diagonal"):
        monkeypatch.setattr(matrices, name, spy(name))
    diagonal_reduce(RingMatrix(IntegerRing(), [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]))
    assert [name for name, _ in seen] == ["_clear_pivot"] * 3 + ["_enforce_chain",
                                                                  "_normalize_diagonal"]
    assert all(isinstance(d, list) and all(isinstance(r, list) for r in d) for _, d in seen)
