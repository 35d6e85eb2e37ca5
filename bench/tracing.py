"""Per-layer tracing from outside the program.

``Tracer.install`` replaces edrkit functions and methods with wrappers, and
``uninstall`` puts the originals back.  It has two modes, used in different
rounds, so that neither kind of wrapper costs time inside the other's
figures: ``"time"`` wraps the timed functions in spans and counts nothing,
``"count"`` counts calls to them and to the untimed ones (ring ``mul`` and
``divides``, ``comaximal``, ``format_element``) and reads bit sizes, and
times nothing.  A function imported with ``from .x import y`` is replaced in
every edrkit module that binds it, so calls through any name are seen.  A
span's self time is its duration minus the time of the spans it encloses.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

_MODULES = ("edrkit", "edrkit.cli", "edrkit.completion", "edrkit.exhaustive",
            "edrkit.matrices", "edrkit.registry", "edrkit.rings", "edrkit.stability")

# Ring.kind -> the edrkit.rings class of that kind
_RING_CLASSES = {"integers": "IntegerRing", "modular": "ModularRing",
                 "prime-field-poly": "GFPolynomialRing", "product": "ProductRing",
                 "trivial-extension": "TrivialExtensionRing"}

# (unit, metric names) in report order; every traced run reports all of them
PER_LAYER = [
    ("s", ["cli.dispatch_s", "cli.decode_s", "cli.encode_s", "cli.complete_verify_det_s",
           "registry.make_ring_s"]),
    ("count", ["registry.format_element_calls"]),
    ("s", ["matrices.diagonal_reduce_s", "matrices.clear_pivot_s"]),
    ("count", ["matrices.clear_pivot_calls"]),
    ("s", ["matrices.enforce_chain_s", "matrices.normalize_diagonal_s",
           "matrices.reduce_2x2_s"]),
    ("count", ["matrices.reduce_2x2_calls"]),
    ("s", ["matrices.reduce_modular_s", "matrices.reduce_product_s",
           "matrices.verify_reduction_s", "matrices.matmul_s"]),
    ("count", ["matrices.matmul_calls"]),
    ("bits", ["matrices.sweep_peak_bits", "matrices.cert_peak_bits"]),
    ("s", ["completion.complete_row_s"]),
    ("count", ["completion.complete_row_calls"]),
    ("s", ["completion.determinant_s"]),
    ("count", ["completion.determinant_calls"]),
]
for _k in _RING_CLASSES:
    PER_LAYER += [("s", [f"rings.{_k}.bezout_raw_s"]), ("count", [f"rings.{_k}.bezout_raw_calls"]),
                  ("s", [f"rings.{_k}.associate_unit_s", f"rings.{_k}.canonical_associate_s"]),
                  ("count", [f"rings.{_k}.divides_calls", f"rings.{_k}.mul_calls"])]
PER_LAYER += [
    ("s", ["stability.check_property_s", "stability.structure_s"]),
    ("count", ["stability.select_stable_calls"]),
    ("s", ["stability.lift_unit_s"]),
    ("count", ["stability.lift_unit_calls"]),
    ("s", ["exhaustive.stable_range_1_s", "exhaustive.is_clean_s",
           "exhaustive.all_nonzero_adequate_s", "exhaustive.locally_stable_s",
           "exhaustive.neat_range_1_s"]),
    ("count", ["exhaustive.comaximal_calls"]),
    ("s", ["trace.overhead_s"]),
]
PER_LAYER_UNITS = {name: unit for unit, names in PER_LAYER for name in names}


def entry_bits(v) -> int:
    """Size of a raw ring value: bit lengths summed over its integer parts."""
    if isinstance(v, int):
        return abs(v).bit_length()
    if isinstance(v, Fraction):
        return abs(v.numerator).bit_length() + v.denominator.bit_length()
    return sum(entry_bits(c) for c in v)


def _peak(rows) -> int:
    return max((entry_bits(v) for row in rows for v in row), default=0)


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.peak_bits = {"matrices.sweep_peak_bits": 0, "matrices.cert_peak_bits": 0}
        self._stack: list[list[float]] = []   # child time of each open span
        self._patches: list[tuple] = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn):
        stack, self_s = self._stack, self.self_s

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                self_s[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def _counter(self, name, fn, after=None):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _sweep_bits(self, args, _result):
        key = "matrices.sweep_peak_bits"
        self.peak_bits[key] = max(self.peak_bits[key], _peak(args[0].d))

    def _cert_bits(self, _args, res):
        key = "matrices.cert_peak_bits"
        bits = max(_peak(m.data) for m in (res.P, res.Q, res.Pinv, res.Qinv, res.D))
        self.peak_bits[key] = max(self.peak_bits[key], bits)

    # -- patching ---------------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        inherited = attr not in vars(owner)
        self._patches.append((owner, attr, None if inherited else vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _everywhere(self, module, attr, make):
        """Wrap module.attr in every edrkit module that binds the same function."""
        if make is None:
            return
        original = getattr(importlib.import_module(module), attr)
        for name in _MODULES:
            mod = importlib.import_module(name)
            if getattr(mod, attr, None) is original:
                self._patch(mod, attr, make(original))

    def _method(self, cls, attr, make):
        if make is not None:
            self._patch(cls, attr, make(getattr(cls, attr)))

    def install(self, mode: str):
        """Wrap edrkit for one round: mode "time" or "count" (module docstring)."""
        cli = importlib.import_module("edrkit.cli")
        completion = importlib.import_module("edrkit.completion")
        ex = importlib.import_module("edrkit.exhaustive")
        mx = importlib.import_module("edrkit.matrices")
        rings = importlib.import_module("edrkit.rings")
        timing = mode == "time"

        def span(name, after=None):
            """A timed span in "time" rounds, a call count (and `after`) in "count" rounds."""
            if timing:
                return lambda fn: self._span(name, fn)
            return lambda fn: self._counter(name, fn, after)

        def count(name):
            """A call count in "count" rounds; no wrapper (None) in "time" rounds."""
            return None if timing else (lambda fn: self._counter(name, fn))

        self._everywhere("edrkit.cli", "dispatch", span("cli.dispatch"))
        for attr in ("read_matrix", "_completion_payload"):
            self._everywhere("edrkit.cli", attr, span("cli.decode"))
        for attr in ("_pretty_matrix", "render"):
            self._everywhere("edrkit.cli", attr, span("cli.encode"))
        # determinant is bound in matrices, completion, cli and the package;
        # the cli binding is the second evaluation made by complete --verify
        self._patch(cli, "determinant", span("cli.complete_verify_det")(cli.determinant))
        self._patch(completion, "determinant",
                    span("completion.determinant")(completion.determinant))

        self._everywhere("edrkit.registry", "make_ring", span("registry.make_ring"))
        self._everywhere("edrkit.registry", "format_element", count("registry.format_element"))

        self._everywhere("edrkit.matrices", "diagonal_reduce",
                         span("matrices.diagonal_reduce", self._cert_bits))
        self._everywhere("edrkit.matrices", "reduce_2x2",
                         span("matrices.reduce_2x2", self._cert_bits))
        self._everywhere("edrkit.matrices", "_clear_pivot",
                         span("matrices.clear_pivot", self._sweep_bits))
        for attr, name in (("_enforce_chain", "enforce_chain"),
                           ("_normalize_diagonal", "normalize_diagonal"),
                           ("_reduce_modular", "reduce_modular"),
                           ("_reduce_product", "reduce_product"),
                           ("verify_reduction", "verify_reduction")):
            self._everywhere("edrkit.matrices", attr, span(f"matrices.{name}"))
        self._method(mx.RingMatrix, "__matmul__", span("matrices.matmul"))

        self._everywhere("edrkit.completion", "complete_row", span("completion.complete_row"))

        for kind, cls_name in _RING_CLASSES.items():
            cls = getattr(rings, cls_name)
            for attr in ("bezout_raw", "associate_unit", "canonical_associate"):
                self._method(cls, attr, span(f"rings.{kind}.{attr}"))
            for attr in ("divides", "mul"):
                self._method(cls, attr, count(f"rings.{kind}.{attr}"))

        self._everywhere("edrkit.stability", "check_property", span("stability.check_property"))
        self._everywhere("edrkit.exhaustive", "structure_for", span("stability.structure"))
        self._everywhere("edrkit.stability", "select_stable", count("stability.select_stable"))
        self._everywhere("edrkit.stability", "lift_unit", span("stability.lift_unit"))

        for attr in ("stable_range_1", "is_clean", "all_nonzero_adequate",
                     "locally_stable", "neat_range_1"):
            self._everywhere("edrkit.exhaustive", attr, span(f"exhaustive.{attr}"))
        # QuotientTable copies TableStructure.comaximal into its own namespace
        for cls in (ex.ModStructure, ex.PolyModStructure, ex.TableStructure, ex.QuotientTable):
            self._method(cls, "comaximal", count("exhaustive.comaximal"))

    def close_open_spans(self):
        """Forget spans left open by a request that the time limit interrupted."""
        self._stack.clear()

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- report -----------------------------------------------------------------

    def metrics(self, timed_requests: int, counted_requests: int, overhead_s: float) -> dict:
        """Every per-layer metric: times per request of the "time" rounds,
        counts per request of the "count" rounds, peaks as maxima."""
        out = {}
        for name, unit in PER_LAYER_UNITS.items():
            if name == "trace.overhead_s":
                value = overhead_s
            elif unit == "bits":
                value = self.peak_bits[name]
            elif name.endswith("_calls"):
                value = self.calls[name[:-len("_calls")]] / counted_requests
            else:
                value = self.self_s[name[:-len("_s")]] / timed_requests
            out[name] = {"value": value, "unit": unit}
        return out
