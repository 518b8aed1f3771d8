"""Spans around the library's public functions, for the traced run only.

``Tracer.install`` replaces each function listed in ``TARGETS`` with a
wrapper, in its own module and in every ``bridgecover`` module that imported
it by name (``twobridge`` imports ``det_bareiss``, ``cli`` imports most of
the package), and on the class for methods.  ``uninstall`` puts the
originals back.  A wrapper records a span only while an op runs
(``op_id >= 0``), so answer checks made between ops are not counted.

A span is (layer, start, end, parent span, op id, cut), where cut means the
op's time limit ended it.  Spans are kept in flat arrays and written out
when the run ends.  A span's self time is its duration minus the durations
of its direct children; children of one span never overlap, since one
thread makes every call.
"""
from __future__ import annotations

import json
import sys
import time
from array import array
from typing import Callable, Dict, List, Tuple

# layer metric name -> (module, attribute path) of the functions it covers
TARGETS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "intlinalg.smith_normal_form": (("intlinalg", "smith_normal_form"),),
    "intlinalg.in_row_span": (("intlinalg", "in_row_span"),),
    "intlinalg.det_bareiss": (("intlinalg", "det_bareiss"),),
    "intlinalg.resultant": (("intlinalg", "resultant"),),
    "twobridge.alexander": (("twobridge", "alexander"),),
    "twobridge.h1_cyclic_cover_order": (("twobridge", "h1_cyclic_cover_order"),),
    **{f"words.{f}": (("words", f),) for f in (
        "parse_word", "substitute", "substitute_params", "instantiate",
        "reduce_word", "letters", "cyclic_normal_form", "equal_up_to_cyclic",
        "exponent_sums", "word_sign")},
    **{f"presentations.{f}": (("presentations", f),) for f in (
        "genus_one_presentation", "mv_presentation", "abelianization_matrix",
        "h1_order", "verify_product_identity", "verify_rewrites")},
    "multipoly.arith": tuple(("multipoly", f"MultiPoly.{m}") for m in (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__neg__", "__pow__", "substitute")),
    "multipoly.evaluate": (("multipoly", "MultiPoly.evaluate"),),
    "goeritz.build_star": (("goeritz", "build_A_star"),
                           ("goeritz", "build_L_star")),
    "goeritz.det": (("goeritz", "det_exact"), ("goeritz", "GoeritzMatrix.det")),
    "goeritz.table_formula": (("goeritz", "table_formula"),),
    "qacert.generate": (("qacert", "generate_A_cert"),
                        ("qacert", "generate_L_cert")),
    "qacert.serialize": (("qacert", "serialize"),),
    "qacert.deserialize": (("qacert", "deserialize"),),
    "qacert.verify": (("qacert", "verify"),),
    "loelim.eliminate": (("loelim", "eliminate"),),
    "loelim.orbit_reduce": (("loelim", "orbit_reduce"),),
    "loelim.genus2_level0": (("loelim", "genus2_level0"),),
    "loelim.report": (("loelim", "table1_report"), ("loelim", "report_text"),
                      ("loelim", "report_csv"),
                      ("loelim", "genus2_report_text")),
    "cli.main": (("cli", "main"),),
}

# layer -> (size metric, unit, size of one call from its arguments and result)
SIZES: Dict[str, Tuple[str, str, Callable]] = {
    "intlinalg.det_bareiss": ("max_n", "rows",
                              lambda args, result: len(args[0])),
    "twobridge.alexander": ("max_degree", "degree",
                            lambda args, result: len(result) - 1),
    "words.letters": ("max_len", "letters", lambda args, result: len(result)),
}

MODULES = ("intlinalg", "multipoly", "twobridge", "words", "presentations",
           "goeritz", "qacert", "loelim", "cli")

# Spans kept for the trace file; the per-layer sums count every span.
MAX_KEPT_SPANS = 2_000_000


class Tracer:
    def __init__(self, package):
        self.package = package
        self.layers: List[str] = list(TARGETS)
        self.op_id = -1
        self.names = array("H")
        self.parents = array("l")
        self.op_ids = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.cuts = array("b")
        self.dropped = 0
        self.calls = [0] * len(self.layers)
        self.self_s = [0.0] * len(self.layers)
        self.cut_calls = [0] * len(self.layers)
        self.sizes: Dict[str, int] = {}
        self._stack: List[list] = []   # open spans: [index, layer, start, child_s]
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _wrap(self, layer: int, fn: Callable) -> Callable:
        name = self.layers[layer]
        size = SIZES.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op_id < 0:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [-1, layer, time.perf_counter(), 0.0]
            if len(tracer.starts) < MAX_KEPT_SPANS:
                frame[0] = len(tracer.starts)
                tracer.names.append(layer)
                tracer.parents.append(parent)
                tracer.op_ids.append(tracer.op_id)
                tracer.starts.append(frame[2])
                tracer.ends.append(frame[2])
                tracer.cuts.append(0)
            else:
                tracer.dropped += 1
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(frame, type(exc).__name__ == "OpTimeout")
                raise
            tracer._close(frame, False)
            if size is not None:
                key = f"{name}.{size[0]}"
                tracer.sizes[key] = max(tracer.sizes.get(key, 0),
                                        size[2](args, result))
            return result
        traced.__wrapped__ = fn
        return traced

    def _close(self, frame, cut: bool) -> None:
        end = time.perf_counter()
        self._stack.pop()
        index, layer, start, child_s = frame
        duration = end - start
        self.calls[layer] += 1
        self.self_s[layer] += duration - child_s
        if cut:
            self.cut_calls[layer] += 1
        if self._stack:
            self._stack[-1][3] += duration
        if index >= 0:
            self.ends[index] = end
            self.cuts[index] = int(cut)

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        modules = [sys.modules[f"{self.package.__name__}.{m}"] for m in MODULES]
        modules.append(self.package)
        for layer, name in enumerate(self.layers):
            for module_name, path in TARGETS[name]:
                module = sys.modules[f"{self.package.__name__}.{module_name}"]
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(module, cls_name)
                    self._patch(owner, attr, self._wrap(layer, owner.__dict__[attr]))
                    continue
                original = getattr(module, path)
                wrapper = self._wrap(layer, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results ----------------------------------------------------------

    def span_count(self) -> int:
        return len(self.starts) + self.dropped

    def layer_metrics(self) -> Dict[str, float]:
        """Totals over every traced op: calls, self time (ms), cut calls,
        and the size maxima."""
        out: Dict[str, float] = {}
        for layer, name in enumerate(self.layers):
            out[f"{name}.calls"] = self.calls[layer]
            out[f"{name}.self_ms"] = self.self_s[layer] * 1e3
            out[f"{name}.cut"] = self.cut_calls[layer]
        out.update(self.sizes)
        return out

    def write(self, path: str) -> None:
        """The kept spans as one JSON object of parallel columns."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"layers": self.layers,
                       "columns": ["layer", "start_s", "end_s", "parent",
                                   "op", "cut"],
                       "layer": self.names.tolist(),
                       "start_s": self.starts.tolist(),
                       "end_s": self.ends.tolist(),
                       "parent": self.parents.tolist(),
                       "op": self.op_ids.tolist(),
                       "cut": self.cuts.tolist(),
                       "dropped": self.dropped}, handle)

