"""Per-layer spans recorded around dilatekit's public functions and methods.

The package itself is not changed: ``install`` replaces each traced
function with a wrapper, on the class for ``Mat``, ``FsVec`` and the
``SeqOp`` subclasses, and in every ``dilatekit`` module that holds the
function under some name (``harness`` and ``cli`` import several builders
by name). Each span records its layer name, start, end, parent span and
operation id; spans stay in memory and are written out when the run ends.

A span's self time is its duration minus the durations of its direct
child spans. The bookkeeping for products (multiply-adds, nonzero share,
bit lengths) runs after a span closes and is kept out of its parent's self
time too.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from fractions import Fraction

# layer name -> (module, attribute) of each traced function; "Class.method"
# attributes are wrapped on the class.
LAYERS = {
    "matrix.mul": [("dilatekit.matrix", "Mat.__mul__")],
    "matrix.rref": [("dilatekit.matrix", "Mat.rref")],
    "matrix.inverse": [("dilatekit.matrix", "Mat.inverse")],
    "matrix.apply": [("dilatekit.matrix", "Mat.apply")],
    "matrix.pow": [("dilatekit.matrix", "Mat.__pow__")],
    "finsupp.fsvec": [("dilatekit.finsupp", "FsVec.__init__")],
    "seqops.apply": [],  # every SeqOp subclass's own apply, filled in by install
    "finite.build": [("dilatekit.finite", n) for n in
                     ("halmos_build", "schur_build", "nonsimilar_pair", "ndilation_build")],
    "finite.verify": [("dilatekit.finite", n) for n in ("ndilation_verify", "_assert_inverse")],
    "sequence.verify": [("dilatekit.sequence", n) for n in
                        ("schaffer_verify", "standard_verify", "standard_minimality_check",
                         "ando_verify")],
    "wold.decompose": [("dilatekit.wold", "wold_decompose")],
    "intertwine.verify": [("dilatekit.intertwine", n) for n in
                          ("verify_lift", "certification_report")],
    "intertwine.extract": [("dilatekit.intertwine", "extract_intertwiner")],
    "harness.generate": [("dilatekit.harness", "generate_instance")],
    "harness.suite": [("dilatekit.harness", "run_suites")],
    "cli.parser": [("dilatekit.cli", "build_parser")],
    "cli.main": [("dilatekit.cli", "main")],
    "serialize.parse": [("dilatekit.serialize", n) for n in ("parse_instance_file", "load_matrix")],
    "report.json": [("dilatekit.report", "reports_to_json"), ("dilatekit.report", "Report.to_json")],
}

# Per-layer metrics: calls and self time of each layer, plus the product
# counters. Every value is per round (the median over the run's rounds).
COUNTED = ("matrix.mul", "matrix.rref", "matrix.inverse", "matrix.apply", "matrix.pow",
           "finsupp.fsvec", "seqops.apply", "finite.build", "harness.generate")
METRICS = [
    ("matrix.mul.calls", "count"), ("matrix.mul.self_s", "s"), ("matrix.mul.madds", "count"),
    ("matrix.mul.nonzero_share", "share"),
    ("matrix.rref.calls", "count"), ("matrix.rref.self_s", "s"),
    ("matrix.inverse.calls", "count"), ("matrix.inverse.self_s", "s"),
    ("matrix.apply.calls", "count"), ("matrix.apply.self_s", "s"),
    ("matrix.pow.calls", "count"), ("matrix.pow.self_s", "s"), ("matrix.max_bits", "bits"),
    ("finsupp.fsvec.calls", "count"), ("finsupp.fsvec.self_s", "s"),
    ("seqops.apply.calls", "count"), ("seqops.apply.self_s", "s"),
    ("finite.build.calls", "count"), ("finite.build.self_s", "s"),
    ("finite.verify.self_s", "s"), ("sequence.verify.self_s", "s"),
    ("wold.decompose.self_s", "s"), ("intertwine.verify.self_s", "s"),
    ("intertwine.extract.self_s", "s"),
    ("harness.generate.calls", "count"), ("harness.generate.self_s", "s"),
    ("harness.suite.self_s", "s"),
    ("cli.parser.self_s", "s"), ("cli.main.self_s", "s"), ("serialize.parse.self_s", "s"),
    ("report.json.self_s", "s"),
]


def _bits(values) -> int:
    best = 0
    for q in values:
        if type(q) is Fraction:
            best = max(best, q.numerator.bit_length(), q.denominator.bit_length())
    return best


class Tracer:
    def __init__(self):
        self.names = list(LAYERS)
        self.active = False
        self.op = -1
        # spans, one column each
        self.span_layer = array("h")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, time covered by children]
        self._reset_round()

    def _reset_round(self) -> None:
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.madds = 0
        self.nonzero_madds = 0
        self.max_bits = 0

    # ------------------------------------------------------------------

    def wrap(self, layer: str, fn, after=None):
        lid = self.names.index(layer)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.span_start)
            self.span_layer.append(lid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_op.append(self.op)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            self.span_start.append(start)
            self.span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.span_end[index] = end
                self.calls[lid] += 1
                self.self_s[lid] += end - start - frame[1]
            if after is not None:
                after(args, result)
            if stack:
                stack[-1][1] += clock() - start
            return result

        traced.__wrapped__ = fn
        return traced

    def _after_mul(self, args, result) -> None:
        a, b = args
        if type(b) is not type(a):
            return
        self.madds += a.rows * a.cols * b.cols
        col_nz = [sum(1 for row in a.entries if row[j] != 0) for j in range(a.cols)]
        row_nz = [sum(1 for x in row if x != 0) for row in b.entries]
        self.nonzero_madds += sum(c * r for c, r in zip(col_nz, row_nz))
        self._after_mat(args, result)

    def _after_mat(self, args, result) -> None:
        self.max_bits = max(self.max_bits, max(_bits(row) for row in result.entries))

    def _after_vec(self, args, result) -> None:
        self.max_bits = max(self.max_bits, _bits(result))

    # ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function in the loaded dilatekit modules.

        A module-level function that no longer exists is skipped, so its
        layer reads 0 rather than the run failing.
        """
        from dilatekit import seqops

        after = {"Mat.__mul__": self._after_mul, "Mat.__pow__": self._after_mat,
                 "Mat.apply": self._after_vec}
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                module = sys.modules[module_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, meth, self.wrap(layer, getattr(cls, meth), after.get(attr)))
                elif hasattr(module, attr):
                    self._replace_everywhere(getattr(module, attr), self.wrap(layer, getattr(module, attr)))
        for cls in vars(seqops).values():
            if isinstance(cls, type) and issubclass(cls, seqops.SeqOp) and "apply" in vars(cls):
                if cls is not seqops.SeqOp:
                    cls.apply = self.wrap("seqops.apply", cls.apply)

    @staticmethod
    def _replace_everywhere(original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if name != "dilatekit" and not name.startswith("dilatekit."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    # ------------------------------------------------------------------

    def round_metrics(self) -> dict:
        """This round's per-layer values; resets the round counters."""
        idx = self.names.index
        out = {}
        for layer in self.names:
            out[f"{layer}.self_s"] = self.self_s[idx(layer)]
        for layer in COUNTED:
            out[f"{layer}.calls"] = self.calls[idx(layer)]
        out["matrix.mul.madds"] = self.madds
        out["matrix.mul.nonzero_share"] = self.nonzero_madds / self.madds if self.madds else 0.0
        out["matrix.max_bits"] = self.max_bits
        self._reset_round()
        return out

    def write(self, path, header: dict) -> None:
        doc = dict(header)
        doc["layers"] = self.names
        doc["columns"] = ["layer", "parent", "op", "start", "end"]
        doc["spans"] = {
            "layer": self.span_layer.tolist(),
            "parent": self.span_parent.tolist(),
            "op": self.span_op.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)
