"""Span tracer for the traced run, installed from outside the program.

:meth:`Tracer.install` replaces the public callables each layer calls
through (module attributes and class methods of ``regsing``) with
wrappers that record a span: name, start, end, parent span and request
id.  Spans are kept in flat arrays in memory and saved when the run
ends.  Wrappers return exactly what the wrapped callable returns;
integrands handed to the quadrature are wrapped only to count nodes.

Missing targets are skipped and listed in ``Tracer.missing``, so the
traced run keeps working when the program renames a callable (the
layer's metrics then read 0).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import warnings
from array import array
from collections import Counter

import numpy as np

# (module, attribute, span name); the attribute may be Class.method
TARGETS = (
    ("regsing.special", "NormalizedBessel.value", "special.kernel"),
    ("regsing.special", "NormalizedBessel.deriv", "special.kernel"),
    ("regsing.eigenfunction", "bessel_jm0_series", "special.kernel"),
    ("regsing.eigenfunction", "bessel_jm0_series_dx", "special.kernel"),
    ("regsing.eigenfunction", "SecularEvaluator.__init__", "eigenfunction.build"),
    ("regsing.eigenfunction", "SecularEvaluator.scaled", "eigenfunction.f"),
    ("regsing.eigenfunction", "find_spectrum", "eigenfunction.find_spectrum"),
    ("regsing.eigenfunction", "brentq", "eigenfunction.brentq"),
    ("regsing.eigenfunction", "quad_complex", "numutil.quad"),
    ("regsing.eigenfunction", "validate", "operators.validate"),
    ("regsing.eigenfunction", "characteristic_values", "operators.charvals"),
    ("regsing.determinant", "kernel_order", "eigenfunction.kernel_order"),
    ("regsing.determinant", "characteristic_values", "operators.charvals"),
    ("regsing.determinant", "quad_complex", "numutil.quad"),
    ("regsing.determinant", "quad", "numutil.quad"),
    ("regsing.determinant", "det_zeta_closed_form", "determinant.closed_form"),
    ("regsing.determinant", "det_zeta_finite_t", "determinant.finite_t"),
    ("regsing.determinant", "det_zeta_regularized", "determinant.regularized"),
    ("regsing.determinant", "det_zeta_auto", "determinant.auto"),
    ("regsing.determinant", "zeta_eval", "determinant.zeta"),
    ("regsing.cone", "cone_determinant", "cone.assembly"),
    ("regsing.cli", "validate", "operators.validate"),
    ("regsing.cli", "find_spectrum", "eigenfunction.find_spectrum"),
    ("regsing.cli", "det_zeta_auto", "determinant.auto"),
    ("regsing.cli", "zeta_eval", "determinant.zeta"),
    ("regsing.cli", "cone_determinant", "cone.assembly"),
)

KERNEL = "special.kernel"
F_EVAL = "eigenfunction.f"
FIND_SPECTRUM = "eigenfunction.find_spectrum"
QUAD = "numutil.quad"


def _kernel_arg(attr: str, args) -> complex:
    """The Bessel argument w of a kernel call."""
    if attr.startswith("NormalizedBessel"):
        return args[1]
    return complex(args[0]) * float(args[1])  # bessel_jm0_series*(mu, x)


class Tracer:
    """Spans and per-request counters, in memory until :meth:`save`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("H")
        self.parent = array("i")
        self.request = array("i")
        self._stack: list[int] = []
        self.req = -1
        self.counts: dict[int, Counter] = {}
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        self._showwarning = None
        self._filters = None

    # -- recording ------------------------------------------------------------

    def begin_request(self, req: int) -> None:
        self.req = req
        self.counts.setdefault(req, Counter())

    def count(self, key: str, n: float = 1) -> None:
        self.counts[self.req][key] += n

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_call=None, on_return=None):
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            if on_call is not None:
                args = on_call(args, parent)
            sid = len(tracer.start)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.name.append(nid)
            tracer.parent.append(parent)
            tracer.request.append(tracer.req)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.start[sid] = t0
                tracer.end[sid] = t1
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    # -- hooks ------------------------------------------------------------------

    def _kernel_hook(self, attr: str, radius: float):
        kid = self._name_id(KERNEL)

        def on_call(args, parent):
            # nested kernel calls (a series helper inside another) count once
            if parent < 0 or self.name[parent] != kid:
                self.count("kernel_calls")
                if abs(_kernel_arg(attr, args)) > radius:
                    self.count("kernel_hankel")
            return args

        return on_call

    def _quad_hook(self):
        def on_call(args, parent):
            f = args[0]

            def counted(t):
                self.count("quad_nodes")
                return f(t)

            return (counted,) + tuple(args[1:])

        return on_call

    def _roots_hook(self, spectrum) -> None:
        self.count("roots", len(spectrum.positive) + len(spectrum.negative))

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; count AccuracyLossWarning per request."""
        self.missing = []
        try:
            special = importlib.import_module("regsing.special")
            radius = float(getattr(special, "_SERIES_RADIUS", 18.0))
            loss = getattr(special, "AccuracyLossWarning", None)
        except ImportError:
            radius, loss = 18.0, None
        for module_name, attr, span in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            on_call = on_return = None
            if span == KERNEL:
                on_call = self._kernel_hook(attr, radius)
            elif span == QUAD:
                on_call = self._quad_hook()
            elif span == FIND_SPECTRUM:
                on_return = self._roots_hook
            self._undo.append((owner, leaf, vars(owner)[leaf]))
            setattr(owner, leaf, self.wrap(span, fn, on_call, on_return))
        if loss is not None:
            self._filters = warnings.filters[:]
            warnings.simplefilter("always", loss)
            self._showwarning = warnings.showwarning

            def showwarning(message, category, *args, **kwargs):
                if issubclass(category, loss):
                    self.count("accuracy_warnings")
                else:
                    self._showwarning(message, category, *args, **kwargs)

            warnings.showwarning = showwarning

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._undo):
            setattr(owner, leaf, original)
        self._undo.clear()
        if self._showwarning is not None:
            warnings.showwarning = self._showwarning
            warnings.filters[:] = self._filters
            self._showwarning = None

    # -- output -------------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "name": np.frombuffer(self.name, dtype=np.uint16).astype(np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "request": np.frombuffer(self.request, dtype=np.int32),
        }

    def meta(self, extra: dict | None = None) -> dict:
        return {
            "names": self.names,
            "counts": {str(k): dict(v) for k, v in self.counts.items()},
            "missing": self.missing,
            "extra": extra or {},
        }

    def table(self) -> "SpanTable":
        return SpanTable([(self.arrays(), self.meta())])

    def save(self, path, extra: dict | None = None) -> None:
        """Write the spans, names, counters and ``extra`` to one .npz file."""
        np.savez(path, meta=np.array(json.dumps(self.meta(extra))), **self.arrays())


def load(path) -> tuple[dict, dict]:
    with np.load(path) as z:
        meta = json.loads(str(z["meta"]))
        arrays = {k: z[k] for k in ("start", "end", "name", "parent", "request")}
    return arrays, meta


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def _inside(parent: np.ndarray, own: np.ndarray) -> np.ndarray:
    """Spans that are, or descend from, a span in ``own`` (pointer jumping)."""
    flag = own.copy()
    anc = parent.copy()
    while True:
        live = anc >= 0
        if not live.any():
            return flag
        flag[live] |= flag[anc[live]]
        anc[live] = anc[anc[live]]


class SpanTable:
    """Spans of one or more traces, with self time and ancestry."""

    def __init__(self, traces: list[tuple[dict, dict]]):
        names: list[str] = []
        cols = {k: [] for k in ("start", "end", "name", "parent", "request")}
        self.counts: dict[int, Counter] = {}
        offset = 0
        for arr, meta in traces:
            remap = np.array([_index(names, n) for n in meta["names"]] or [0], dtype=np.int32)
            cols["start"].append(arr["start"])
            cols["end"].append(arr["end"])
            cols["name"].append(remap[arr["name"]] if len(arr["name"]) else arr["name"])
            cols["parent"].append(np.where(arr["parent"] >= 0, arr["parent"] + offset, -1))
            cols["request"].append(arr["request"])
            for k, v in meta["counts"].items():
                self.counts.setdefault(int(k), Counter()).update(v)
            offset += len(arr["start"])
        self.names = names
        for k, v in cols.items():
            setattr(self, k, np.concatenate(v) if v else np.zeros(0))
        self.parent = self.parent.astype(np.int64)
        self.name = self.name.astype(np.int64)
        self.dur = self.end - self.start
        child = np.zeros(len(self.dur))
        has = self.parent >= 0
        np.add.at(child, self.parent[has], self.dur[has])
        self.self_time = self.dur - child

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        return self.name == self.names.index(name)

    def inside(self, name: str) -> np.ndarray:
        return _inside(self.parent, self.mask(name))

    def total(self, key: str) -> float:
        return float(sum(c.get(key, 0) for c in self.counts.values()))


def _index(names: list[str], name: str) -> int:
    if name not in names:
        names.append(name)
    return names.index(name)


def layer_metrics(table: SpanTable, n_requests: int, q_of_request: dict[int, int]) -> dict:
    """Per-request layer metrics of the traced requests (see README)."""
    n = max(n_requests, 1)
    ms = 1e3

    def per_req(mask, values=None) -> float:
        return float((table.dur[mask] if values is None else values[mask]).sum()) / n

    kernel = table.mask(KERNEL)
    f = table.mask(F_EVAL)
    quad = table.mask(QUAD)
    fs = table.mask(FIND_SPECTRUM)
    ops = table.mask("operators.validate") | table.mask("operators.charvals")
    kernel_calls = table.total("kernel_calls")
    f_in_fs = int((f & table.inside(FIND_SPECTRUM)).sum())
    f_in_quad = int((f & table.inside(QUAD)).sum())
    nodes = table.total("quad_nodes")
    roots = table.total("roots")

    out = {
        "special.kernel_calls": kernel_calls / n,
        "special.self_ms": per_req(kernel, table.self_time) * ms,
        "special.hankel_share": table.total("kernel_hankel") / kernel_calls if kernel_calls else 0.0,
        "special.accuracy_warnings": table.total("accuracy_warnings") / n,
        "eigenfunction.f_evals": int(f.sum()) / n,
        "eigenfunction.f_self_ms": per_req(f, table.self_time) * ms,
    }
    req_q = np.array([q_of_request.get(int(r), 0) for r in table.request[f]], dtype=int)
    f_dur = table.dur[f]
    for q in (1, 2, 4):
        sel = req_q == q
        out[f"eigenfunction.f_eval_us.q{q}"] = float(f_dur[sel].mean()) * 1e6 if sel.any() else 0.0
    out.update(
        {
            "eigenfunction.find_spectrum_ms": per_req(fs) * ms,
            "eigenfunction.brentq_calls": int(table.mask("eigenfunction.brentq").sum()) / n,
            "eigenfunction.f_evals_per_root": f_in_fs / roots if roots else 0.0,
            "eigenfunction.evaluator_builds": int(table.mask("eigenfunction.build").sum()) / n,
            "eigenfunction.kernel_order_calls": int(table.mask("eigenfunction.kernel_order").sum()) / n,
            "operators.validate_calls": int(table.mask("operators.validate").sum()) / n,
            "operators.charvals_calls": int(table.mask("operators.charvals").sum()) / n,
            "operators.self_ms": per_req(ops, table.self_time) * ms,
            "numutil.quad_calls": int(quad.sum()) / n,
            "numutil.quad_nodes": nodes / n,
            "numutil.f_evals_per_node": f_in_quad / nodes if nodes else 0.0,
            "numutil.quad_self_ms": per_req(quad, table.self_time) * ms,
            "determinant.closed_form_ms": per_req(table.mask("determinant.closed_form")) * ms,
            "determinant.finite_t_ms": per_req(table.mask("determinant.finite_t")) * ms,
            "determinant.regularized_ms": per_req(table.mask("determinant.regularized")) * ms,
            "determinant.zeta_ms": per_req(table.mask("determinant.zeta")) * ms,
            "cone.assembly_ms": per_req(table.mask("cone.assembly")) * ms,
        }
    )
    return out
