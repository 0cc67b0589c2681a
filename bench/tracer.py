"""Outside-in tracing of the whdet layers.

The tracer wraps every public function of the six layer modules at each
place it is bound (the defining module, the modules that imported it, and
the package namespace), so calls between layers are seen without changing
the library.  A span records name, start, end, parent span and pass id;
self time is a span's duration minus that of its traced children.

Spans are kept in typed arrays while the run lasts and written out once at
the end.  Per-pass sums (calls, self time, layer counters) are kept
alongside, so the per-layer metrics need no second walk over the spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
import warnings
from array import array

import numpy as np

PACKAGE = "whdet"
LAYERS = ("specfun", "symbols", "structured", "fredholm", "wienerhopf", "logdet")


def _logdet_counts(tr, args, kwargs, result):
    a = np.asarray(args[0] if args else kwargs["matrix"])
    n = a.shape[0]
    cplx = np.iscomplexobj(a)
    c = tr.counters
    c["logdet.complex"] = c.get("logdet.complex", 0) + int(cplx)
    # (2/3) N^3 flops for LU, four real flops per complex one; computed, not counted
    c["logdet.gflop"] = c.get("logdet.gflop", 0.0) + (4 if cplx else 1) * 2.0 / 3.0 * n**3 / 1e9
    c["logdet.bytes"] = c.get("logdet.bytes", 0) + a.nbytes
    for layer in {"logdet", *(frame[1] for frame in tr.stack)}:
        key = f"{layer}.order_max"
        c[key] = max(c.get(key, 0), n)


def _reg_coeff_counts(tr, args, kwargs, result):
    tr.counters["reg_coeff_table.coeffs"] = (
        tr.counters.get("reg_coeff_table.coeffs", 0) + len(result))


def _cut_kernel_counts(tr, args, kwargs, result):
    key = "cut_kernel.terms"
    tr.counters[key] = max(tr.counters.get(key, 0), len(result.eta))


def _section_counts(tr, args, kwargs, result):
    key = "hankel_section_inverse_det.refinement_max"
    tr.counters[key] = max(tr.counters.get(key, 0.0), result.refinement)


def _nystrom_counts(tr, args, kwargs, result):
    key = "nystrom.order"
    tr.counters[key] = max(tr.counters.get(key, 0), result.matrix.shape[0])


#: counters read off a call's arguments or result, after its span closes
HOOKS = {
    "logdet.logdet": _logdet_counts,
    "symbols.reg_coeff_table": _reg_coeff_counts,
    "symbols.cut_kernel": _cut_kernel_counts,
    "structured.hankel_section_inverse_det": _section_counts,
    "fredholm.nystrom": _nystrom_counts,
}
#: functions whose warnings are counted (and passed on unchanged)
COUNT_WARNINGS = {"structured.hankel_section_inverse_det"}


class Tracer:
    """Wraps the layer functions of whdet and records spans per pass."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.on = False
        self.pass_id = -1
        self.stack = []           # [span id, layer, child time] per open span
        self.next_id = 0
        self.names = []           # span name by index
        self.wrapped = set()
        self.stats = {}           # name -> [calls, self seconds] in this pass
        self.counters = {}
        self.cols = {k: array(t) for k, t in
                     (("id", "q"), ("name", "i"), ("start", "d"),
                      ("end", "d"), ("parent", "q"), ("pass", "i"))}
        self._patches = []

    # -- installing -------------------------------------------------------
    def install(self) -> None:
        """Replace each public layer function wherever the package binds it."""
        pkg_modules = [m for name, m in list(sys.modules.items())
                       if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, layer, fn)
                self.wrapped.add(name)
                for m in pkg_modules:
                    for a, v in list(vars(m).items()):
                        if v is fn:
                            setattr(m, a, wrapper)
                            self._patches.append((m, a, fn))

    def uninstall(self) -> None:
        for m, a, fn in reversed(self._patches):
            setattr(m, a, fn)
        self._patches.clear()

    def _wrap(self, name: str, layer: str, fn):
        idx = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        count_warnings = name in COUNT_WARNINGS
        clock = time.perf_counter
        tr = self
        cols = self.cols

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            stack = tr.stack
            sid = tr.next_id
            tr.next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                if count_warnings:
                    result = tr._call_counting_warnings(name, fn, args, kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][2] += dur
                stat = tr.stats.get(name)
                if stat is None:
                    stat = tr.stats[name] = [0, 0.0]
                stat[0] += 1
                stat[1] += dur - frame[2]
                cols["id"].append(sid)
                cols["name"].append(idx)
                cols["start"].append(start - tr.t0)
                cols["end"].append(end - tr.t0)
                cols["parent"].append(parent)
                cols["pass"].append(tr.pass_id)
            if hook is not None:
                hook(tr, args, kwargs, result)
            return result

        return wrapper

    def _call_counting_warnings(self, name, fn, args, kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fn(*args, **kwargs)
        key = name.split(".", 1)[1] + ".warnings"
        self.counters[key] = self.counters.get(key, 0) + len(caught)
        for w in caught:  # hand them on to whoever records warnings outside
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return result

    # -- passes -----------------------------------------------------------
    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.stats = {}
        self.counters = {}
        self.on = True

    def end_pass(self) -> dict:
        """Stop recording; return this pass's sums."""
        self.on = False
        return {"stats": self.stats, "counters": self.counters}

    def write_spans(self, path, extra: dict) -> int:
        """Write every recorded span as one JSON document; return the count."""
        fields = ("id", "name", "start", "end", "parent", "pass")
        doc = dict(extra)
        doc["names"] = self.names
        doc["fields"] = list(fields)
        cols = [self.cols[f] for f in fields]
        # times to 0.1 microsecond, finer than the tracer's own cost per span
        cols[2] = [round(t, 7) for t in cols[2]]
        cols[3] = [round(t, 7) for t in cols[3]]
        doc["spans"] = [list(row) for row in zip(*cols)]
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        return len(self.cols["id"])


def _calls(fn):
    return lambda p: p["stats"].get(fn, (0, 0.0))[0]


def _self(fn):
    return lambda p: p["stats"].get(fn, (0, 0.0))[1]


def _counter(key, default=0):
    return lambda p: p["counters"].get(key, default)


def _layer_self(layer):
    return lambda p: sum(s for name, (_, s) in p["stats"].items()
                         if name.split(".", 1)[0] == layer)


def _complex_share(p):
    calls = p["stats"].get("logdet.logdet", (0, 0.0))[0]
    return p["counters"].get("logdet.complex", 0) / calls if calls else 0.0


def _gflop_per_s(p):
    busy = p["stats"].get("logdet.logdet", (0, 0.0))[1]
    return p["counters"].get("logdet.gflop", 0.0) / busy if busy else 0.0


#: per-layer metrics: name -> (unit, the library function it needs, value
#: from one traced pass's sums).  A metric whose function is missing from
#: the library is reported absent.
LAYER_METRICS = {
    "specfun.ln_barnes_g.calls": ("count", "specfun.ln_barnes_g", _calls("specfun.ln_barnes_g")),
    "specfun.ln_barnes_g.self_s": ("s", "specfun.ln_barnes_g", _self("specfun.ln_barnes_g")),
    "symbols.fourier_coeff_v.calls": ("count", "symbols.fourier_coeff_v", _calls("symbols.fourier_coeff_v")),
    "symbols.fourier_coeff_v.self_s": ("s", "symbols.fourier_coeff_v", _self("symbols.fourier_coeff_v")),
    "symbols.fourier_coeff_u.self_s": ("s", "symbols.fourier_coeff_u", _self("symbols.fourier_coeff_u")),
    "symbols.reg_coeff_table.calls": ("count", "symbols.reg_coeff_table", _calls("symbols.reg_coeff_table")),
    "symbols.reg_coeff_table.self_s": ("s", "symbols.reg_coeff_table", _self("symbols.reg_coeff_table")),
    "symbols.reg_coeff_table.coeffs": ("count", "symbols.reg_coeff_table", _counter("reg_coeff_table.coeffs")),
    "symbols.cut_kernel.self_s": ("s", "symbols.cut_kernel", _self("symbols.cut_kernel")),
    "symbols.cut_kernel.terms": ("count", "symbols.cut_kernel", _counter("cut_kernel.terms")),
    "structured.d_n.self_s": ("s", "structured.d_n", _self("structured.d_n")),
    "structured.fredholm_det_hankel_reg.self_s": (
        "s", "structured.fredholm_det_hankel_reg", _self("structured.fredholm_det_hankel_reg")),
    "structured.hankel_section_inverse_det.self_s": (
        "s", "structured.hankel_section_inverse_det", _self("structured.hankel_section_inverse_det")),
    "structured.hankel_section_inverse_det.warnings": (
        "count", "structured.hankel_section_inverse_det", _counter("hankel_section_inverse_det.warnings")),
    "structured.hankel_section_inverse_det.refinement_max": (
        "nat", "structured.hankel_section_inverse_det",
        _counter("hankel_section_inverse_det.refinement_max", 0.0)),
    "fredholm.nystrom.self_s": ("s", "fredholm.nystrom", _self("fredholm.nystrom")),
    "fredholm.nystrom.order": ("rows", "fredholm.nystrom", _counter("nystrom.order")),
    "wienerhopf.det_wr_pm_hr.self_s": ("s", "wienerhopf.det_wr_pm_hr", _self("wienerhopf.det_wr_pm_hr")),
    "wienerhopf.det_w2r.self_s": ("s", "wienerhopf.det_w2r", _self("wienerhopf.det_w2r")),
    "wienerhopf.order_max": ("rows", "logdet.logdet", _counter("wienerhopf.order_max")),
    "logdet.logdet.calls": ("count", "logdet.logdet", _calls("logdet.logdet")),
    "logdet.logdet.self_s": ("s", "logdet.logdet", _self("logdet.logdet")),
    "logdet.logdet.order_max": ("rows", "logdet.logdet", _counter("logdet.order_max")),
    "logdet.logdet.complex_share": ("share", "logdet.logdet", _complex_share),
    "logdet.logdet.gflop": ("GFlop-computed", "logdet.logdet", _counter("logdet.gflop", 0.0)),
    "logdet.logdet.gflop_per_s": ("GFlop/s-computed", "logdet.logdet", _gflop_per_s),
    "logdet.logdet.bytes": ("B-computed", "logdet.logdet", _counter("logdet.bytes")),
    **{f"{layer}.self_s": ("s", None, _layer_self(layer)) for layer in LAYERS},
}


def layer_metrics(tracer: Tracer, passes: list) -> tuple:
    """Median of each per-layer metric over the traced passes.

    Returns (metrics, absent): metrics maps name -> (value, unit); absent
    lists the metrics whose library function no longer exists.
    """
    metrics, absent = {}, []
    for name, (unit, needs, fn) in LAYER_METRICS.items():
        if needs is not None and needs not in tracer.wrapped:
            absent.append(name)
            continue
        metrics[name] = (statistics.median(fn(p) for p in passes), unit)
    return metrics, absent
