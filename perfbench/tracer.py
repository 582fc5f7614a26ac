"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions and methods of each topzeta module
from outside, by replacing module and class attributes; nothing under
src/ is edited.  Every call of a wrapped function records a span (id,
layer, start, end, parent id).  Spans are kept in memory, capped, and
written out when the run ends; the per-layer aggregates (calls and self
time, i.e. span time minus the time of child spans) are exact over all
spans, including those past the cap.

Functions not listed in LAYERS are not wrapped: their time counts as self
time of the nearest listed caller.  That keeps spans at layer boundaries
(for instance the RatFun API) rather than inside them (the polynomial
helpers a RatFun method calls).
"""
from __future__ import annotations

import functools
import itertools
import json
import sys
from time import perf_counter

# layer -> "module:attribute" paths below topzeta; "Class.method" names a
# method.  Paths missing from the program being measured are skipped, so
# the table outlives functions that later changes remove.
LAYERS = {
    "arith": [
        "arith:divisors", "arith:mobius", "arith:euler_phi",
        "arith:jordan_totient", "arith:frak_m", "arith:frak_n",
        "arith:divisor_closure", "arith:lcm_all"],
    "ratfun.construct": [
        "ratfun:RatFun.from_polys", "ratfun:RatFun.scaled_inv_product",
        "ratfun:RatFun.const", "ratfun:RatFun.linear",
        "ratfun:RatFun.inv_linear", "ratfun:RatFun.from_json"],
    "ratfun.ring": [
        "ratfun:RatFun.__add__", "ratfun:RatFun.__radd__",
        "ratfun:RatFun.__sub__", "ratfun:RatFun.__rsub__",
        "ratfun:RatFun.__neg__", "ratfun:RatFun.__mul__",
        "ratfun:RatFun.__rmul__", "ratfun:RatFun.__truediv__",
        "ratfun:RatFun.__rtruediv__", "ratfun:RatFun.__pow__",
        "ratfun:RatFun.__eq__"],
    "ratfun.substitute": ["ratfun:RatFun.substitute_affine"],
    "ratfun.poles": [
        "ratfun:RatFun.poles_with_multiplicity", "ratfun:RatFun.pol_plus",
        "ratfun:RatFun.residue_at"],
    "ratfun.render": [
        "ratfun:render_text", "ratfun:render_latex", "ratfun:RatFun.to_json"],
    "ratfun.other": ["ratfun:RatFun.evaluate"],
    "cyclo": [
        "cyclo:CycloProduct.from_factors", "cyclo:CycloProduct.exponent",
        "cyclo:CycloProduct.from_brackets", "cyclo:CycloProduct.to_brackets",
        "cyclo:CycloProduct.mul_div", "cyclo:CycloProduct.__mul__",
        "cyclo:CycloProduct.__truediv__",
        "cyclo:CycloProduct.power_transform",
        "cyclo:CycloProduct.variable_power",
        "cyclo:CycloProduct.is_polynomial", "cyclo:CycloProduct.root_orders",
        "cyclo:CycloProduct.degree",
        "cyclo:CycloProduct.thom_sebastiani_tensor",
        "cyclo:order_closure", "cyclo:cyclo_to_json", "cyclo:cyclo_from_json",
        "cyclo:cyclo_str"],
    "resolution.ztop": ["resolution:ztop_from_strata"],
    "resolution.graph": [
        "resolution:graph_from_json", "resolution:graph_to_json",
        "resolution:strata_of_graph", "resolution:acampo",
        "resolution:solve_multiplicities", "resolution:strata_from_json",
        "resolution:strata_to_json", "resolution:e_n_components",
        "resolution:CurveResolutionGraph.__post_init__",
        "resolution:StratifiedResolution.__post_init__"],
    "binomial.cone": ["binomial:cone_multiplicities"],
    "binomial.w_top": ["binomial:w_top", "binomial:w_top_twisted"],
    "binomial.motivic_w": ["binomial:motivic_w"],
    "binomial.euler_specialize": ["binomial:euler_specialize"],
    "binomial.other": [
        "binomial:ztop_binomial", "binomial:n_bullet", "binomial:rho_rays",
        "binomial:BinomialGerm.__post_init__"],
    "suspension.suspend": [
        "suspension:suspend_G", "suspension:suspend_F",
        "suspension:suspend_profile", "suspension:suspend_matrix",
        "suspension:k2_twisted"],
    "suspension.ingest": [
        "suspension:profile_from_graph", "suspension:summary_from_graph",
        "suspension:profile_from_json", "suspension:summary_from_json",
        "suspension:profile_to_json", "suspension:summary_to_json",
        "suspension:ZetaProfile.__post_init__",
        "suspension:GermSummary.__post_init__"],
    "suspension.other": [
        "suspension:suspend_orders", "suspension:fbad_set",
        "suspension:is_bad_eigenvalue", "suspension:ZetaProfile.entry",
        "suspension:ZetaProfile.support", "suspension:ZetaProfile.pol_plus"],
    "lys.ztop": ["lys:lys_ztop", "lys:sis_ztop"],
    "lys.assembly": [
        "lys:lys_charpoly", "lys:lys_orders", "lys:lys_candidate_poles"],
    "lys.other": [
        "lys:candidate_a", "lys:is_bad_divisor", "lys:residue_lct",
        "lys:lys_to_json", "lys:lys_from_json", "lys:LysSurface.__post_init__"],
    "checks.monodromy": ["checks:check_monodromy"],
    "checks.holomorphy": ["checks:check_holomorphy"],
    "checks.other": ["checks:default_l_max", "checks:Report.to_json"],
    "cli": ["cli:main"],
}

MAX_STORED_SPANS = 200_000


class Tracer:
    """Records spans of wrapped calls; install() patches topzeta."""

    def __init__(self, max_spans: int = MAX_STORED_SPANS):
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self.spans: list[tuple[int, int, float, float, int]] = []
        self.max_spans = max_spans
        self._ids = itertools.count()
        # frames are [time covered by child spans, span id]; the bottom
        # frame collects the duration of root spans, i.e. traced wall time
        self._stack: list[list] = [[0.0, -1]]
        self._undo: list[tuple[object, str, object]] = []
        # set when a wrapped ZetaProfile.entry returns a nonzero function
        self.entry_nonzero = False

    def _layer(self, name: str) -> int:
        if name not in self._layer_ids:
            self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return self._layer_ids[name]

    def wrap(self, layer: str, fn):
        """fn wrapped so that each call records a span in the layer."""
        b = self._layer(layer)
        stack, self_s, calls, spans = \
            self._stack, self.self_s, self.calls, self.spans
        ids, cap = self._ids, self.max_spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, next(ids)]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                parent = stack[-1]
                dur = t1 - t0
                parent[0] += dur
                self_s[b] += dur - frame[0]
                calls[b] += 1
                if len(spans) < cap:
                    spans.append((frame[1], b, t0, t1, parent[1]))

        return traced

    def call(self, layer: str, fn, *args):
        return self.wrap(layer, fn)(*args)

    @property
    def wall_s(self) -> float:
        """Summed duration of root spans."""
        return self._stack[0][0]

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every function named in LAYERS, in every topzeta module
        namespace that holds it."""
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == "topzeta" or name.startswith("topzeta.")]
        for layer, paths in LAYERS.items():
            for path in paths:
                modname, attr = path.split(":")
                module = sys.modules.get(f"topzeta.{modname}")
                if module is None:
                    continue
                if "." in attr:
                    self._wrap_method(layer, module, *attr.split("."))
                else:
                    self._wrap_function(layer, module, attr, namespaces)
        entry = getattr(sys.modules.get("topzeta.suspension"), "ZetaProfile",
                        None)
        if entry is not None and "entry" in vars(entry):
            self._patch(entry, "entry", self._note_nonzero(entry.entry))

    def _wrap_function(self, layer, module, attr, namespaces) -> None:
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapped = self.wrap(layer, original)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    self._patch(ns, key, wrapped)

    def _wrap_method(self, layer, module, cls_name, meth) -> None:
        cls = getattr(module, cls_name, None)
        raw = vars(cls).get(meth) if cls is not None else None
        if raw is None:
            return
        if isinstance(raw, staticmethod):
            self._patch(cls, meth, staticmethod(self.wrap(layer, raw.__func__)))
        elif callable(raw):
            self._patch(cls, meth, self.wrap(layer, raw))

    def _note_nonzero(self, entry):
        tracer = self

        @functools.wraps(entry)
        def noted(*args, **kwargs):
            z = entry(*args, **kwargs)
            if not z.is_zero():
                tracer.entry_nonzero = True
            return z

        return noted

    def _patch(self, target, name, value) -> None:
        self._undo.append((target, name, getattr(target, name)))
        setattr(target, name, value)

    def uninstall(self) -> None:
        while self._undo:
            target, name, value = self._undo.pop()
            setattr(target, name, value)

    # -- results -------------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float]]:
        """layer -> (calls, self seconds)."""
        return {name: (self.calls[i], self.self_s[i])
                for i, name in enumerate(self.layers)}

    def write(self, path, meta: dict) -> None:
        """Spans (times relative to the first stored span) and aggregates."""
        t_ref = min((s[2] for s in self.spans), default=0.0)
        out = {
            "meta": meta,
            "wall_s": self.wall_s,
            "layers": {name: {"calls": c, "self_s": s}
                       for name, (c, s) in self.totals().items()},
            "span_fields": ["id", "layer", "start_s", "end_s", "parent"],
            "layer_names": self.layers,
            "spans": [[sid, b, round(t0 - t_ref, 7), round(t1 - t_ref, 7), p]
                      for sid, b, t0, t1, p in self.spans],
            "spans_dropped": sum(self.calls) - len(self.spans),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(out, fh)
