"""Per-layer tracing by wrapping ``pflags`` functions from outside.

``Tracer.install()`` wraps the public entry points of every layer and patches
each wrapper in at every site that holds the original: the defining module,
every ``pflags`` module that imported it by name (``poly_gcd`` in ``ratfunc``
and ``matrix``, ``horizontal_sections`` in ``pone`` and ``hitchin``, ...), and
the ``ops.OP_TABLE`` registry.  Nothing under ``src/pflags`` is edited, and a
run that never calls ``install()`` executes the library untouched.

Every wrapped call times itself; its self time is its duration minus the time
covered by wrapped calls made inside it.  The ``fields``, ``poly`` and
``ratfunc`` layers (millions of calls) keep only aggregate counters; calls at
the ``ops``, ``cli``, ``pone``, ``hitchin``, ``elliptic`` and ``matrix``
boundaries also record a span (name, start, end, parent span) in memory.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# layers whose calls are recorded as spans; the rest keep counters only
SPAN_LAYERS = ("ops", "cli", "pone", "hitchin", "elliptic", "matrix")

# class methods wrapped per layer (module, class, methods)
METHODS = (
    ("fields", "Field", ("__init__", "__eq__", "add", "sub", "neg", "mul", "inv", "div",
                         "pow", "frobenius", "pth_root", "is_square", "sqrt")),
    ("poly", "Poly", ("__init__", "__mul__", "__divmod__")),
    ("ratfunc", "RatFunc", ("__init__",)),
)

# modules whose public module-level functions are wrapped; fields' helpers
# (is_prime, find_irreducible_coeffs, GF) count toward their callers
FUNCTION_MODULES = ("poly", "ratfunc", "matrix", "pone", "hitchin", "elliptic", "jsonio", "cli")

FIELD_ARITH = ("add", "sub", "neg", "mul", "inv", "div", "pow")
SOLVERS = ("kernel", "inverse", "solve")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # "layer.name" -> [calls, total_s, self_s]
        self.spans: list[tuple] = []  # (name, start, end, parent index or -1)
        self.max: dict[str, int] = {}  # size gauges: poly degree, solve dimensions
        self.eq_same = 0
        self.rf_canonical = 0
        self.rf_reduced = 0
        self._child = [0.0]  # time covered by wrapped children, per open call
        self._open_span = [-1]

    def reset(self):
        """Drop everything recorded so far except field builds, which happen
        during set-up and are reported as fields.build_s."""
        build = self.stats.get("fields.__init__")
        self.stats = {} if build is None else {"fields.__init__": build}
        self.spans = []
        self.max = {}
        self.eq_same = self.rf_canonical = self.rf_reduced = 0

    # -- wrapping -------------------------------------------------------------------

    def _gauge(self, key: str, value: int):
        if value > self.max.get(key, -1):
            self.max[key] = value

    def _wrap(self, key: str, fn, span: bool):
        child = self._child
        open_span = self._open_span
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child.append(0.0)
            if span:
                index = len(self.spans)
                self.spans.append(None)
                open_span.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                covered = child.pop()
                child[-1] += end - start
                entry = self.stats.get(key)
                if entry is None:
                    entry = self.stats[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += end - start
                entry[2] += end - start - covered
                if span:
                    open_span.pop()
                    self.spans[index] = (key, start, end, open_span[-1])

        return wrapper

    def _hooked(self, key: str, fn):
        """Wrappers that also read their arguments or results."""
        if key == "fields.__eq__":
            def eq(a, b):
                if a is b:
                    self.eq_same += 1
                return fn(a, b)
            return functools.wraps(fn)(eq)
        if key == "poly.__init__":
            def init(p, *args, **kwargs):
                fn(p, *args, **kwargs)
                self._gauge("poly.max_degree", len(p.coeffs) - 1)
            return functools.wraps(fn)(init)
        if key == "ratfunc.__init__":
            def init(rf, num, den=None):
                fn(rf, num, den)
                if not num.is_zero():
                    self.rf_canonical += 1
                    if den is not None and rf.den.degree < den.degree:
                        self.rf_reduced += 1
            return functools.wraps(fn)(init)
        if key == "matrix.horizontal_sections":
            def horizontal(a):
                self._gauge("matrix.horizontal_max_dim", a.n * a.field.p)
                return fn(a)
            return functools.wraps(fn)(horizontal)
        if key in ("matrix.kernel", "matrix.inverse"):
            def square(m):
                self._gauge("matrix.solve_max_dim", m.n)
                return fn(m)
            return functools.wraps(fn)(square)
        if key == "matrix.solve":
            def solve(m_cols, target, field):
                self._gauge("matrix.solve_max_dim", max(len(m_cols), len(target)))
                return fn(m_cols, target, field)
            return functools.wraps(fn)(solve)
        return fn

    def install(self):
        """Wrap every entry point of the imported ``pflags`` and patch the
        wrappers in at every site that refers to an original."""
        mods = {name: sys.modules[f"pflags.{name}"] for name in
                ("fields", "poly", "ratfunc", "matrix", "pone", "hitchin", "elliptic",
                 "jsonio", "ops", "cli")}
        replaced: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for layer, cls_name, methods in METHODS:
            cls = getattr(mods[layer], cls_name)
            for name in methods:
                key = f"{layer}.{name}"
                setattr(cls, name, self._wrap(key, self._hooked(key, cls.__dict__[name]), False))
        for layer in FUNCTION_MODULES:
            mod = mods[layer]
            for name, fn in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                key = f"{layer}.{name}"
                replaced[id(fn)] = (fn, self._wrap(key, self._hooked(key, fn),
                                                   layer in SPAN_LAYERS))
        table = mods["ops"].OP_TABLE
        for name, fn in table.items():
            table[name] = self._wrap(f"ops.{name}", fn, True)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "pflags" and not mod_name.startswith("pflags."):
                continue
            for attr, value in list(vars(mod).items()):
                original, wrapper = replaced.get(id(value), (None, None))
                if original is value:
                    setattr(mod, attr, wrapper)

    # -- metrics ------------------------------------------------------------------

    def _sum(self, keys, field: int):
        return sum(self.stats[k][field] for k in keys if k in self.stats)

    def _layer(self, layer: str, field: int):
        return self._sum([k for k in self.stats if k.startswith(layer + ".")], field)

    def metrics(self) -> dict[str, float]:
        s = self._sum
        arith = [f"fields.{n}" for n in FIELD_ARITH]
        solvers = [f"matrix.{n}" for n in SOLVERS]
        eq_calls = s(["fields.__eq__"], 0)
        return {
            "fields.arith_calls": s(arith, 0),
            "fields.arith_self_s": s(arith, 2),
            "fields.sqrt_calls": s(["fields.sqrt"], 0),
            "fields.build_s": s(["fields.__init__"], 1),
            "fields.eq_calls": eq_calls,
            "fields.eq_same_object_share": self.eq_same / eq_calls if eq_calls else 0.0,
            "poly.init_calls": s(["poly.__init__"], 0),
            "poly.mul_calls": s(["poly.__mul__"], 0),
            "poly.mul_self_s": s(["poly.__mul__"], 2),
            "poly.divmod_calls": s(["poly.__divmod__"], 0),
            "poly.divmod_self_s": s(["poly.__divmod__"], 2),
            "poly.gcd_calls": s(["poly.poly_gcd"], 0),
            "poly.max_degree": self.max.get("poly.max_degree", -1),
            "poly.roots_self_s": s(["poly.roots_in_field"], 2),
            "poly.irreducible_self_s": s(["poly.find_irreducible"], 2),
            "ratfunc.init_calls": s(["ratfunc.__init__"], 0),
            "ratfunc.init_self_s": s(["ratfunc.__init__"], 2),
            "ratfunc.gcd_reduced_share": (self.rf_reduced / self.rf_canonical
                                          if self.rf_canonical else 0.0),
            "ratfunc.sqrt_self_s": s(["ratfunc.sqrt_ratfunc"], 2),
            "ratfunc.frobenius_test_self_s": s(["ratfunc.in_frobenius_subfield"], 2),
            "matrix.horizontal_calls": s(["matrix.horizontal_sections"], 0),
            "matrix.horizontal_self_s": s(["matrix.horizontal_sections"], 2),
            "matrix.horizontal_max_dim": self.max.get("matrix.horizontal_max_dim", 0),
            "matrix.solve_calls": s(solvers, 0),
            "matrix.solve_self_s": s(solvers, 2),
            "matrix.solve_max_dim": self.max.get("matrix.solve_max_dim", 0),
            "matrix.gauge_self_s": s(["matrix.gauge_transform"], 2),
            "matrix.pcurv_calls": s(["matrix.p_curvature_matrix"], 0),
            "matrix.pcurv_self_s": s(["matrix.p_curvature_matrix"], 2),
            "matrix.charpoly_self_s": s(["matrix.charpoly_berkowitz"], 2),
            "hitchin.calls": self._layer("hitchin", 0),
            "hitchin.self_s": self._layer("hitchin", 2),
            "pone.calls": self._layer("pone", 0),
            "pone.self_s": self._layer("pone", 2),
            "pone.descent_self_s": s(["pone.cartier_descent"], 2),
            "elliptic.calls": self._layer("elliptic", 0),
            "elliptic.self_s": self._layer("elliptic", 2),
            "jsonio.parse_self_s": s([k for k in self.stats
                                      if k.startswith("jsonio.") and k.endswith("_from_json")], 2),
            "jsonio.emit_self_s": s([k for k in self.stats if k.startswith("jsonio.")
                                     and not k.endswith("_from_json")], 2),
            "ops.self_s": self._layer("ops", 2),
            "cli.self_s": self._layer("cli", 2),
        }

    def table(self) -> dict[str, dict]:
        """Every wrapped entry point: calls, total and self seconds."""
        return {k: {"calls": c, "total_s": t, "self_s": own}
                for k, (c, t, own) in sorted(self.stats.items())}
