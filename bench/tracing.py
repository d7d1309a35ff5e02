"""Per-layer tracing, installed from outside the package in a worker process.

``install`` replaces the public functions and methods of each scepoly module
with timing wrappers; nothing inside ``src/`` changes.  ``cli``, ``families``,
``genfunc``, ``integrals`` and ``report`` calls become spans (id, parent,
request, start, end).  ``rational`` and ``poly`` are called millions of times,
so they only aggregate call counts and time.

Every layer time is self time: a call's duration minus the durations of the
wrapped calls made inside it.  The seven verify suites are the exception:
they wrap whole suites to show which suite a gain landed in, so their time
is the full span.  Wrapper cost lands in the caller's self time; the traced
run reports the total as traced minus untraced wall time.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys
import time

RATIONAL_METHODS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__eq__", "conjugate",
)

# (class name, method, key)
POLY_METHODS = (
    [("Poly", m, "poly.mul") for m in ("__mul__", "__rmul__", "__truediv__", "__pow__")]
    + [("LaurentPoly", m, "poly.mul") for m in ("__mul__", "__rmul__")]
    + [("Poly", m, "poly.add") for m in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__")]
    + [("LaurentPoly", m, "poly.add") for m in ("__add__", "__sub__", "__neg__")]
    + [("Poly", "derivative", "poly.derivative"), ("LaurentPoly", "derivative", "poly.derivative")]
    + [
        ("ExpPoly", m, "poly.exppoly")
        for m in ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
                  "derivative", "nth_derivative", "__eq__")
    ]
    + [("Poly", "__eq__", "poly.eq"), ("LaurentPoly", "__eq__", "poly.eq")]
    + [("Poly", "scale_arg", "poly.scale_arg")]
    + [("Poly", "eval", "poly.eval"), ("Poly", "eval_float", "poly.eval")]
)

FAMILY_FUNCTIONS = {
    "families.explicit": (
        "e_explicit", "em_explicit", "s_explicit", "c_from_s", "shat", "chat",
        "antideriv_poly_exp", "family_poly",
    ),
    "families.rodrigues": ("e_rodrigues", "em_rodrigues"),
    "families.laguerre": ("laguerre_general", "e_laguerre"),
    "families.complex": ("s_from_e", "c_from_e"),
    "families.recurrence": ("e_recurrence", "check_relation_group"),
}
# Dispatchers, not constructors: left out of families.calls / repeat_frac.
NOT_CONSTRUCTORS = ("family_poly", "check_relation_group")

GENFUNC_FUNCTIONS = {
    "genfunc.series": ("series_exp_xt", "series_E", "series_Em", "series_S", "series_C"),
    "genfunc.degenerate": ("degenerate_genfunc", "nu_degeneracy_check", "sigma_linear", "rho_linear"),
    "genfunc.connection": ("series_connection_check",),
}
SERIES_METHODS = (
    [("__mul__", "genfunc.mul"), ("__rmul__", "genfunc.mul")]
    + [(m, "genfunc.series") for m in ("__add__", "__sub__", "__neg__", "diff_x", "__eq__")]
)

INTEGRAL_FUNCTIONS = {
    "integrals.closed_form": ("closed_form",),
    "integrals.check": (
        "check_antiderivative", "antiderivative_recurrence_report", "lift_closed_form", "lift_integrand",
    ),
    "integrals.s_rodrigues": ("s_rodrigues",),
    "integrals.definite": ("definite_integral", "eval_closed_form"),
    "integrals.quad": ("quad_adaptive",),
}

REPORT_MEMBERS = ("of", "merged_with", "all_passed", "failures", "__len__")

CLI_RENDERERS = (
    "render_poly_text", "render_poly_latex", "poly_to_json", "poly_to_csv",
    "render_series_text", "render_closed_form_text",
)
CLI_COMMANDS = ("cmd_poly", "cmd_integrate", "cmd_verify", "cmd_genfunc")


class Tracer:
    """Time and call counts per key, spans, and a few outcome counts."""

    def __init__(self):
        self.keys: list[str] = []
        self.time_s: list[float] = []
        self.calls: list[int] = []
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.request = 0
        self.seen: set = set()
        self._stack = [0.0]  # child time of each open wrapped call
        self._open = [0]  # ids of open spans; 0 is the request root
        self._ids = itertools.count(1)

    def _index(self, key: str) -> int:
        if key not in self.keys:
            self.keys.append(key)
            self.time_s.append(0.0)
            self.calls.append(0)
        return self.keys.index(key)

    def add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def counter(self, fn, key: str):
        i = self._index(key)
        stack, time_s, calls, perf = self._stack, self.time_s, self.calls, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - t0
                child = stack.pop()
                stack[-1] += elapsed
                time_s[i] += elapsed - child
                calls[i] += 1

        return wrapper

    def span(self, fn, key: str, after=None, constructor: str | None = None, inclusive=False):
        """Wrap fn as a span; ``after(result)`` runs once the span has ended.

        For a family constructor, record whether the same call already ran.
        An inclusive span adds its full duration to its key, not its self time.
        """
        i = self._index(key)
        stack, time_s, calls, perf = self._stack, self.time_s, self.calls, time.perf_counter
        open_ids, ids, spans = self._open, self._ids, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if constructor is not None:
                self._note_constructor(constructor, args, kwargs)
            sid = next(ids)
            parent = open_ids[-1]
            open_ids.append(sid)
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                elapsed = t1 - t0
                child = stack.pop()
                stack[-1] += elapsed
                open_ids.pop()
                time_s[i] += elapsed if inclusive else elapsed - child
                calls[i] += 1
                spans.append((sid, parent, self.request, key, t0, t1))
            if after is not None:
                after(result)
            return result

        return wrapper

    def _note_constructor(self, name, args, kwargs):
        self.add("families.calls", 1)
        key = (name, args, tuple(sorted(kwargs.items())))
        if key in self.seen:
            self.add("families.repeats", 1)
        else:
            self.seen.add(key)

    def run_request(self, request_id: int, main, argv):
        """Call main(argv) as the root span of one request."""
        self.request = request_id
        return self.span(main, "request")(argv)

    def layer_metrics(self) -> dict[str, float]:
        def t(key):
            return self.time_s[self.keys.index(key)] if key in self.keys else 0.0

        def n(key):
            return self.calls[self.keys.index(key)] if key in self.keys else 0

        out = {"rational.ops": n("rational"), "rational.time_s": t("rational")}
        out["poly.mul.calls"] = n("poly.mul")
        out["poly.mul.time_s"] = t("poly.mul")
        out["poly.add.calls"] = n("poly.add")
        out["poly.add.time_s"] = t("poly.add")
        for key in ("derivative", "exppoly", "eq", "scale_arg", "eval"):
            out[f"poly.{key}.time_s"] = t(f"poly.{key}")
        for key in FAMILY_FUNCTIONS:
            out[f"{key}.time_s"] = t(key)
        calls = self.counts.get("families.calls", 0)
        out["families.calls"] = calls
        out["families.repeat_frac"] = self.counts.get("families.repeats", 0) / calls if calls else 0.0
        for key in GENFUNC_FUNCTIONS:
            out[f"{key}.time_s"] = t(key)
        out["genfunc.mul.calls"] = n("genfunc.mul")
        out["genfunc.mul.time_s"] = t("genfunc.mul")
        for key in INTEGRAL_FUNCTIONS:
            out[f"{key}.time_s"] = t(key)
        out["integrals.quad.evals"] = self.counts.get("integrals.quad.evals", 0)
        out["report.time_s"] = t("report")
        out["report.entries"] = self.counts.get("report.entries", 0)
        for key in ("parse", "render", "cmd"):
            out[f"cli.{key}.time_s"] = t(f"cli.{key}")
        return out

    def suite_metrics(self, suites) -> dict[str, float]:
        out = {}
        for name in suites:
            key = f"suite.{name}"
            out[f"{key}.time_s"] = self.time_s[self.keys.index(key)] if key in self.keys else 0.0
            out[f"{key}.ids"] = self.counts.get(f"{key}.ids", 0)
        return out


def _replace_everywhere(old, new) -> None:
    """Point every scepoly module's name for ``old`` at ``new``."""
    for name, module in list(sys.modules.items()):
        if name == "scepoly" or name.startswith("scepoly."):
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)


def _wrap_functions(tracer, module, table, constructors=False):
    for key, names in table.items():
        for name in names:
            fn = getattr(module, name)
            ctor = name if constructors and name not in NOT_CONSTRUCTORS else None
            _replace_everywhere(fn, tracer.span(fn, key, constructor=ctor))


def _wrap_member(cls, name, make):
    member = cls.__dict__[name]
    if isinstance(member, staticmethod):
        setattr(cls, name, staticmethod(make(member.__func__)))
    elif isinstance(member, property):
        setattr(cls, name, property(make(member.fget)))
    else:
        setattr(cls, name, make(member))


def install(tracer: Tracer) -> None:
    """Wrap the public API of every scepoly layer (call once per process)."""
    from scepoly import cli, families, genfunc, integrals, poly, rational, report

    for name in RATIONAL_METHODS:
        _wrap_member(rational.GaussianRational, name, lambda f: tracer.counter(f, "rational"))
    for cls_name, name, key in POLY_METHODS:
        _wrap_member(getattr(poly, cls_name), name, lambda f, key=key: tracer.counter(f, key))

    _wrap_functions(tracer, families, FAMILY_FUNCTIONS, constructors=True)
    _wrap_functions(tracer, genfunc, GENFUNC_FUNCTIONS)
    for name, key in SERIES_METHODS:
        _wrap_member(genfunc.FormalSeries, name, lambda f, key=key: tracer.span(f, key))

    _wrap_functions(tracer, integrals, {k: v for k, v in INTEGRAL_FUNCTIONS.items() if k != "integrals.quad"})
    quad = integrals.quad_adaptive
    _replace_everywhere(
        quad,
        tracer.span(quad, "integrals.quad", after=lambda r: tracer.add("integrals.quad.evals", r.evaluations)),
    )

    def count_entries(result):
        tracer.add("report.entries", len(result.entries))

    for name in REPORT_MEMBERS:
        after = count_entries if name == "of" else None
        _wrap_member(report.CheckReport, name, lambda f, after=after: tracer.span(f, "report", after=after))

    _wrap_functions(
        tracer, cli, {"cli.parse": ("build_parser",), "cli.render": CLI_RENDERERS, "cli.cmd": CLI_COMMANDS}
    )
    argparse.ArgumentParser.parse_args = tracer.span(argparse.ArgumentParser.parse_args, "cli.parse")
    for name, fn in list(cli.VERIFY_SUITES.items()):
        key = f"suite.{name}"

        def count_ids(result, key=key):
            tracer.add(f"{key}.ids", len(result.entries))

        cli.VERIFY_SUITES[name] = tracer.span(fn, key, after=count_ids, inclusive=True)
