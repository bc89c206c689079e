"""Outside-in tracing of causalqed from the benchmark process.

`install` wraps the public functions of each causalqed module (in every
module namespace that holds them) and a few methods in wrappers that
record spans, and wraps scipy's `integrate.quad` as one more boundary;
`apply` switches the wrappers on and off.
The program's source is not touched.  Spans keep (id, name, start, end,
parent); self time is a span's duration minus the time of its children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import time
import warnings
from collections import Counter, defaultdict

LAYERS = ("qed2", "splitting", "adiabatic", "induction", "wick", "grassmann",
          "fock", "distributions", "cli")

# methods traced in addition to the public module-level functions
_METHODS = {
    "qed2": {"VacuumPolarization": ("scalar_part", "tensor"),
             "SelfEnergy": ("a", "b", "a_prime_shell", "b_prime_shell")},
    "wick": {"WickPolynomial": ("relabel", "chopped")},
}

_EVAL_SPANS = ("qed2.VacuumPolarization.scalar_part", "qed2.SelfEnergy.a", "qed2.SelfEnergy.b")
_LADDER_SPANS = ("fock.apply_creation", "fock.apply_annihilation")


MAX_SPANS = 20_000  # spans kept for the trace file; counts and times cover all of them


class Tracer:
    def __init__(self):
        self.spans = []          # (id, name, start, end, parent id), the first MAX_SPANS
        self.stack = []          # open spans: [name, start, child seconds, id]
        self.next_id = 0
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.quad_abserr_max = 0.0
        self.quad_by_parent = defaultdict(lambda: [0, 0, 0.0])  # calls, warnings, max abserr
        self.job_wall_s = 0.0

    # spans -------------------------------------------------------------------
    def enter(self, name: str):
        sid = self.next_id
        self.next_id += 1
        self.stack.append([name, time.perf_counter(), 0.0, sid])

    def exit(self):
        name, start, child, sid = self.stack.pop()
        end = time.perf_counter()
        dur = end - start
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        if len(self.spans) < MAX_SPANS:
            self.spans.append((sid, name, start, end, parent[3] if parent else None))
        return dur

    def enclosing_layer(self) -> str:
        return self.stack[-1][0].split(".")[0] if self.stack else "-"

    @contextlib.contextmanager
    def span(self, name):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    # wrappers ----------------------------------------------------------------
    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return traced

    def wrap_ladder(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(mode, state):
            tracer.counts["fock.amplitudes_touched"] += len(state.amplitudes)
            tracer.enter(name)
            try:
                return fn(mode, state)
            finally:
                tracer.exit()

        return traced

    def wrap_split(self, name, fn):
        tracer = self
        traced_split = self.wrap(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = traced_split(*args, **kwargs)
            result.retarded.eval_fn = tracer.wrap("splitting.ret_eval", result.retarded.eval_fn)
            result.advanced.eval_fn = tracer.wrap("splitting.ret_eval", result.advanced.eval_fn)
            return result

        return traced

    def wrap_poly_init(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(poly, monomials=()):
            if not hasattr(monomials, "__len__"):
                monomials = list(monomials)
            tracer.counts["wick.monomials_in"] += len(monomials)
            tracer.enter("wick.WickPolynomial")
            try:
                fn(poly, monomials)
            finally:
                tracer.exit()
            tracer.counts["wick.terms_out"] += len(poly._terms)

        return traced

    def wrap_counting_generator(self, counter, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for item in fn(*args, **kwargs):
                tracer.counts[counter] += 1
                yield item

        return traced

    def wrap_quad(self, fn):
        from scipy.integrate import IntegrationWarning

        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.enclosing_layer()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", IntegrationWarning)
                tracer.enter("quad")
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.exit()
            n_warn = sum(1 for w in caught if issubclass(w.category, IntegrationWarning))
            abserr = float(result[1])
            entry = tracer.quad_by_parent[parent]
            entry[0] += 1
            entry[1] += n_warn
            if math.isfinite(abserr):
                entry[2] = max(entry[2], abserr)
                tracer.quad_abserr_max = max(tracer.quad_abserr_max, abserr)
            tracer.counts["quad.warnings"] += n_warn
            return result

        return traced


def install(tracer: Tracer):
    """Wrap causalqed's public functions and scipy's quad for this process.

    Returns the list of (owner, attribute, original, wrapper) patches, which
    `apply` switches on and off.
    """
    from scipy import integrate

    mods = {name: importlib.import_module(f"causalqed.{name}") for name in LAYERS}
    wrappers = {}  # id(original function) -> wrapper
    patches = []

    for layer, mod in mods.items():
        for attr, value in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if value.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            if name in _LADDER_SPANS:
                wrappers[id(value)] = tracer.wrap_ladder(name, value)
            elif name == "splitting.split":
                wrappers[id(value)] = tracer.wrap_split(name, value)
            else:
                wrappers[id(value)] = tracer.wrap(name, value)
        for cls_name, methods in _METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                fn = getattr(cls, meth)
                patches.append((cls, meth, fn, tracer.wrap(f"{layer}.{cls_name}.{meth}", fn)))

    # every module namespace that holds a wrapped function gets the wrapper
    for mod in mods.values():
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers and inspect.isfunction(value):
                patches.append((mod, attr, value, wrappers[id(value)]))

    wick, induction = mods["wick"], mods["induction"]
    init = wick.WickPolynomial.__init__
    patches.append((wick.WickPolynomial, "__init__", init, tracer.wrap_poly_init(init)))
    parts = induction._proper_partitions
    patches.append((induction, "_proper_partitions", parts,
                    tracer.wrap_counting_generator("induction.partition_steps", parts)))
    patches.append((integrate, "quad", integrate.quad, tracer.wrap_quad(integrate.quad)))
    return patches


def apply(patches, on: bool):
    for owner, attr, original, wrapper in patches:
        setattr(owner, attr, wrapper if on else original)


def _sum(mapping, names):
    return sum(mapping.get(n, 0) for n in names)


def _layer_sum(mapping, layer):
    return sum(v for k, v in mapping.items() if k.split(".")[0] == layer)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics by the names listed in BENCHMARK.json."""
    c, tot, slf = tracer.calls, tracer.total_s, tracer.self_s
    out = {
        "qed2.rho_calls": c["qed2.causal_imaginary_part"],
        "qed2.rho_self_s": slf["qed2.causal_imaginary_part"],
        "qed2.eval_calls": _sum(c, _EVAL_SPANS),
        "qed2.eval_self_s": _sum(slf, _EVAL_SPANS),
        "qed2.build_s": tot["qed2.build_vacuum_polarization"] + tot["qed2.build_self_energy"],
        "quad.calls": c["quad"],
        "quad.self_s": slf["quad"],
        "quad.warnings": tracer.counts["quad.warnings"],
        "quad.abserr_max": tracer.quad_abserr_max,
        "splitting.split_calls": c["splitting.split"],
        "splitting.ret_eval_calls": c["splitting.ret_eval"],
        "splitting.ret_eval_s": tot["splitting.ret_eval"],
        "induction.window_smear_calls": c["induction.window_smear"],
        "adiabatic.smeared_calls": c["adiabatic.smeared_contribution"],
        "adiabatic.sweep_s": tot["adiabatic.sweep"],
        "adiabatic.weak_limit_s": tot["adiabatic.weak_limit_vacuum"],
        "wick.operator_product_calls": c["wick.operator_product"],
        "wick.operator_product_s": tot["wick.operator_product"],
        "wick.poly_builds": c["wick.WickPolynomial"],
        "wick.monomials_in": tracer.counts["wick.monomials_in"],
        "wick.merge_ratio": (tracer.counts["wick.terms_out"] / tracer.counts["wick.monomials_in"]
                             if tracer.counts["wick.monomials_in"] else 0.0),
        "induction.extend_series_s": tot["induction.extend_series"],
        "induction.partition_steps": tracer.counts["induction.partition_steps"],
        "grassmann.reorder_sign_calls": c["grassmann.reorder_sign"],
        "grassmann.reorder_sign_s": tot["grassmann.reorder_sign"],
        "fock.ladder_calls": _sum(c, _LADDER_SPANS),
        "fock.amplitudes_touched": tracer.counts["fock.amplitudes_touched"],
        "fock.ladder_s": _sum(tot, _LADDER_SPANS),
        "fock.apply_kernel_s": tot["fock.apply_kernel"],
        "fock.xi_matrix_element_s": tot["fock.xi_matrix_element"],
        "fock.commutator_check_s": tot["fock.commutator_check"],
        "adiabatic.product_of_limits_s": tot["adiabatic.product_of_limits"],
        "distributions.scaling_degree_s": tot["distributions.scaling_degree_estimate"],
    }
    for layer in LAYERS + ("oracle",):
        out[f"{layer}.self_s"] = _layer_sum(slf, layer)
    return out


def accounting(tracer: Tracer) -> dict:
    """How the traced job wall time splits into span self times.

    Every second of a job lies in exactly one span's self time, so the
    self times sum to the job wall time; the job spans' own self time is
    harness glue outside any layer or oracle.
    """
    all_self = sum(tracer.self_s.values())
    glue = _layer_sum(tracer.self_s, "job")
    wall = tracer.job_wall_s
    return {
        "self_sum_s": all_self,
        "job_wall_s": wall,
        "sum_matches": abs(all_self - wall) <= 1e-6 * max(wall, 1.0),
        "accounted_frac": (1.0 - glue / wall) if wall > 0 else 0.0,
    }
