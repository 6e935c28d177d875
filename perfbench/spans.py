"""Span tracing of qdissect's entry points, done from outside the package.

`install()` replaces each target function, in every loaded qdissect
module that binds it, and each target method, on its class, with a
wrapper that times the call while the tracer is active. Totals stay in
memory: per span a call count, a self time (duration minus the time
covered by child spans) and a few work counters. A target that no longer
exists is listed in `Tracer.absent` and its span stays empty, so the
traced run keeps working when the package is refactored.

Tracing is single-threaded: calls from other threads run untimed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

LAYER_MODULES = ("cli", "dissect", "eta", "series", "schur", "congruences", "aaw")

# span name -> work counters it carries besides calls and self_s
SPANS = {
    "series.mul_zz": ("terms", "mbit"),
    "series.mul_mod": ("terms", "mbit"),
    "series.inv_zz": ("terms", "mbit"),
    "series.inv_mod": ("terms", "mbit"),
    "eta.parse": (),
    "eta.expand_expression": (),
    "eta.expand_quotient": (),
    "eta.expand_eta": (),
    "schur.residue_table_pow2": ("terms",),
    "schur.residue_table_other": ("terms",),
    "schur.s_series": ("terms", "cache_hits", "cache_misses"),
    "schur.save_table": (),
    "schur.load_table": (),
    "dissect.verify_catalog": (),
    "dissect.verify_identity": (),
    "dissect.root_series": ("terms",),
    "dissect.extract": (),
    "dissect.compare_series": (),
    "congruences.scan": ("survivors",),
    "congruences.check_triple": (),
    "congruences.check_internal": (),
    "congruences.verify_family": (),
    "aaw.compute_params": (),
    "aaw.verify_param_identities": (),
    "aaw.compute_L": (),
    "aaw.verify_L_identity": (),
    "cli.main": (),
}


def metric_names() -> list[str]:
    """Every per-layer metric `Tracer.metrics` returns, in a stable order."""
    names = []
    for span, extras in SPANS.items():
        names += [f"{span}.calls", f"{span}.self_s"] + [f"{span}.{x}" for x in extras]
    names += ["eta.expand_eta.distinct_share", "schur.cache.bytes"]
    names += [f"{m}.self_s" for m in LAYER_MODULES]
    return names + ["trace.coverage", "trace.overhead_s"]


class Tracer:
    def __init__(self) -> None:
        self.totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.stack: list[list[float]] = []
        self.active = False
        self.absent: list[str] = []
        self.eta_keys: set = set()
        self.cache_bytes = 0
        self._thread = threading.get_ident()

    def call(self, name, fn, args, kwargs):
        """Run fn(*args, **kwargs) as span `name`; return (result, timed)."""
        if not self.active or threading.get_ident() != self._thread:
            return fn(*args, **kwargs), False
        frame = [0.0]
        self.stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self.stack.pop()
            if self.stack:
                self.stack[-1][0] += elapsed
            t = self.totals[name]
            t["calls"] += 1
            t["self_s"] += elapsed - frame[0]
        return result, True

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics; `trace.overhead_s` is left for the caller."""
        out = {}
        for span, extras in SPANS.items():
            t = self.totals.get(span, {})
            for key in ("calls", "self_s") + extras:
                out[f"{span}.{key}"] = float(t.get(key, 0))
        eta_calls = out["eta.expand_eta.calls"]
        out["eta.expand_eta.distinct_share"] = len(self.eta_keys) / eta_calls if eta_calls else 0.0
        out["schur.cache.bytes"] = float(self.cache_bytes)
        for m in LAYER_MODULES:
            out[f"{m}.self_s"] = sum(out[f"{s}.self_s"] for s in SPANS if s.split(".")[0] == m)
        covered = sum(out[f"{m}.self_s"] for m in LAYER_MODULES if m != "cli")
        out["trace.coverage"] = covered / wall_s if wall_s > 0 else 0.0
        return out


# -- work counters -----------------------------------------------------------


def _ring_kind(s) -> str:
    return "zz" if getattr(getattr(s, "ring", None), "modulus", None) is None else "mod"


def _max_abs(s, n: int) -> int:
    vals = getattr(s, "coeffs", None)
    vals = [s[i] for i in range(n)] if vals is None else vals[:n]
    return max(int(max(vals)), -int(min(vals)))


def _packed_mbit(n: int, a, b) -> float:
    """Kronecker-packed size of two n-term operands, in megabits (computed)."""
    bound = n * _max_abs(a, n) * _max_abs(b, n)
    if bound == 0:
        return 0.0
    return 2 * n * 8 * (bound.bit_length() // 8 + 1) / 1e6


def _binder(fn):
    """Map a call's arguments to the list of fn's parameter values."""
    sig = inspect.signature(fn)

    def bind(args, kwargs) -> list:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return list(bound.arguments.values())

    return bind


# -- wrappers ------------------------------------------------------------------


def _plain(tr: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tr.call(name, fn, args, kwargs)[0]

    return wrapper


def _with_terms(tr: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result, timed = tr.call(name, fn, args, kwargs)
        if timed:
            tr.totals[name]["terms"] += result.precision
        return result

    return wrapper


def _series_op(tr: Tracer, name: str, fn):
    """Series.__mul__ with a Series operand, or Series.inv; split by ring."""

    @functools.wraps(fn)
    def wrapper(self, *other):
        if other and not isinstance(other[0], type(self)):
            return fn(self, *other)  # scalar multiply: not a Series product
        span = f"{name}_{_ring_kind(self)}"
        result, timed = tr.call(span, fn, (self, *other), {})
        if timed:
            t = tr.totals[span]
            t["terms"] += result.precision
            # for inv, the last Newton step multiplies the input by the result
            t["mbit"] += _packed_mbit(result.precision, self, other[0] if other else result)
        return result

    return wrapper


def _expand_eta(tr: Tracer, name: str, fn):
    bind = _binder(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result, timed = tr.call(name, fn, args, kwargs)
        if timed:
            tr.eta_keys.add(tuple(bind(args, kwargs)))
        return result

    return wrapper


def _residue_table(tr: Tracer, name: str, fn):
    """Split on whether the modulus divides 256 (the byte-table path)."""
    bind = _binder(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        m = bind(args, kwargs)[1]
        span = f"{name}_pow2" if 256 % m == 0 else f"{name}_other"
        result, timed = tr.call(span, fn, args, kwargs)
        if timed:
            tr.totals[span]["terms"] += result.precision
        return result

    return wrapper


def _s_series(tr: Tracer, name: str, fn):
    """A call that saved a table missed the cache; one that only loaded hit it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        loads = tr.totals["schur.load_table"]["calls"]
        saves = tr.totals["schur.save_table"]["calls"]
        result, timed = tr.call(name, fn, args, kwargs)
        if timed:
            t = tr.totals[name]
            t["terms"] += result.precision
            if tr.totals["schur.save_table"]["calls"] > saves:
                t["cache_misses"] += 1
            elif tr.totals["schur.load_table"]["calls"] > loads:
                t["cache_hits"] += 1
        return result

    return wrapper


def _cache_io(tr: Tracer, name: str, fn):
    bind = _binder(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result, timed = tr.call(name, fn, args, kwargs)
        if timed:
            tr.cache_bytes += os.path.getsize(bind(args, kwargs)[0])
        return result

    return wrapper


def _scan(tr: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result, timed = tr.call(name, fn, args, kwargs)
        if timed:
            tr.totals[name]["survivors"] += len(result)
        return result

    return wrapper


# (module, attribute path, span name, wrapper factory)
_TARGETS = (
    ("series", "Series.__mul__", "series.mul", _series_op),
    ("series", "Series.inv", "series.inv", _series_op),
    ("eta", "parse", "eta.parse", _plain),
    ("eta", "expand_expression", "eta.expand_expression", _plain),
    ("eta", "expand_quotient", "eta.expand_quotient", _plain),
    ("eta", "expand_eta", "eta.expand_eta", _expand_eta),
    ("schur", "residue_table", "schur.residue_table", _residue_table),
    ("schur", "s_series", "schur.s_series", _s_series),
    ("schur", "save_table", "schur.save_table", _cache_io),
    ("schur", "load_table", "schur.load_table", _cache_io),
    ("dissect", "verify_catalog", "dissect.verify_catalog", _plain),
    ("dissect", "verify_identity", "dissect.verify_identity", _plain),
    ("dissect", "RootProvider.series", "dissect.root_series", _with_terms),
    ("dissect", "extract", "dissect.extract", _plain),
    ("dissect", "compare_series", "dissect.compare_series", _plain),
    ("congruences", "scan", "congruences.scan", _scan),
    ("congruences", "check_triple", "congruences.check_triple", _plain),
    ("congruences", "check_internal", "congruences.check_internal", _plain),
    ("congruences", "verify_family", "congruences.verify_family", _plain),
    ("aaw", "compute_params", "aaw.compute_params", _plain),
    ("aaw", "verify_param_identities", "aaw.verify_param_identities", _plain),
    ("aaw", "compute_L", "aaw.compute_L", _plain),
    ("aaw", "verify_L_identity", "aaw.verify_L_identity", _plain),
    ("cli", "main", "cli.main", _plain),
)


def install() -> Tracer:
    """Wrap every target that exists; the tracer starts inactive."""
    tr = Tracer()
    for module_name, path, span, factory in _TARGETS:
        try:
            owner = importlib.import_module(f"qdissect.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            tr.absent.append(f"{module_name}.{path}")
            continue
        wrapper = factory(tr, span, original)
        if outer:
            setattr(owner, attr, wrapper)
            continue
        # rebind the function wherever a qdissect module imported it
        for name, mod in list(sys.modules.items()):
            if name == "qdissect" or name.startswith("qdissect."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
    return tr
