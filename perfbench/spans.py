"""Outside-in tracing for the benchmark's traced run.

``install()`` wraps the public functions of ``ringkt.abgrp``,
``ringkt.ktheory`` and ``ringkt.numfield`` and the ``sympy`` entry points
they call.  Every wrapper records a span (calls, total time, self time) in a
``Tracer``; a few spans also record counts that show the work the arguments
imply (``madds`` of a product, ``cells`` of an elimination, bit sizes).

Nothing under ``src/`` changes: wrappers replace each name in every loaded
``ringkt`` namespace that bound the original object (``ktheory`` imports
``mat_mul`` and friends by name, ``numfield`` imports ``determinant``), the
class attributes ``KappaMatrix.dense``, ``EndoBlocks.build`` and the
``NumberField`` members, and the functions on the ``sympy`` module, which
``numfield`` looks up at call time.
"""

import functools
import importlib
import importlib.abc
import importlib.util
import sys
import time

CTS = ("calls", "total_s", "self_s")
CT = ("calls", "total_s")

# (module, attribute path, extra-count kind, reported stats).  A dotted path
# names a class member.
TRACED = [
    ("abgrp", "colimit", None, CTS),
    ("abgrp", "identified", None, CTS),
    ("abgrp", "mat_mul", "madds", CT + ("madds",)),
    ("abgrp", "rank", "cells", CT + ("cells",)),
    ("abgrp", "rref_fractions", "cells", CT + ("cells",)),
    ("abgrp", "solve_exact", None, CTS),
    ("abgrp", "determinant", None, CT),
    ("abgrp", "smith_normal_form", "snf_bits", CT + ("max_bits",)),
    ("abgrp", "cokernel", None, CTS),
    ("abgrp", "kernel_lattice_basis", None, CT),
    ("abgrp", "invariant_factors", "order_bits", CT + ("max_bits",)),
    ("ktheory", "k_of_B0", None, CTS),
    ("ktheory", "k_of_A0", None, CTS),
    ("ktheory", "pv_step", None, CTS),
    ("ktheory", "k_of_A_truncated_Q", None, CTS),
    ("ktheory", "classify_A", None, CTS),
    ("ktheory", "classify_B", None, CTS),
    ("ktheory", "EndoBlocks.build", None, CTS),
    ("ktheory", "kappa", None, CT),
    ("ktheory", "KappaMatrix.dense", "dense_cells", CT + ("cells",)),
    ("numfield", "parse_field", None, CT),
    ("numfield", "signature", None, CT),
    ("numfield", "isolate_real_roots", None, CT),
    ("numfield", "NumberField.real_sign_vector", None, CT),
    ("numfield", "fundamental_unit_real_quadratic", None, CT),
    ("numfield", "NumberField.residue_system", None, CT),
    ("numfield", "NumberField.roots_of_unity_order", None,
     CTS + ("exact_tests_per_call", "sieve_primes_per_call")),
    ("sympy", "factor_list", None, CT),
    ("sympy", "resultant", None, CT),
    ("sympy", "gcd", None, CT),
    ("sympy", "cyclotomic_poly", None, CT),
    ("sympy", "nextprime", None, CT),
    ("sympy", "Matrix.eigenvects", None, CT),
    ("sympy", "Poly.is_irreducible", None, CT),
]

UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "madds": "count",
         "cells": "count", "max_bits": "bits", "exact_tests_per_call": "count",
         "sieve_primes_per_call": "count"}


def span_name(module, path):
    """Metric prefix of a span.  ``NumberField`` members are reported under
    the module-level operation name that delegates to them."""
    if module == "numfield" and path.startswith("NumberField."):
        return "numfield." + path.split(".", 1)[1]
    return f"{module}.{path}"


def layer_metrics(stats):
    """Every per-layer span metric as {name: (value, unit)}; absent spans read 0."""
    out = {}
    for module, path, _, reported in TRACED:
        name = span_name(module, path)
        st = stats.get(name, {})
        calls = st.get("calls", 0)
        for stat in reported:
            if stat.endswith("_per_call"):
                value = st.get(stat[: -len("_per_call")], 0) / calls if calls else 0.0
            else:
                value = st.get(stat, 0)
            out[f"{name}.{stat}"] = (value, UNITS[stat])
    return out


ROOTS_SPAN = "numfield.roots_of_unity_order"


def _bits(matrix):
    return max((abs(x).bit_length() for row in matrix for x in row), default=0)


def _shape(a):
    return len(a), (len(a[0]) if a else 0)


def _extra(kind, args, result):
    """(counter name, value, combine) for the counted spans."""
    if kind == "madds":
        m, n = _shape(args[0])
        p = len(args[1][0]) if args[1] else 0
        return "madds", m * n * p, "sum"
    if kind == "cells":
        m, n = _shape(args[0])
        return "cells", m * n, "sum"
    if kind == "dense_cells":
        size = len(result)
        return "cells", size * size, "sum"
    if kind == "snf_bits":
        u, _, v = result
        return "max_bits", max(_bits(u), _bits(v)), "max"
    if kind == "order_bits":
        return "max_bits", max((abs(int(x)).bit_length() for x in args[0]), default=0), "max"
    raise ValueError(kind)


class Tracer:
    """Span aggregates: per name, calls, total time, self time and counters.

    Self time is a span's duration minus the time its child spans cover.
    ``roots_depth`` counts open ``roots_of_unity_order`` spans, so sympy calls
    made inside them can be attributed to that span.  ``clock`` times the
    spans; the traced run passes ``refclock.Sampler.net_clock``, so the
    calibration samples taken inside a span do not count as its time.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        self.stack = []
        self.roots_depth = 0

    def _stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        return st

    def wrap(self, name, fn, kind):
        tracer = self
        is_roots = name == ROOTS_SPAN
        inner_counter = {"sympy.cyclotomic_poly": "exact_tests",
                         "sympy.nextprime": "sieve_primes"}.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if inner_counter and tracer.roots_depth:
                st = tracer._stat(ROOTS_SPAN)
                st[inner_counter] = st.get(inner_counter, 0) + 1
            frame = [0.0]
            tracer.stack.append(frame)
            if is_roots:
                tracer.roots_depth += 1
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer.clock() - start
                tracer.stack.pop()
                if is_roots:
                    tracer.roots_depth -= 1
                if tracer.stack:
                    tracer.stack[-1][0] += dur
                st = tracer._stat(name)
                st["calls"] += 1
                st["total_s"] += dur
                st["self_s"] += dur - frame[0]
            if kind is not None:
                key, value, combine = _extra(kind, args, result)
                if combine == "sum":
                    st[key] = st.get(key, 0) + value
                else:
                    st[key] = max(st.get(key, 0), value)
            return result

        return traced


def _resolve(module, path):
    """(owner object, attribute name) for a traced path."""
    owner = importlib.import_module("sympy" if module == "sympy" else f"ringkt.{module}")
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class _PatchAfterImport(importlib.abc.MetaPathFinder):
    """Runs ``patch`` right after the first import of ``name``.

    ``ringkt`` imports sympy lazily; a CLI verb that never needs it must not
    pay for importing it just because tracing is on.
    """

    def __init__(self, name, patch):
        self.name = name
        self.patch = patch

    def find_spec(self, name, path=None, target=None):
        if name != self.name:
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(name)
        exec_module = spec.loader.exec_module

        def exec_then_patch(module):
            exec_module(module)
            self.patch()

        spec.loader.exec_module = exec_then_patch
        return spec


def install(tracer):
    """Replace every traced callable with a span-recording wrapper.

    The sympy entry points are wrapped now if sympy is loaded, otherwise
    right after its first import.  Returns an ``uninstall`` callable that
    restores the originals.
    """
    import ringkt  # noqa: F401  (loads every ringkt submodule)

    restore = []
    ringkt_modules = [m for name, m in sys.modules.items()
                      if m is not None and (name == "ringkt" or name.startswith("ringkt."))]

    def patch(modules):
        for module, path, kind, _ in TRACED:
            if module not in modules:
                continue
            owner, attr = _resolve(module, path)
            name = span_name(module, path)
            if isinstance(owner, type):
                # The raw descriptor, which may live on a base class.
                raw = next(vars(k)[attr] for k in owner.__mro__ if attr in vars(k))
            else:
                raw = getattr(owner, attr)
            if isinstance(raw, property):
                new = property(tracer.wrap(name, raw.fget, kind))
            elif isinstance(raw, classmethod):
                new = classmethod(tracer.wrap(name, raw.__func__, kind))
            else:
                new = tracer.wrap(name, raw, kind)
            restore.append((owner, attr, raw, attr in vars(owner)))
            setattr(owner, attr, new)
            if isinstance(owner, type):
                continue
            # Rebind the name in every other ringkt namespace that imported it.
            for mod in ringkt_modules:
                if mod is owner:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        restore.append((mod, key, raw, True))
                        setattr(mod, key, new)

    patch(("abgrp", "ktheory", "numfield"))
    if "sympy" in sys.modules:
        patch(("sympy",))
    else:
        sys.meta_path.insert(0, _PatchAfterImport("sympy", lambda: patch(("sympy",))))

    def uninstall():
        for owner, attr, raw, had in reversed(restore):
            if had:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    return uninstall


def merge(into, stats):
    """Add one tracer's aggregates (e.g. from a CLI child) into ``into``."""
    for name, st in stats.items():
        acc = into.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key, value in st.items():
            if key == "max_bits":
                acc[key] = max(acc.get(key, 0), value)
            else:
                acc[key] = acc.get(key, 0) + value
