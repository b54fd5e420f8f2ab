"""In-memory spans and counts around the library's public entry points.

``Tracer.install`` replaces each entry point at every binding site inside the
``shapeapprox`` package (``operators.build_generator`` as well as
``generator.build_generator``, ``best_approx.solve_lp``, ...) with a wrapper
that records a span ``[name, start, end, parent, task]`` and updates counts;
``uninstall`` puts the originals back. The library source is not modified.
"""
from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import Counter

from shapeapprox import (
    best_approx,
    generator,
    moduli,
    operators,
    polynomial,
    shape,
    simplex,
    special,
)


def _count_build(counts, fn, args, kwargs, result, before):
    after = fn.cache_info().misses if hasattr(fn, "cache_info") else None
    built = after is None or after > before
    if not built:
        return
    counts["generator.builds"] += 1
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        asked = bound.arguments.get("prec_bits")
    except (TypeError, ValueError):
        asked = None
    used = getattr(result, "precision_bits", None)
    if asked and used and used > asked:
        counts["generator.escalations"] += round(math.log2(used / asked))


def _count_mn(counts, fn, args, kwargs, result, before):
    counts["operators.fallbacks"] += bool(result.used_fallback)


def _count_shape(counts, fn, args, kwargs, result, before):
    counts["shape.certificates"] += bool(result.bernstein_certificate)


def _count_lp(counts, fn, args, kwargs, result, before):
    counts["simplex.iterations"] += result.iterations
    counts["simplex.rows_solved"] += len(args[1])


def _count_approx(counts, fn, args, kwargs, result, before):
    counts["best_approx.unvalidated"] += not result.constraint_validated


# (owner, attribute, span name, counter); a span name of None makes a
# count-only wrapper, for genuine_durrmeyer_image, which runs too often for spans
def _targets():
    poly = polynomial.Polynomial
    return [
        (poly, "to_bernstein", "polynomial.to_bernstein", None),
        (poly, "__mul__", "polynomial.mul", None),
        (poly, "__rmul__", "polynomial.mul", None),
        (special, "tau", "special.tau", None),
        (generator, "build_generator", "generator.build_generator", _count_build),
        (operators, "mn_image", "operators.mn_image", _count_mn),
        (operators, "gavrea_image", "operators.gavrea_image", None),
        (operators, "genuine_durrmeyer_image", None, None),
        (shape, "check_k_monotone_poly", "shape.check_k_monotone_poly", _count_shape),
        (simplex, "solve_lp", "simplex.solve_lp", _count_lp),
        (best_approx, "best_uniform", "best_approx.best_uniform", _count_approx),
        (best_approx, "best_qmonotone", "best_approx.best_qmonotone", _count_approx),
        (moduli, "omega_dt", "moduli.omega_dt", None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.task = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------
    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), None, parent, self.task]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, counter):
        tracer = self

        if name is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.counts["operators.u_images"] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = fn.cache_info().misses if hasattr(fn, "cache_info") else None
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            tracer.counts[name + ".calls"] += 1
            if counter is not None:
                counter(tracer.counts, fn, args, kwargs, result, before)
            return result
        return wrapper

    # -- patching ------------------------------------------------------
    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "shapeapprox" or k.startswith("shapeapprox."))]
        for owner, attr, name, counter in _targets():
            orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if orig is None:
                continue
            wrapped = self._wrap(name, orig, counter)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- summary -------------------------------------------------------
    def self_times(self) -> Counter:
        """Per span name: summed duration minus the time covered by direct
        children."""
        total = Counter()
        child = Counter()
        for name, start, end, parent, _task in self.spans:
            dur = end - start
            total[name] += dur
            if parent is not None:
                child[parent] += dur
        for i, (name, start, end, _parent, _task) in enumerate(self.spans):
            total[name] -= child.get(i, 0.0)
        return total
