"""Spans around the package's public calls, recorded from the benchmark side.

The tracer replaces module attributes with timing wrappers, so every caller
that resolves the function through a module global (``billiard.solve_sector``
calling ``assemble``, ``cli`` calling ``B.convergence_study``, ``exact``
calling its imported ``gram_inner``) goes through the span.  Aliases of the
same function object in other package modules are patched as well.  Spans
stay in memory until the child process writes them out.
"""

from __future__ import annotations

import functools
import inspect
import os
import resource
import sys
import threading
import time

PACKAGE = "kaleidobilliards"

# (module, attribute, span name, kind); functions sharing a span name form one
# layer metric, and a span nested inside a span of the same name is not
# counted twice
TRACED = (
    ("cli", "main", "cli.main", "call"),
    ("masses", "generate_family", "masses.family", "call"),
    ("masses", "symmetric_member", "masses.family", "call"),
    ("masses", "feasibility_interval", "masses.family", "call"),
    ("geometry", "sector_geometry", "geometry.sector_geometry", "call"),
    ("billiard", "flatten_sector", "billiard.flatten", "call"),
    ("billiard", "sector_from_inward_normals", "billiard.flatten", "call"),
    ("billiard", "octant_sector", "billiard.flatten", "call"),
    ("billiard", "assemble", "billiard.assemble", "call"),
    ("billiard", "solve_spectrum", "billiard.solve_spectrum", "call"),
    ("billiard", "solve_sector", "billiard.solve_sector", "call"),
    ("billiard", "convergence_study", "billiard.convergence_study", "call"),
    ("stats", "unfold", "stats.unfold", "call"),
    ("stats", "spacing_histogram", "stats.spacing_histogram", "call"),
    ("stats", "weyl_residuals", "stats.weyl_residuals", "call"),
    ("groups", "generate_group", "groups.generate_group", "call"),
    ("groups", "conjugacy_classes", "groups.conjugacy_classes", "call"),
    ("groups", "degeneracy", "groups.degeneracy", "call"),
    ("exact", "projection_tables", "exact.projection_tables", "call"),
    ("exact", "excited_basis", "exact.excited_basis", "call"),
    ("polynomials", "gram_inner", "polynomials.gram_inner", "call"),
    ("polynomials", "iter_monomial_images", "polynomials.monomial_images", "generator"),
)


def current_rss_mb() -> float:
    """Resident set size of this process now (peak RSS if /proc is absent)."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Records (id, name, start, end, parent) spans and per-call samples."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.samples: dict[str, list] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str):
        stack = self._stack()
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(None)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def _close(self, span_id: int, name: str, parent, start: float) -> None:
        end = time.perf_counter()
        self._stack().pop()
        self.spans[span_id] = (span_id, name, start, end, parent)

    def sample(self, key: str, value) -> None:
        with self._lock:
            self.samples.setdefault(key, []).append(value)

    def _wrap_call(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id, parent, start = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span_id, name, parent, start)
            try:
                self._after(name, args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError):
                pass  # a changed signature loses the sample, not the span
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                span_id, parent, start = self._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(span_id, name, parent, start)
                yield item

        return wrapper

    def _after(self, name: str, args, kwargs, result) -> None:
        if name == "billiard.assemble":
            trunc = args[1] if len(args) > 1 else kwargs["trunc"]
            order = args[2] if len(args) > 2 else kwargs["quadrature_order"]
            self.sample("assemble.rss_mb", current_rss_mb())
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            self.sample("assemble.peak_rss_mb", peak)
            self.sample("assemble.basis_size", len(trunc))
            self.sample("assemble.quad_order", int(order))
        elif name == "billiard.convergence_study":
            k = args[2] if len(args) > 2 else kwargs["k"]
            self.sample("convergence.converged", int(result.converged_count))
            self.sample("convergence.k", int(k))
        elif name == "exact.excited_basis":
            lam = args[0] if args else kwargs["lam"]
            self.sample("excited.candidates", 2 * int(lam) + 1)
            self.sample("excited.states", len(result))

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function and its aliases in loaded package modules."""
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for mod_name, attr, name, kind in TRACED:
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(home, attr, None)
            if original is None:  # a layer that no longer exists reports 0
                continue
            generator = kind == "generator" and inspect.isgeneratorfunction(original)
            make = self._wrap_generator if generator else self._wrap_call
            wrapper = make(name, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def finished_spans(self) -> list:
        return [s for s in self.spans if s is not None]

    def layer_times(self) -> dict:
        """Per span name: inclusive time, self time and call count."""
        spans = self.finished_spans()
        by_id = {s[0]: s for s in spans}
        child_time: dict[int, float] = {}
        for span_id, _, start, end, parent in spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out: dict[str, dict] = {}
        for span_id, name, start, end, parent in spans:
            entry = out.setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0})
            entry["calls"] += 1
            entry["self"] += (end - start) - child_time.get(span_id, 0.0)
            ancestor = parent
            while ancestor is not None and by_id[ancestor][1] != name:
                ancestor = by_id[ancestor][4]
            if ancestor is None:
                entry["total"] += end - start
        return out
