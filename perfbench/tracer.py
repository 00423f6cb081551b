"""In-memory span tracer for the traced benchmark run.

The tracer wraps module-level bindings of the lightsout package from the
outside: nothing in ``src/`` knows it is being traced.  Each wrapper records
a span ``[name, start_ns, end_ns, parent_index]``; wrappers can also record
an input key (for ``repeat_share``) and a work count (bits fed to the GF(2)
kernel).  ``Tracer.restore`` puts every original object back.

A wrapper only sees calls that go through the binding it replaced, so each
layer is wrapped where its callers look it up: ``snf.smith_normal_form`` is
called by ``snf.invariant_factors`` through the ``snf`` module globals, and
``formulas`` calls ``poly_gcd`` through its own imported name.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

_now = time.perf_counter_ns


def matrix_key(M) -> tuple:
    """Hashable value of a PrimeFieldMatrix or a nested list of integers."""
    if hasattr(M, "to_lists"):
        return (M.p, tuple(map(tuple, M.to_lists())))
    return tuple(map(tuple, M))


def _key_one(A, *rest, **kwargs):
    return (matrix_key(A), rest)


def _key_two(A, B, *rest, **kwargs):
    return (matrix_key(A), matrix_key(B), rest)


def _echelon_bits_work(rows, ncols, *rest, **kwargs):
    return len(rows) * ncols


#: (module, attribute, layer name, input key or None, work count or None).
#: ``formulas.poly_gcd`` and ``formulas.charpoly_oracle`` are the names the
#: ``formulas`` module imported; they report under their defining modules.
LAYERS = (
    ("lightsout.cli", "run", "cli.run", None, None),
    ("lightsout.game", "build_family", "game.build_family", None, None),
    ("lightsout.game", "switching_matrix", "game.switching_matrix", None, None),
    ("lightsout.game", "sylvester_solve", "game.sylvester_solve", None, None),
    ("lightsout.formulas", "nullity_snf_product", "formulas.nullity_snf_product", None, None),
    ("lightsout.formulas", "gcd_lower_bound", "formulas.gcd_lower_bound", None, None),
    ("lightsout.formulas", "oracle_nullity", "formulas.oracle_nullity", None, None),
    ("lightsout.formulas", "poly_gcd", "gfpoly.poly_gcd", None, None),
    ("lightsout.formulas", "charpoly_oracle", "snf.charpoly_oracle", _key_one, None),
    ("lightsout.snf", "invariant_factors", "snf.invariant_factors", _key_one, None),
    ("lightsout.snf", "char_matrix", "snf.char_matrix", None, None),
    ("lightsout.snf", "smith_normal_form", "snf.smith_normal_form", None, None),
    ("lightsout.snf", "charpoly_oracle", "snf.charpoly_oracle", _key_one, None),
    ("lightsout.gfmat", "sylvester_operator", "gfmat.sylvester_operator", _key_two, None),
    ("lightsout.gfmat", "rank_nullity", "gfmat.rank_nullity", None, None),
    ("lightsout.gfmat", "solve", "gfmat.solve", None, None),
    ("lightsout._gf2kernel", "echelon_bits", "gf2kernel.echelon_bits", None, _echelon_bits_work),
)

#: Counted, not timed: every Poly construction goes through Poly.__init__.
COUNTERS = (("lightsout.gfpoly", "Poly", "__init__", "gfpoly.Poly.constructed"),)


class Tracer:
    """Spans, counters and repeated-input tallies for one traced pass.

    Distinct inputs are counted per root span (one CLI invocation), so
    ``repeat_share`` measures the work a per-invocation cache could skip.
    Use as a context manager, or call ``install`` and ``restore``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.work: Counter = Counter()
        self.repeats: Counter = Counter()
        self._seen: defaultdict[str, set] = defaultdict(set)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, key=None, work=None) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span per call."""
        original = getattr(owner, attr)
        spans, stack, seen = self.spans, self._stack, self._seen
        repeats, work_done = self.repeats, self.work

        def traced(*args, **kwargs):
            if not stack:
                seen.clear()
            span = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = _now()
            try:
                return original(*args, **kwargs)
            finally:
                span[2] = _now()
                stack.pop()
                if key is not None:
                    k = key(*args, **kwargs)
                    if k in seen[name]:
                        repeats[name] += 1
                    else:
                        seen[name].add(k)
                if work is not None:
                    work_done[name] += work(*args, **kwargs)

        self._patch(owner, attr, original, traced)

    def count(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a wrapper that only counts calls."""
        original = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, original, counted)

    def _patch(self, owner, attr: str, original, replacement) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        """Wrap every binding in LAYERS and COUNTERS."""
        for module, attr, name, key, work in LAYERS:
            self.wrap(importlib.import_module(module), attr, name, key, work)
        for module, cls, attr, name in COUNTERS:
            self.count(getattr(importlib.import_module(module), cls), attr, name)
        return self

    def restore(self) -> None:
        """Put every original binding back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def summary(self) -> dict[str, float]:
        """Per-layer metrics for everything recorded so far."""
        calls: Counter = Counter(span[0] for span in self.spans)
        self_ns: Counter = Counter()
        for span, own in zip(self.spans, self_times(self.spans)):
            self_ns[span[0]] += own
        out: dict[str, float] = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_ns[name] / 1e9
        for module, attr, name, key, work in LAYERS:
            if key is not None:
                out[f"{name}.repeat_share"] = (
                    self.repeats[name] / calls[name] if calls[name] else 0.0
                )
            if work is not None:
                seconds = self_ns[name] / 1e9
                out[f"{name}.bits"] = self.work[name]
                out[f"{name}.bits_per_s"] = self.work[name] / seconds if seconds else 0.0
        out.update(self.counts)
        return out


def self_times(spans: list[list]) -> list[int]:
    """Self time of each span in ns: its duration minus its children's durations.

    Calls are synchronous and single-threaded, so children never overlap
    each other and lie inside their parent.
    """
    child_ns = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    return [end - start - child_ns[i] for i, (_, start, end, _) in enumerate(spans)]


def per_root(spans: list[list]) -> list[dict[str, float]]:
    """Self seconds by layer under each root span, in call order."""
    roots: list[dict[str, float]] = []
    for span, own in zip(spans, self_times(spans)):
        if span[3] < 0:
            roots.append(Counter())
        roots[-1][span[0]] += own / 1e9
    return [dict(r) for r in roots]
