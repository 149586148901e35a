"""Per-layer spans around calls into pplab.

pplab modules import their helpers with `from .x import y`, so wrapping a
function only where it is defined would miss its callers. `Tracer.install`
rebinds every pplab module attribute that holds a traced function, and
patches methods on their class; `uninstall` puts the originals back.

Each span adds its duration to the layer's total, and its duration less that
of the traced spans it encloses to the layer's self time. Counters run after
the span has closed and are charged to no span, so their cost shows in
`trace.uncovered_share`, not in any layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _rref_counts(counts: dict, args: tuple, kwargs: dict, result) -> None:
    m = _arg(args, kwargs, 0, "m")
    counts["cells"] = counts.get("cells", 0) + m.rows * m.cols
    bits = max(
        (max(x.numerator.bit_length(), x.denominator.bit_length()) for x in result.matrix.entries),
        default=0,
    )
    counts["out_bits_max"] = max(counts.get("out_bits_max", 0), bits)


def _image_terms(counts: dict, args: tuple, kwargs: dict, result) -> None:
    terms = sum(len(image) for level in result for image in level.values())
    counts["terms"] = counts.get("terms", 0) + terms


def _h0_counts(counts: dict, args: tuple, kwargs: dict, result) -> None:
    data = _arg(args, kwargs, 0, "data")
    bound = _arg(args, kwargs, 2, "degree_bound")
    counts["unknowns_sum"] = counts.get("unknowns_sum", 0) + data.rank * (bound + 1)
    counts["degree_bound_max"] = max(counts.get("degree_bound_max", 0), bound)


def _rank_rows(counts: dict, args: tuple, kwargs: dict, result) -> None:
    counts["rows_sum"] = counts.get("rows_sum", 0) + len(_arg(args, kwargs, 0, "rows"))


Counter = Callable[[dict, tuple, dict, object], None]
TIME = ("calls", "self_s")

# (layer name, defining module, attribute or Class.method, counter, the
# fields the benchmark reports for the layer). Besides the span's calls and
# self_s and the counter's keys, `per_triple` and `per_split` are calls per
# (N, n, k) triple and per splitting_type call.
LAYERS: tuple[tuple[str, str, str, Counter | None, tuple[str, ...]], ...] = (
    ("linalg.rref", "pplab.linalg", "rref", _rref_counts, (*TIME, "cells", "out_bits_max")),
    ("linalg.from_vectors", "pplab.linalg", "Subspace.from_vectors", None, TIME),
    ("linalg.kernel_basis", "pplab.linalg", "kernel_basis", None, TIME),
    ("linalg.inverse", "pplab.linalg", "RationalMatrix.inverse", None, TIME),
    ("linalg.det", "pplab.linalg", "RationalMatrix.det", None, TIME),
    ("symspace.m_power_subspace", "pplab.symspace", "m_power_subspace", None, (*TIME, "per_triple")),
    ("parabolic.random_element", "pplab.parabolic", "_parabolic_from_rng", None, TIME),
    ("parabolic.scaled_inverse", "pplab.parabolic", "_scaled_inverse_rows", None, TIME),
    (
        "parabolic.substitution_images",
        "pplab.parabolic",
        "_substitution_images",
        _image_terms,
        (*TIME, "terms"),
    ),
    ("jetmap.trial_checks", "pplab.jetmap", "_trial_checks", None, TIME),
    ("jetmap.verify_jet_representation", "pplab.jetmap", "verify_jet_representation", None, TIME),
    ("jetmap.x0_derivative_matrix", "pplab.jetmap", "x0_derivative_matrix", None, (*TIME, "per_triple")),
    ("jetmap.verify_kernel", "pplab.jetmap", "verify_kernel", None, TIME),
    ("jetmap.exact_sequence_check", "pplab.jetmap", "exact_sequence_check", None, TIME),
    ("jetmap.taylor_fiber_matrix", "pplab.jetmap", "taylor_fiber_matrix", None, TIME),
    (
        "splitting.h0",
        "pplab.splitting",
        "_section_space_dim",
        _h0_counts,
        (*TIME, "unknowns_sum", "degree_bound_max", "per_split"),
    ),
    ("splitting.sparse_rank", "pplab.splitting", "_sparse_rank", _rank_rows, (*TIME, "rows_sum")),
    ("splitting.splitting_type", "pplab.splitting", "splitting_type", None, TIME),
    ("splitting.jet_transition_matrix", "pplab.splitting", "jet_transition_matrix", None, TIME),
    ("laurent.det_laurent", "pplab.laurent", "det_laurent", None, TIME),
    ("laurent.det_bareiss", "pplab.laurent", "_det_bareiss", None, ("calls",)),
    ("cli.main", "pplab.cli", "main", None, ("self_s",)),
    ("cli.run_sweep", "pplab.cli", "run_sweep", None, ("self_s",)),
)


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Spans for the layers in `LAYERS`, kept as per-layer aggregates."""

    def __init__(self) -> None:
        self.stats = {name: LayerStats() for name, *_ in LAYERS}
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, counter: Counter | None) -> Callable:
        stats, stack = self.stats[name], self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            enclosed = [0.0]
            stack.append(enclosed)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - enclosed[0]
                if stack:
                    stack[-1][0] += duration
            if counter is not None:
                start = perf_counter()
                counter(stats.counts, args, kwargs, result)
                if stack:
                    stack[-1][0] += perf_counter() - start
            return result

        return span

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        for mod_name in sorted({layer[1] for layer in LAYERS}):
            with contextlib.suppress(ModuleNotFoundError):
                importlib.import_module(mod_name)
        modules = [
            mod
            for mod_name, mod in list(sys.modules.items())
            if mod_name == "pplab" or mod_name.startswith("pplab.")
        ]
        for name, mod_name, attr, counter, _ in LAYERS:
            owner = sys.modules.get(mod_name)
            *cls_path, fn_name = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            raw = getattr(owner, "__dict__", {}).get(fn_name)
            if raw is None:
                self.missing.append(name)
                continue
            if cls_path:
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                span = self._wrap(name, fn, counter)
                self._set(owner, fn_name, staticmethod(span) if isinstance(raw, staticmethod) else span)
                continue
            span = self._wrap(name, raw, counter)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is raw:
                        self._set(mod, binding, span)
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()
