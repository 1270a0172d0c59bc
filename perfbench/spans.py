"""Per-layer spans for the traced run.

The tracer rebinds pgspectra's public functions, in every loaded pgspectra
module, to wrappers that time each call.  Rebinding the module globals
catches the calls where the pipeline looks the names up: the benchmark's
own ``pg.<fn>`` calls, ``pgspectra.theorems`` closed forms and harness,
``GRAPH_BUILDERS`` and ``FactoredPoly.expand``.  Nothing inside ``src/`` is
edited.

A span's self time is its duration minus the durations of the traced
calls nested inside it, so ``char_poly`` called from a closed form is
charged to ``linalg.char_poly`` and not to ``theorems.closed_form``.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable

# span -> (module, public function names).  Closed forms (every ``cf_*`` in
# ``pgspectra.theorems``) are added when the tracer is installed.
SPANS: dict[str, tuple[str, tuple[str, ...]]] = {
    "groups.table": (
        "groups",
        (
            "make_cyclic",
            "make_elementary_abelian",
            "make_dihedral",
            "make_dicyclic",
            "make_gpq",
            "make_group",
            "direct_product",
        ),
    ),
    "groups.json": ("groups", ("group_to_json", "group_from_json")),
    "graphs.build": ("graphs", ("power_graph", "enhanced_power_graph", "proper_power_graph")),
    "graphs.matrix": ("graphs", ("distance_matrix", "adjacency_matrix", "diameter")),
    "partitions.refine": ("partitions", ("coarsest_equitable_partition",)),
    "partitions.quotient": (
        "partitions",
        ("quotient_matrix", "distance_quotient_matrix", "distance_quotient_from_matrix"),
    ),
    "linalg.char_poly": ("linalg", ("char_poly",)),
    "linalg.expand": ("linalg", ("poly_exact_div",)),
    "theorems.closed_form": ("theorems", ("closed_form_for",)),
}


class Tracer:
    """Accumulates self time and call counts per span while installed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.calls = dict.fromkeys(SPANS, 0)
        self.dim_sum = 0
        self.dim_max = 0
        self.coeff_bits_max = 0
        self._children: list[float] = []  # per open span: traced time nested in it
        self._undo: list[tuple[Any, str, Any]] = []

    def wrap(self, span: str, fn: Callable) -> Callable:
        clock = self.clock
        children = self._children
        after = self._record_char_poly if span == "linalg.char_poly" else None

        def traced(*args: Any, **kwargs: Any) -> Any:
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.self_s[span] += elapsed - children.pop()
                self.calls[span] += 1
                if children:
                    children[-1] += elapsed
            if after is not None:
                after(args[0], result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", span)
        return traced

    def _record_char_poly(self, matrix: Any, poly: Any) -> None:
        self.dim_sum += matrix.rows
        self.dim_max = max(self.dim_max, matrix.rows)
        bits = (abs(c).bit_length() for c in poly.coeffs)
        self.coeff_bits_max = max(self.coeff_bits_max, *bits, 0)

    def install(self, pg: Any) -> None:
        """Rebind every traced function in every loaded pgspectra module."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, Callable] = {}
        for span, (module, names) in SPANS.items():
            mod = getattr(pg, module)
            if span == "theorems.closed_form":
                names = names + tuple(n for n in vars(mod) if n.startswith("cf_"))
            for name in names:
                fn = getattr(mod, name)
                wrappers[id(fn)] = self.wrap(span, fn)
        modules = [m for n, m in sys.modules.items() if n == "pgspectra" or n.startswith("pgspectra.")]
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._rebind(mod, name, wrappers[id(value)])
        builders = pg.theorems.GRAPH_BUILDERS
        for kind, fn in list(builders.items()):
            if id(fn) in wrappers:
                self._rebind(builders, kind, wrappers[id(fn)])
        self._rebind(pg.FactoredPoly, "expand", self.wrap("linalg.expand", pg.FactoredPoly.expand))

    def _rebind(self, owner: Any, name: str, value: Any) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._undo.append((owner, name, vars(owner)[name]))
            setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)
        self._undo.clear()
