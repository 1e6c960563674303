"""Per-layer spans recorded from outside the engine.

`Tracer.install` replaces the engine functions listed in `LAYERS` by timing
wrappers in every engine module that looks them up at call time (the
`exact` helpers are imported by name into each consumer, so they are
patched there), and `uninstall` puts the originals back. Spans stay in
memory; a layer's self time is its span's duration minus the time its
direct child spans cover. Table sizes are read from the tables the wrapped
calls return, after the verdict's clock has stopped.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter

# metric prefix -> engine functions whose calls it times
LAYERS = {
    "manifold_file.parse": ("parse_manifold_file",),
    "pipeline.orchestration": ("run_pipeline",),
    "ambient.validate": ("validate_lie_algebra", "validate_norden"),
    "ambient.levi_civita": ("levi_civita",),
    "ambient.kaehler_check": ("kaehler_check",),
    "ambient.curvature": ("curvature",),
    "ambient.pi_tensors": ("pi_tensors", "verify_pi_assoc_relations"),
    "ambient.trsc_fit": ("constant_trsc", "associated_curvature"),
    "ambient.ricci": ("ambient_ricci",),
    "hypersurface.classify": ("induce_and_classify",),
    "hypersurface.frame": (
        "validate_span",
        "construct_screen",
        "construct_transversal",
        "radical_transversal_check",
    ),
    "hypersurface.gauss_weingarten": ("gauss_weingarten",),
    "hypersurface.umbilical": ("umbilical_test",),
    "hypersurface.frame_identities": ("verify_frame_identities",),
    "symmetry.induced_gauss": ("induced_curvature_gauss",),
    "symmetry.induced_closed_form": ("induced_curvature_closed_form",),
    "symmetry.ricci_routes": ("induced_ricci",),
    "symmetry.semi_symmetric": ("semi_symmetric_check",),
    "symmetry.ricci_semi_symmetric": ("ricci_semi_symmetric_check",),
    "symmetry.locally_symmetric": ("locally_symmetric_check",),
    "symmetry.einstein_audit": ("almost_einstein_fit", "pde_residuals", "symmetry_equivalence_audit"),
    "exact.linear_solve": ("solve_affine", "kernel_basis", "mat_inverse", "mat_rank", "signature"),
}
# emit_report is one function but two layer metrics, told apart by format
EMIT = {"structured": "pipeline.emit_structured", "text": "pipeline.emit_text"}
VERDICT = "verdict"
TABLE_STATS = (
    "ambient.gamma_nnz",
    "ambient.riemann04_nnz",
    "ambient.max_entry_bits",
    "symmetry.r13_nnz",
    "symmetry.r13_max_bits",
)


def max_bits(tensor) -> int:
    return max(
        (max(abs(q.numerator).bit_length(), q.denominator.bit_length()) for q in tensor.entries),
        default=0,
    )


def nnz(tensor) -> int:
    return sum(1 for q in tensor.entries if q != 0)


class Tracer:
    """Spans of the verdicts run through `verdict`; the spans of one verdict
    carry its index."""

    def __init__(self, modules):
        self.modules = modules
        self.spans: list[tuple[str, float, float, int, int]] = []  # name, start, end, parent, verdict
        self._stack: list[int] = []
        self._verdict = -1
        self._tables: list[tuple[str, object]] = []
        self.table_stats: dict[str, list[int]] = defaultdict(list)
        self._saved: list[tuple[object, str, object]] = []

    # -- spans

    def _open(self, name: str) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, self._verdict))
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, parent: int, name: str, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self._verdict)

    def verdict(self, fn, *args):
        """Run fn(*args) as one verdict: the root span of its layer spans."""
        self._verdict += 1
        idx, parent = self._open(VERDICT)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(idx, parent, VERDICT, start)
            self._collect_tables()

    def _wrap(self, fn, name: str | None, keep: str | None):
        def traced(*args, **kwargs):
            span_name = name or EMIT[args[1] if len(args) > 1 else kwargs.get("fmt", "text")]
            idx, parent = self._open(span_name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, parent, span_name, start)
            if keep is not None:
                self._tables.append((keep, result))
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation

    def install(self) -> None:
        """Patch every module attribute that holds a listed function."""
        targets = {"emit_report": (None, None)}
        targets.update({fn: (layer, None) for layer, fns in LAYERS.items() for fn in fns})
        targets["levi_civita"] = ("ambient.levi_civita", "gamma")
        targets["curvature"] = ("ambient.curvature", "riemann")
        targets["induced_curvature_gauss"] = ("symmetry.induced_gauss", "r13")
        wrapped = {}
        for module in self.modules:
            for attr, (layer, keep) in targets.items():
                fn = getattr(module, attr, None)
                if getattr(fn, "__name__", None) != attr:
                    continue
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._wrap(fn, layer, keep)
                self._saved.append((module, attr, fn))
                setattr(module, attr, wrapped[id(fn)])

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    # -- results

    def _collect_tables(self) -> None:
        for kind, result in self._tables:
            if kind == "gamma":
                self.table_stats["ambient.gamma_nnz"].append(nnz(result))
                self.table_stats["ambient.max_entry_bits"].append(max_bits(result))
            elif kind == "riemann":
                r13, r04 = result
                self.table_stats["ambient.riemann04_nnz"].append(nnz(r04))
                self.table_stats["ambient.max_entry_bits"].append(max(max_bits(r13), max_bits(r04)))
            else:
                self.table_stats["symmetry.r13_nnz"].append(nnz(result))
                self.table_stats["symmetry.r13_max_bits"].append(max_bits(result))
        self._tables.clear()

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Total self time and call count per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for (name, start, end, _, _), covered in zip(self.spans, child):
            totals[name][0] += end - start - covered
            totals[name][1] += 1
        return {name: (t, c) for name, (t, c) in totals.items()}

    def verdict_time(self) -> float:
        return sum(end - start for name, start, end, _, _ in self.spans if name == VERDICT)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: self seconds and calls per verdict, table sizes
        as means over the tables built, and the share of verdict time the
        layer spans account for."""
        verdicts = self._verdict + 1
        totals = self.self_times()
        out: dict[str, tuple[float, str]] = {}
        layer_names = list(LAYERS) + list(EMIT.values())
        for layer in layer_names:
            t, calls = totals.get(layer, (0.0, 0))
            out[f"{layer}_s"] = (t / verdicts, "s")
            out[f"{layer}_calls"] = (calls / verdicts, "count")
        for key in TABLE_STATS:
            values = self.table_stats.get(key) or [0]
            if key.endswith("bits"):
                out[key] = (max(values), "bits")
            else:
                out[key] = (statistics.fmean(values), "count")
        attributed = sum(totals.get(layer, (0.0, 0))[0] for layer in layer_names)
        out["trace.attributed_share"] = (attributed / self.verdict_time(), "ratio")
        return out

    def dump(self) -> list[dict]:
        return [
            {"verdict": v, "name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent, v in self.spans
        ]
