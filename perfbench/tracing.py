"""Spans around the library's public functions, recorded from outside it.

`Tracer.install` wraps every public function of the layer modules, both
in the module that defines it and wherever another specwalk module
(`specwalk.cli`, the package namespace, a sibling layer) imported it, so a
call is traced whichever name it goes through. Each wrapper records a
span (name, start, end, parent, job id) in memory; `uninstall` puts the
original functions back, so untraced passes run the library unchanged.

Counts are taken at the same boundaries from argument and result sizes
(`_FACTS`); the ones derived rather than observed carry `_computed` in
their metric name.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field

LAYERS = ("graphs", "spectral", "transport", "continuum", "scaling")

# layer metric -> traced functions whose inclusive time it sums
TIMED = {
    "graphs.parse_graph_spec_s": ("graphs.parse_graph_spec",),
    "graphs.laplacian_s": ("graphs.laplacian",),
    "spectral.decompose_s": ("spectral.decompose",),
    "spectral.csv_s": ("spectral.spectrum_csv", "spectral.degeneracies_csv"),
    "transport.classical_return_s": ("transport.classical_return",),
    "transport.quantum_return_bound_s": ("transport.quantum_return_bound",),
    "transport.exact_average_return_s": ("transport.exact_average_return",),
    "transport.chi_matrix_s": ("transport.chi_matrix",),
    "transport.csv_s": ("transport.series_csv", "transport.chi_csv"),
    "continuum.classical_return_continuum_s":
        ("continuum.classical_return_continuum",),
    "continuum.quantum_return_bound_continuum_s":
        ("continuum.quantum_return_bound_continuum",),
    "scaling.extract_envelope_s": ("scaling.extract_envelope",),
    "scaling.fit_s": ("scaling.fit_power_law", "scaling.fit_stretched_exp"),
    "scaling.ratio_s": ("scaling.efficiency_ratio_series",),
}

COUNTS = ("graphs.nodes", "graphs.edges", "spectral.n3_computed",
          "spectral.clusters", "transport.phase_elems",
          "transport.phase_bytes_computed", "continuum.points",
          "scaling.points", "cli.bytes_written")

SELF_TIMES = tuple(f"{layer}.self_s" for layer in LAYERS + ("cli",))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _phase_facts(args, kwargs, result):
    # a complex T x N phase array: times x eigenvalues
    return {"phase_elems": len(_arg(args, kwargs, 1, "grid"))
            * _arg(args, kwargs, 0, "spectrum").n}


def _points(args, kwargs, result):
    return {"points": len(_arg(args, kwargs, 0, "times"))}


def _continuum_points(args, kwargs, result):
    return {"points": len(_arg(args, kwargs, 1, "grid"))}


_FACTS = {
    "graphs.parse_graph_spec": lambda a, k, g: {"nodes": g.n, "edges": g.edge_count},
    "spectral.decompose": lambda a, k, s: {"eigenvalues": s.eigenvalues},
    "transport.quantum_return_bound": _phase_facts,
    "transport.exact_average_return": _phase_facts,
    "continuum.classical_return_continuum": _continuum_points,
    "continuum.quantum_return_bound_continuum": _continuum_points,
    "scaling.extract_envelope": _points,
    "scaling.fit_power_law": _points,
    "scaling.fit_stretched_exp": _points,
}


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    job: str | None
    facts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def record(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "job": self.job}


class Tracer:
    """Records spans of traced passes; one list of spans per pass."""

    def __init__(self):
        self.passes: list[list[Span]] = []
        self._stack: list[int] = []
        self._job: str | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------

    def install(self):
        wrappers = {}
        modules = [importlib.import_module("specwalk"),
                   importlib.import_module("specwalk.cli")]
        for layer in LAYERS:
            mod = importlib.import_module(f"specwalk.{layer}")
            modules.append(mod)
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[fn] = self._wrap(f"{layer}.{name}", layer, fn)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])

    def uninstall(self):
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    def _wrap(self, name, layer, fn):
        facts = _FACTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if facts is not None:
                span.facts = facts(args, kwargs, result)
            return result

        return traced

    # -- spans --------------------------------------------------------------

    def _open(self, name, layer) -> Span:
        spans = self.passes[-1]
        span = Span(name, layer, 0.0, 0.0,
                    self._stack[-1] if self._stack else None, self._job)
        self._stack.append(len(spans))
        spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def begin_pass(self):
        self.passes.append([])

    def job(self, job_id: str, fn, *args):
        """Call `fn` as the root span of one job (layer `cli`)."""
        self._job = job_id
        span = self._open(f"cli.{fn.__name__}", "cli")
        try:
            return fn(*args)
        finally:
            self._close(span)
            self._job = None

    def dump(self) -> list[list[dict]]:
        return [[span.record() for span in spans] for spans in self.passes]


def pass_metrics(spans: list[Span], count_clusters) -> dict[str, float]:
    """Per-layer times and counts of one traced pass.

    A span's self time is its duration minus its children's; `cli.self_s`
    is the self time of the job root spans. `count_clusters` maps sorted
    eigenvalues to their number of degeneracy clusters.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.duration
    out = {name: 0.0 for name in (*TIMED, *SELF_TIMES)}
    inclusive: dict[str, float] = {}
    for span, covered in zip(spans, child):
        out[f"{span.layer}.self_s"] += span.duration - covered
        inclusive[span.name] = inclusive.get(span.name, 0.0) + span.duration
    for metric, names in TIMED.items():
        out[metric] = sum(inclusive.get(name, 0.0) for name in names)

    counts = dict.fromkeys(COUNTS, 0)
    for span in spans:
        f = span.facts
        if "nodes" in f:
            counts["graphs.nodes"] += f["nodes"]
            counts["graphs.edges"] += f["edges"]
        if "eigenvalues" in f:
            n = len(f["eigenvalues"])
            counts["spectral.n3_computed"] += n**3
            counts["spectral.clusters"] += count_clusters(f["eigenvalues"])
        if "phase_elems" in f:
            counts["transport.phase_elems"] += f["phase_elems"]
            counts["transport.phase_bytes_computed"] = max(
                counts["transport.phase_bytes_computed"], 16 * f["phase_elems"])
        if "points" in f:
            counts[f"{span.layer}.points"] += f["points"]
    out.update(counts)
    out.update({f"job.{span.job}_s": span.duration
                for span in spans if span.parent is None})
    return out
