"""Experiment orchestration and the command-line interface.

One invocation runs one experiment from one source: build a graph (or
pick an analytic DOS, or read a series CSV), obtain the spectrum, evaluate
the transport series on a time grid, analyze decay laws, and write CSV
artifacts plus a manifest with checksums into the output directory. Fixed
artifact names keep downstream plotting scripts trivial: series.csv,
spectrum.csv, degeneracies.csv, chi.csv (with --chi), report.txt,
deltap.csv, manifest.txt.

Subcommands: run, spectrum, transport, fit, preset. Each is a stage set of
the one run (`STAGES`). Exit codes: 0 on success, 1 on a parse/config
error or a failed write, 2 on a numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .continuum import (Lifshits, classical_return_continuum, parse_dos_spec,
                        quantum_return_bound_continuum)
from .errors import NumericalError, ParseError, ResourceLimitError, _read_spec
from .graphs import parse_graph_spec
from .scaling import (EfficiencyReport, check_fit_window, check_half_width,
                      check_tail_fraction, detect_crossover,
                      efficiency_ratio_series, extract_envelope,
                      fit_power_law, fit_stretched_exp, ratio_csv,
                      report_text, saturation)
from .spectral import (default_cluster_tol, degeneracies_csv, graph_spectrum,
                       spectrum_csv)
from .transport import (TimeGrid, TransportSeries, chi_csv, chi_diagnostics,
                        chi_table, linear_grid, log_grid, merge_grids,
                        read_series_csv, series_csv, transport_series)

DEFAULT_GRID_SPEC = "log:1e-2,1e4,600"
# the series and its CSV are O(points) in memory: a million points write a
# 70 MB series.csv, streamed a block of rows at a time from 24 B of text a
# value (72 MB for three columns); the t column's text, 24 MB, is held
# until deltap.csv is written. A series CSV that a run reads holds at most
# one row more, the t = 0 a log grid prepends, parsed to 8 B a value
MAX_GRID_POINTS = 1_000_000


# `_read_spec` rows; the segment names its kind, so the usage is the rest
_GRID_SEGMENTS = dict.fromkeys(("log", "linear"), ("LO,HI,N", (float, float, int), {}))


def parse_grid_spec(spec: str) -> TimeGrid:
    """Parse 'log:LO,HI,N' or 'linear:LO,HI,N', optionally joined with '+'.

    Log segments get t=0 prepended so normalization shows up in the series;
    joined segments are merged and deduplicated. Each segment needs N >= 1,
    finite bounds with LO >= 0 (LO, HI > 0 on a log segment) and, for
    N > 1, LO < HI. A total N above MAX_GRID_POINTS raises
    ResourceLimitError before any grid is made.
    """
    segments, start = [], 0
    for part in spec.split("+"):
        kind, (lo, hi, num), _ = _read_spec(spec, _GRID_SEGMENTS, "grid segment",
                                            start, start + len(part))
        floor = "0 < LO, HI" if kind == "log" else "0 <= LO"
        above = min(lo, hi) > 0 if kind == "log" else lo >= 0
        if not (num >= 1 and above and np.isfinite([lo, hi]).all() and (num == 1 or lo < hi)):
            raise ParseError(f"{kind} grid segment needs N >= 1, finite {floor} and, for "
                             f"N > 1, LO < HI: {part!r}", text=spec, position=start)
        segments.append((kind, lo, hi, num))
        start += len(part) + 1
    total = sum(num for *_, num in segments)
    if total > MAX_GRID_POINTS:
        raise ResourceLimitError(
            f"grid of {total} points exceeds the limit of {MAX_GRID_POINTS}")
    grids = [(log_grid if kind == "log" else linear_grid)(lo, hi, num)
             for kind, lo, hi, num in segments]
    return grids[0] if len(grids) == 1 else merge_grids(*grids)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run depends on; exactly one source, a graph, a DOS or
    the path of a series CSV, must be set."""

    graph: str | None = None
    dos: str | None = None
    series: str | None = None
    grid: str = DEFAULT_GRID_SPEC
    fit_window: tuple[float, float] = (1.0, 100.0)
    fit_window_quantum: tuple[float, float] | None = None
    envelope_width: int = 3
    tail_fraction: float = 0.1
    vectors: bool = False
    chi: bool = False
    fit_model: str = "auto"
    out: str = "out"

    def validate(self):
        sources = f"graph={self.graph!r} dos={self.dos!r} series={self.series!r}"
        if [self.graph, self.dos, self.series].count(None) != 2:
            raise ParseError("config must set exactly one of graph/dos/series",
                             text=sources, position=0)
        if self.fit_model not in ("auto", "power", "stretched"):
            raise ParseError(f"unknown fit model {self.fit_model!r}",
                             text=self.fit_model, position=0)
        if self.graph is None and (self.vectors or self.chi):
            raise ParseError("vectors and chi need a graph run; a DOS or a series "
                             "has no eigenvectors", text=sources, position=0)
        # the analysis options, by the bounds the analysis enforces, before
        # anything is computed or written
        check_fit_window(self.fit_window)
        check_fit_window(self.fit_window_quantum or self.fit_window)
        check_half_width(self.envelope_width)
        check_tail_fraction(self.tail_fraction)

    def echo(self) -> dict[str, str]:
        out = {}
        for f in fields(self):
            val = getattr(self, f.name)
            if val is None:
                continue
            if isinstance(val, tuple):
                val = ",".join(repr(float(x)) for x in val)
            out[f.name] = str(val)
        return out


def _parse_window(text):
    lo, _, hi = text.partition(",")
    try:
        return (float(lo), float(hi))
    except ValueError as exc:
        raise ParseError(f"window needs LO,HI: {text!r}", text=text,
                         position=0) from exc


_BOOLS = {"true": True, "yes": True, "on": True, "1": True,
          "false": False, "no": False, "off": False, "0": False}


def _parse_bool(text):
    try:
        return _BOOLS[text.lower()]
    except KeyError:
        raise ValueError(f"expected one of {', '.join(_BOOLS)}: {text!r}") from None


# text parser of each annotated config field type; strings stay as they are
_PARSERS = {"bool": _parse_bool, "int": int, "float": float,
            "tuple[float, float]": _parse_window}
_FIELD_PARSERS = {f.name: _PARSERS.get(f.type.removesuffix(" | None"), str)
           for f in fields(ExperimentConfig)}


def read_config_file(path) -> dict:
    """Key = value lines; '#' starts a comment. Keys match config fields.

    A line that is not key = value, names no field, or holds a value its
    field cannot take raises ParseError naming its 1-based line.
    """
    out = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not eq or key not in _FIELD_PARSERS:
            raise ParseError(f"bad config line {lineno}: {raw!r}", text=raw,
                             position=0)
        try:
            out[key] = _FIELD_PARSERS[key](val)
        except ValueError as exc:
            raise ParseError(f"bad value on config line {lineno}: {exc}", text=raw,
                             position=0) from None
    return out


# -- presets ------------------------------------------------------------------

PRESETS: dict[str, ExperimentConfig] = {
    # infinite 1D lattice, band-edge DOS: classical slope -1/2, quantum -1
    "fig1a": ExperimentConfig(
        dos="semicircle:nu=-0.5,lmax=4",
        grid="linear:0.05,220,2200",
        fit_window=(10.0, 100.0),
    ),
    # random-matrix semicircle: classical slope -3/2, quantum -3
    "fig1b": ExperimentConfig(
        dos="semicircle:nu=0.5,lmax=2",
        grid="linear:0.05,220,2200",
        fit_window=(10.0, 100.0),
    ),
    # finite ring of 200 nodes: 1D scaling at intermediate times, then saturation
    "fig2a": ExperimentConfig(
        graph="ring:200",
        grid="linear:0.05,250,5000+log:250,1e4,350",
        fit_window=(1.0, 100.0),
    ),
    # dendrimer generation 10: no classical scaling window, quantum localization
    "fig2b": ExperimentConfig(
        graph="dendrimer:10,3",
        grid=DEFAULT_GRID_SPEC,
        fit_window=(1.0, 100.0),
    ),
    # star of 10 nodes: quantum return parked near (N-2)^2/N^2
    "fig3": ExperimentConfig(
        graph="star:10",
        grid="linear:0.01,100,9900+log:100,1e4,200",
        fit_window=(1.0, 100.0),
        vectors=True,
    ),
}


def preset(name: str) -> ExperimentConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise ParseError(f"unknown preset {name!r}; have {sorted(PRESETS)}",
                         text=name, position=0) from None


# -- pipeline -----------------------------------------------------------------

@dataclass
class RunManifest:
    """Record of one run: config echo, artifact checksums, version, duration,
    the seconds spent in each stage that ran, and diagnostics: for graph
    runs which path produced the spectrum, its cluster count and, where
    built, where the projectors came from and the eigenpair
    residual, and with two or more clusters the smallest gap between
    adjacent cluster values over the cluster tolerance; with chi its
    largest column-sum error and mean return probability; for analysed
    runs the envelope point count."""

    config: dict[str, str]
    files: dict[str, str] = field(default_factory=dict)
    version: str = __version__
    duration_s: float = 0.0
    diagnostics: dict[str, str] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)

    @contextmanager
    def stage(self, name: str):
        """Add the time spent in the block to `timing.<name>_s`."""
        started = time.perf_counter()
        yield
        self.timings[name] = self.timings.get(name, 0.0) + time.perf_counter() - started

    def to_text(self) -> str:
        lines = [f"version = {self.version}",
                 f"duration_s = {repr(self.duration_s)}"]
        lines += [f"config.{k} = {v}" for k, v in sorted(self.config.items())]
        diagnostics = {**self.diagnostics, **{
            f"timing.{k}_s": repr(v) for k, v in self.timings.items()}}
        lines += [f"{k} = {v}" for k, v in sorted(diagnostics.items())]
        lines += [f"file.{name} = {digest}"
                  for name, digest in sorted(self.files.items())]
        return "\n".join(lines) + "\n"

    def verify(self, out_dir) -> bool:
        out_dir = Path(out_dir)
        return all((out_dir / name).is_file()
                   and _sha256(out_dir / name) == digest
                   for name, digest in self.files.items())


def _sha256(path) -> str:
    """The file's sha256, read 64 KiB at a time into one reused buffer, as
    hashlib.file_digest (Python 3.11+) reads: the file is never held, and
    reads allocate nothing (a new bytes object per read raised the peak
    RSS of runs with small artifacts by half a MB)."""
    digest, buffer = hashlib.sha256(), bytearray(1 << 16)
    view = memoryview(buffer)
    with open(path, "rb", buffering=0) as file:
        while size := file.readinto(buffer):
            digest.update(view[:size])
    return digest.hexdigest()


def _write(out_dir: Path, name: str, manifest: RunManifest, render, *args):
    """Write render(*args) to out_dir/name and record its sha256; the
    formatting counts as writing time. render returns a str or byte
    blocks, written and hashed one at a time, or (kept, blocks), and
    _write returns kept. The first write makes out_dir."""
    with manifest.stage("writing"):
        text = render(*args)
        kept, text = text if isinstance(text, tuple) else (None, text)
        digest = hashlib.sha256()
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / name, "wb") as out:
            for block in [text.encode()] if isinstance(text, str) else text:
                out.write(block)
                digest.update(block)
        manifest.files[name] = digest.hexdigest()
    return kept


def _finish(manifest: RunManifest, out_dir: Path, started: float) -> RunManifest:
    """Record the duration, write manifest.txt and check every artifact
    against its checksum; a mismatch raises OSError."""
    manifest.duration_s = time.monotonic() - started
    (out_dir / "manifest.txt").write_text(manifest.to_text())
    if not manifest.verify(out_dir):
        raise OSError(f"artifacts in {out_dir} do not match their manifest checksums")
    return manifest


def _quantum_envelope(series: TransportSeries, width: int):
    positive = series.times > 0
    return extract_envelope(series.times[positive],
                            series.alpha_bar_sq[positive], half_width=width)


def _analyze(series: TransportSeries, config: ExperimentConfig,
             stretched: bool, manifest: RunManifest) -> EfficiencyReport:
    env = _quantum_envelope(series, config.envelope_width)
    manifest.diagnostics["analysis.envelope_points"] = str(len(env.times))
    window_cl = config.fit_window
    window_qm = config.fit_window_quantum or window_cl
    positive = series.times > 0
    t, p = series.times[positive], series.p_bar[positive]
    fit = fit_stretched_exp if stretched else fit_power_law
    classical_fit = fit(t, p, window_cl)
    if len(env.times) >= 5:
        quantum_source = (env.times, env.values)
    else:
        # non-oscillatory series: the curve is its own envelope
        quantum_source = (t, series.alpha_bar_sq[positive])
    quantum_fit = fit(quantum_source[0], quantum_source[1], window_qm)
    ratio = efficiency_ratio_series(t, p, quantum_source)
    crossover = detect_crossover(ratio.times, ratio.values)
    return EfficiencyReport(
        classical_fit=classical_fit,
        quantum_fit=quantum_fit,
        ratio=ratio,
        saturation_classical=saturation(p, config.tail_fraction),
        saturation_quantum=saturation(series.alpha_bar_sq[positive],
                                      config.tail_fraction),
        crossover_time=crossover,
    )


def _spectrum_diagnostics(spectrum) -> dict[str, str]:
    levels = spectrum.levels
    out = {"spectrum.path": spectrum.path, "spectrum.clusters": str(len(levels))}
    if len(levels) >= 2:
        tol = default_cluster_tol(spectrum.values)
        out["spectrum.min_gap_over_tol"] = repr(float(np.diff(levels).min() / tol))
    if spectrum.eigenvectors is not None or spectrum.pairs is not None:
        out["spectrum.vectors"] = "orbit" if spectrum.eigenvectors is None else "dense"
    if spectrum.residual is not None:
        out["spectrum.residual"] = repr(spectrum.residual)
    return out


# each subcommand is a stage set of one run
STAGES = {"run": ("series", "spectrum", "analysis"),
          "preset": ("series", "spectrum", "analysis"),
          "spectrum": ("spectrum",),
          "transport": ("series",),
          "fit": ("analysis",)}
# the stages that write an artifact from each source
_SOURCE_STAGES = {"graph": {"spectrum", "series"}, "dos": {"series"},
                  "series": {"analysis"}}


def run_experiment(config: ExperimentConfig,
                   stages: tuple[str, ...] = STAGES["run"]) -> RunManifest:
    """Run the pipeline and write artifacts; returns the written manifest.

    `stages` selects what to compute, and every subcommand is a stage set
    of this one run (`STAGES`). The source is a graph, a DOS or a series
    CSV: series.csv is written only for a series the run computed, and
    the analysis stage reads the series from any of the three. A stage
    set that writes nothing from its source (`transport` from a series,
    `spectrum` from a DOS) raises ParseError, so every run writes an
    artifact, and the first write makes the output directory.
    """
    config.validate()
    source = next(name for name in _SOURCE_STAGES if getattr(config, name) is not None)
    if not (config.chi or _SOURCE_STAGES[source] & set(stages)):
        raise ParseError(f"stages {'/'.join(stages)} compute nothing from a "
                         f"{source} source", text=getattr(config, source), position=0)
    started = time.monotonic()
    grid = parse_grid_spec(config.grid)
    out_dir = Path(config.out)
    manifest = RunManifest(config=config.echo())
    series = None
    if config.series is not None:
        with manifest.stage("read"):
            series = read_series_csv(config.series, MAX_GRID_POINTS + 1)

    stretched = config.fit_model == "stretched"
    if config.graph is not None:
        # the spectrum stage writes eigenvalues only; --vectors serves the
        # series, --chi its own artifact
        with_vectors = config.chi or (config.vectors and "series" in stages)
        with manifest.stage("spectrum"):
            graph = parse_graph_spec(config.graph)
            spectrum = graph_spectrum(graph, with_vectors=with_vectors)
        manifest.diagnostics.update(_spectrum_diagnostics(spectrum))
        if config.chi:
            # before any other artifact: a chi above the node cap writes nothing
            _write_chi(spectrum, out_dir, manifest)
        if "spectrum" in stages:
            _write(out_dir, "spectrum.csv", manifest, spectrum_csv, spectrum)
            _write(out_dir, "degeneracies.csv", manifest, degeneracies_csv, spectrum)
        if "series" in stages:
            with manifest.stage("series"):
                series = transport_series(spectrum, grid,
                                          with_exact_quantum=config.vectors)
    elif config.dos is not None:
        dos = parse_dos_spec(config.dos)
        if config.fit_model == "auto" and isinstance(dos, Lifshits):
            stretched = True
        if "series" in stages:
            with manifest.stage("series"):
                series = TransportSeries(
                    grid=grid,
                    p_bar=classical_return_continuum(dos, grid),
                    alpha_bar_sq=quantum_return_bound_continuum(dos, grid))

    times_text = None  # series.csv's t column, which deltap.csv reuses
    if series is not None and config.series is None:
        times_text = _write(out_dir, "series.csv", manifest, series_csv, series)
    if series is not None and "analysis" in stages:
        with manifest.stage("analysis"):
            report = _analyze(series, config, stretched, manifest)
        _write(out_dir, "report.txt", manifest, report_text, report)
        _write(out_dir, "deltap.csv", manifest, ratio_csv, report.ratio,
               series.times, times_text)

    return _finish(manifest, out_dir, started)


def _write_chi(spectrum, out_dir: Path, manifest: RunManifest):
    """chi's table and its diagnostics (the chi stage), then chi.csv; the
    table is not kept past the write."""
    with manifest.stage("chi"):
        chi = chi_table(spectrum)
        manifest.diagnostics.update(chi_diagnostics(*chi))
    _write(out_dir, "chi.csv", manifest, chi_csv, *chi)


# -- argument parsing ---------------------------------------------------------

def _add_common(sub, with_specs=True):
    if with_specs:
        sub.add_argument("--graph", help="graph spec, e.g. ring:200 or er:1000,0.1,seed=1")
        sub.add_argument("--dos", help="DOS spec, e.g. semicircle:nu=0.5,lmax=2")
    sub.add_argument("--out", help="output directory (default: out)")
    sub.add_argument("--grid", help=f"time grid spec (default: {DEFAULT_GRID_SPEC})")
    sub.add_argument("--fit-window", help="classical fit window LO,HI")
    sub.add_argument("--fit-window-quantum", help="quantum fit window LO,HI")
    sub.add_argument("--envelope-width", help="envelope half width (grid points)")
    sub.add_argument("--tail-fraction", help="tail fraction for saturation stats")
    sub.add_argument("--vectors", action="store_true", default=None,
                     help="add the exact quantum average pi_bar to the series "
                          "(projectors: closed-form pair orbits on ring, torus, "
                          "star and dendrimer, dense eigenvectors elsewhere)")
    sub.add_argument("--chi", action="store_true", default=None,
                     help="write the long-time average transition matrix")
    sub.add_argument("--fit-model", choices=("auto", "power", "stretched"))
    sub.add_argument("--config", help="key = value config file; flags override it")


def _config_from_args(args, base: ExperimentConfig | None = None) -> ExperimentConfig:
    cfg = base or ExperimentConfig()
    if getattr(args, "config", None):
        cfg = replace(cfg, **read_config_file(args.config))
    # each field's flag has the field's name; the booleans arrive typed,
    # the rest as text that the field's parser reads
    updates = {}
    for key, parse in _FIELD_PARSERS.items():
        val = getattr(args, key, None)
        if isinstance(val, str):
            try:
                val = parse(val)
            except ValueError as exc:
                raise ParseError(f"bad value for --{key.replace('_', '-')}: {exc}") from None
        if val is not None:
            updates[key] = val
    return replace(cfg, **updates)


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ParseError, so they exit 1 with one line like
    any other malformed input."""

    def error(self, message):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="specwalk",
        description="Classical vs quantum transport efficiency from graph spectra")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="full pipeline: series, spectrum, analysis")
    _add_common(run)

    spec = subs.add_parser("spectrum", help="eigenvalues and degeneracies only")
    _add_common(spec)

    trans = subs.add_parser("transport", help="transport series only")
    _add_common(trans)

    fit = subs.add_parser("fit", help="decay analysis of an existing series CSV")
    fit.add_argument("--series", required=True, help="path to a series CSV")
    _add_common(fit, with_specs=False)

    pre = subs.add_parser("preset", help="run a documented preset")
    pre.add_argument("name", help=f"one of {sorted(PRESETS)}")
    _add_common(pre)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        base = preset(args.name) if args.command == "preset" else None
        cfg = _config_from_args(args, base=base)
        run_experiment(cfg, stages=STAGES[args.command])
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
