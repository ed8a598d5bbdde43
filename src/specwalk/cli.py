"""Experiment orchestration and the command-line interface.

One invocation runs one experiment from one source: build a graph (or
pick an analytic DOS, or read a series CSV), obtain the spectrum, evaluate
the transport series on a time grid, analyze decay laws, and write CSV
artifacts plus a manifest with checksums into the output directory. Fixed
artifact names keep downstream plotting scripts trivial: series.csv,
spectrum.csv, degeneracies.csv, chi.csv (with --chi), report.txt,
deltap.csv, manifest.txt. Each stage is one call into the module that
owns it; this module holds the config, the presets, the stage order,
the manifest and the writes.

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

from . import __version__
from .continuum import StretchedExpDecay, asymptotic_law, continuum_series, parse_dos_spec
from .errors import NumericalError, ParseError
from .graphs import parse_graph_spec
from .scaling import (DEFAULT_HALF_WIDTH, DEFAULT_TAIL_FRACTION, check_fit_window,
                      check_half_width, check_tail_fraction, efficiency_report,
                      ratio_csv, report_text)
from .spectral import degeneracies_csv, graph_spectrum, spectrum_csv, spectrum_diagnostics
from .transport import (chi_csv, chi_diagnostics, chi_table, parse_grid_spec,
                        read_series_csv, series_csv, transport_series)

DEFAULT_GRID_SPEC = "log:1e-2,1e4,600"


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
    envelope_width: int = DEFAULT_HALF_WIDTH
    tail_fraction: float = DEFAULT_TAIL_FRACTION
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
    artifact. Every stage computes before the first write, which makes
    the output directory, so a run whose computation fails writes nothing.
    """
    config.validate()
    source = next(name for name in _SOURCE_STAGES if getattr(config, name) is not None)
    if not (config.chi or _SOURCE_STAGES[source] & set(stages)):
        raise ParseError(f"stages {'/'.join(stages)} compute nothing from a "
                         f"{source} source", text=getattr(config, source), position=0)
    started = time.monotonic()
    grid = parse_grid_spec(config.grid)
    manifest = RunManifest(config=config.echo())
    spectrum = chi = series = report = None
    stretched = config.fit_model == "stretched"
    if config.series is not None:
        with manifest.stage("read"):
            series = read_series_csv(config.series)
    elif config.graph is not None:
        # the spectrum stage writes eigenvalues only; --vectors serves the
        # series, --chi its own artifact
        with_vectors = config.chi or (config.vectors and "series" in stages)
        with manifest.stage("spectrum"):
            spectrum = graph_spectrum(parse_graph_spec(config.graph), with_vectors=with_vectors)
        manifest.diagnostics.update(spectrum_diagnostics(spectrum))
        if config.chi:
            with manifest.stage("chi"):
                chi = chi_table(spectrum)
                manifest.diagnostics.update(chi_diagnostics(*chi))
        if "series" in stages:
            with manifest.stage("series"):
                series = transport_series(spectrum, grid, with_exact_quantum=config.vectors)
            # pi_bar's cached factor, n x n from eigenvectors, is not held
            # through the writes, chi.csv's above all
            vars(spectrum).pop("factor", None)
    else:
        dos = parse_dos_spec(config.dos)
        if config.fit_model == "auto":
            stretched = isinstance(asymptotic_law(dos, "classical"), StretchedExpDecay)
        if "series" in stages:
            with manifest.stage("series"):
                series = continuum_series(dos, grid)
    if series is not None and "analysis" in stages:
        with manifest.stage("analysis"):
            report = efficiency_report(
                series.times, series.p_bar, series.alpha_bar_sq, config.fit_window,
                config.fit_window_quantum, config.envelope_width, config.tail_fraction,
                stretched)
        manifest.diagnostics["analysis.envelope_points"] = str(report.envelope_points)

    out_dir = Path(config.out)
    if chi is not None:
        _write(out_dir, "chi.csv", manifest, chi_csv, *chi)
        chi = None  # the table is not kept past its write
    if spectrum is not None and "spectrum" in stages:
        _write(out_dir, "spectrum.csv", manifest, spectrum_csv, spectrum)
        _write(out_dir, "degeneracies.csv", manifest, degeneracies_csv, spectrum)
    times_text = None  # series.csv's t column, which deltap.csv reuses
    if series is not None and config.series is None:
        times_text = _write(out_dir, "series.csv", manifest, series_csv, series)
    if report is not None:
        _write(out_dir, "report.txt", manifest, report_text, report)
        _write(out_dir, "deltap.csv", manifest, ratio_csv, report.ratio,
               series.times, times_text)
    return _finish(manifest, out_dir, started)


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
