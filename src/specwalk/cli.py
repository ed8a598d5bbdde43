"""Experiment orchestration and the command-line interface.

One invocation runs one experiment from one source: build a graph (or
read a levels table such as a run's degeneracies.csv, or pick an
analytic DOS), obtain the spectrum, evaluate the transport series on a
time grid, analyze decay laws, and write CSV artifacts plus a manifest
with checksums into the output directory. Fixed artifact names keep
downstream plotting scripts trivial: series.csv, spectrum.csv,
degeneracies.csv, chi.csv (with --chi), report.txt, deltap.csv,
manifest.txt. Each stage is one call into the module that owns it; this
module holds the config, the presets, the stage order, the manifest and
the writes.

Subcommands: run, spectrum, transport, preset, one row of
`_SUBCOMMANDS` each. Exit codes: 0 on success, 1 on a parse/config
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
from .scaling import check_fit_window, efficiency_report, ratio_csv, report_text
from .spectral import (degeneracies_csv, graph_spectrum, read_levels, spectrum_csv,
                       spectrum_diagnostics)
from .transport import (chi_csv, chi_diagnostics, chi_table, parse_grid_spec, series_csv,
                        transport_series)

DEFAULT_GRID_SPEC = "log:1e-2,1e4,600"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run depends on; exactly one source, a graph or a DOS,
    must be set. A DOS is a family's spec or `levels:PATH`, the path of a
    table of levels (`spectral.read_levels`) taken whole after the colon."""

    graph: str | None = None
    dos: str | None = None
    grid: str = DEFAULT_GRID_SPEC
    fit_window: tuple[float, float] = (1.0, 100.0)
    vectors: bool = False
    chi: bool = False
    fit_model: str = "auto"
    out: str = "out"

    def validate(self):
        """ParseError unless the config has one source, a known fit model,
        vectors and chi only with a graph, and a fit window the fits take."""
        sources = f"graph={self.graph!r} dos={self.dos!r}"
        if [self.graph, self.dos].count(None) != 1:
            raise ParseError("config must set exactly one of graph/dos",
                             text=sources, position=0)
        if self.fit_model not in ("auto", "power", "stretched"):
            raise ParseError(f"unknown fit model {self.fit_model!r}",
                             text=self.fit_model, position=0)
        if self.graph is None and (self.vectors or self.chi):
            raise ParseError("vectors and chi need a graph run; a DOS has no "
                             "eigenvectors", text=sources, position=0)
        # the fit window, by the bound the fits enforce, before anything is
        # computed or written
        check_fit_window(self.fit_window)


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
    """Record of one run: the set options its subcommand takes, artifact
    checksums, version, duration, the seconds spent in each stage that
    ran, and diagnostics: for graph and levels runs which path produced
    the spectrum, its cluster count and, where built, where the projectors
    came from and the eigenpair residual, and with two or more clusters
    the smallest gap between adjacent cluster values over the cluster
    tolerance; with chi its largest column-sum error and mean return
    probability; for analysed runs the envelope point count."""

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


# each subcommand, in help order: its help, the stages of its run and the
# flags it takes, by config field: its sources and the options it reads
_RUN_FLAGS = ("graph", "dos", "out", "grid", "fit_window", "vectors", "chi", "fit_model")
_SUBCOMMANDS = {
    "run": ("full pipeline: series, spectrum, analysis",
            ("series", "spectrum", "analysis"), _RUN_FLAGS),
    "spectrum": ("eigenvalues and degeneracies only", ("spectrum",), ("graph", "out", "chi")),
    "transport": ("transport series only", ("series",),
                  ("graph", "dos", "out", "grid", "vectors", "chi")),
    "preset": ("run a documented preset", ("series", "spectrum", "analysis"), _RUN_FLAGS),
}
# the fixed-name artifacts besides manifest.txt
_ARTIFACTS = ("series.csv", "spectrum.csv", "degeneracies.csv", "chi.csv", "report.txt",
              "deltap.csv")


def _artifacts(config: ExperimentConfig, source: str, stages) -> set[str]:
    """The _ARTIFACTS a run writes. An output directory that holds any
    other is refused with ParseError, as another run's artifacts would be
    left beside this run's."""
    writes = {"chi.csv"} if config.chi else set()
    if source == "graph" and "spectrum" in stages:
        writes |= {"spectrum.csv", "degeneracies.csv"}
    if "series" in stages:
        writes.add("series.csv")
    if "analysis" in stages:
        writes |= {"report.txt", "deltap.csv"}
    out_dir = Path(config.out)
    held = [name for name in _ARTIFACTS if name not in writes and (out_dir / name).exists()]
    if held:
        raise ParseError(f"output directory {out_dir} holds {', '.join(held)}, which "
                         f"this run does not write; give the run a directory of its own")
    return writes


def run_experiment(config: ExperimentConfig, command: str = "run") -> RunManifest:
    """Run the pipeline as subcommand `command` does, write its artifacts
    and return the written manifest.

    The subcommand's row of `_SUBCOMMANDS` gives the stages, the sources
    it takes and the options it reads, which the manifest echoes where
    set. A source it does not take (`spectrum` from a DOS) raises
    ParseError, as its flag does on the command line, and so does an
    output directory holding another run's artifacts, both before any
    work. A levels table (`dos="levels:PATH"`) is read as the spectrum
    stage and takes a graph's series and `auto` fit model, the power law,
    but writes no spectrum files. Every stage computes before the first
    write, which makes the output directory, so a run whose computation
    fails writes nothing.
    """
    config.validate()
    _, stages, flags = _SUBCOMMANDS[command]
    source = "graph" if config.dos is None else "dos"
    if source not in flags:
        raise ParseError(f"{command} does not take a {source} source",
                         text=getattr(config, source), position=0)
    writes = _artifacts(config, source, stages)
    started = time.monotonic()
    # only a computed series reads the grid, parsed before any other work
    grid = parse_grid_spec(config.grid) if "series.csv" in writes else None
    manifest = RunManifest(config={
        name: ",".join(repr(float(x)) for x in value) if isinstance(value, tuple)
        else str(value) for name in flags if (value := getattr(config, name)) is not None})
    spectrum = chi = series = report = None
    stretched = config.fit_model == "stretched"
    family, _, levels = (config.dos or "").partition(":")
    if config.graph is not None or family.strip().lower() == "levels":
        # the spectrum stage writes eigenvalues only; --vectors serves the
        # series, --chi its own artifact
        with_vectors = config.chi or (config.vectors and "series" in stages)
        with manifest.stage("spectrum"):
            spectrum = (read_levels(levels) if config.graph is None else
                        graph_spectrum(parse_graph_spec(config.graph), with_vectors=with_vectors))
        manifest.diagnostics.update(spectrum_diagnostics(spectrum))
        if config.chi:
            with manifest.stage("chi"):
                chi = chi_table(spectrum)
                manifest.diagnostics.update(chi_diagnostics(*chi))
        if "series" in stages:
            with manifest.stage("series"):
                series = transport_series(spectrum, grid, with_exact_quantum=config.vectors)
    else:
        dos = parse_dos_spec(config.dos)
        if config.fit_model == "auto":
            stretched = isinstance(asymptotic_law(dos, "classical"), StretchedExpDecay)
        with manifest.stage("series"):
            series = continuum_series(dos, grid)
    if "analysis" in stages:
        with manifest.stage("analysis"):
            report = efficiency_report(series.times, series.p_bar, series.alpha_bar_sq,
                                       config.fit_window, stretched=stretched)
        manifest.diagnostics["analysis.envelope_points"] = str(report.envelope_points)

    out_dir = Path(config.out)
    if "chi.csv" in writes:
        _write(out_dir, "chi.csv", manifest, chi_csv, *chi)
        chi = None  # the table is not kept past its write
    if "spectrum.csv" in writes:
        _write(out_dir, "spectrum.csv", manifest, spectrum_csv, spectrum)
        _write(out_dir, "degeneracies.csv", manifest, degeneracies_csv, spectrum)
    # every subcommand that analyses writes its series, whose t column's
    # text deltap.csv reuses
    if "series.csv" in writes:
        times_text = _write(out_dir, "series.csv", manifest, series_csv, series)
    if "report.txt" in writes:
        _write(out_dir, "report.txt", manifest, report_text, report)
        _write(out_dir, "deltap.csv", manifest, ratio_csv, report.ratio,
               series.times, times_text)
    return _finish(manifest, out_dir, started)


# -- argument parsing ---------------------------------------------------------

# argparse keywords of each flag, by the config field it sets
_FLAGS = {
    "graph": dict(help="graph spec, e.g. ring:200 or er:1000,0.1,seed=1"),
    "dos": dict(help="DOS spec, e.g. semicircle:nu=0.5,lmax=2, or levels:PATH of a "
                     "value,multiplicity table such as a run's degeneracies.csv"),
    "out": dict(help="output directory (default: out)"),
    "grid": dict(help=f"time grid spec (default: {DEFAULT_GRID_SPEC})"),
    "fit_window": dict(help="window LO,HI of both fits (default: 1,100)"),
    "vectors": dict(action="store_true", default=None,
                    help="add the exact quantum average pi_bar to the series "
                         "(projectors: closed-form pair orbits on ring, torus, "
                         "star and dendrimer, dense eigenvectors elsewhere)"),
    "chi": dict(action="store_true", default=None,
                help="write the long-time average transition matrix"),
    "fit_model": dict(choices=("auto", "power", "stretched")),
}


def _config_from_args(args, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """base, by default the default config, with each flag given set on
    the field of its name; --fit-window arrives as LO,HI text."""
    flags = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
             if getattr(args, f.name, None) is not None}
    if "fit_window" in flags:
        lo, _, hi = flags["fit_window"].partition(",")
        try:
            flags["fit_window"] = (float(lo), float(hi))
        except ValueError:
            raise ParseError(f"bad value for --fit-window: window needs LO,HI: "
                             f"{flags['fit_window']!r}") from None
    return replace(base or ExperimentConfig(), **flags)


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
    for command, (text, _, flags) in _SUBCOMMANDS.items():
        sub = subs.add_parser(command, help=text)
        if command == "preset":
            sub.add_argument("name", help=f"one of {sorted(PRESETS)}")
        for name in flags:
            sub.add_argument(f"--{name.replace('_', '-')}", **_FLAGS[name])
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        base = preset(args.name) if args.command == "preset" else None
        cfg = _config_from_args(args, base=base)
        run_experiment(cfg, args.command)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
