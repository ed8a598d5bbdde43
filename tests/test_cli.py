import argparse
import hashlib
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import specwalk._csvtext as _csvtext
import specwalk.cli as cli
import specwalk.graphs as graphs
import specwalk.scaling as scaling
import specwalk.spectral as spectral
import specwalk.transport as transport
from specwalk import (Graph, NumericalError, ParseError, ResourceLimitError,
                      graph_spectrum, parse_graph_spec)
from specwalk.scaling import extract_envelope
from specwalk.spectral import default_cluster_tol, projector_factor
from specwalk.cli import ExperimentConfig, build_parser, main, preset, run_experiment
from specwalk.transport import parse_grid_spec


class TestParseGridSpec:
    def test_log_includes_zero(self):
        grid = parse_grid_spec("log:1e-2,1e4,600")
        assert grid.times[0] == 0.0
        assert len(grid) == 601

    def test_linear(self):
        grid = parse_grid_spec("linear:1,10,10")
        np.testing.assert_allclose(grid.times, np.linspace(1, 10, 10))

    def test_composite(self):
        grid = parse_grid_spec("linear:0.1,5,50+log:5,100,20")
        assert np.all(np.diff(grid.times) > 0)

    @pytest.mark.parametrize("bad", ["log:1,10", "weird:1,10,5", "log:a,b,c"])
    def test_bad_specs(self, bad):
        with pytest.raises(ParseError):
            parse_grid_spec(bad)

    @pytest.mark.parametrize("bad", ["linear:0,10,0", "log:1,10,-5+linear:0,1,3"])
    def test_segments_need_points(self, bad):
        with pytest.raises(ParseError, match="N >= 1"):
            parse_grid_spec(bad)

    @pytest.mark.parametrize("spec", [
        "linear:0,10,2000000000",
        f"linear:0,1,{transport.MAX_GRID_POINTS // 2}+log:1,10,"
        f"{transport.MAX_GRID_POINTS // 2 + 1}",
    ])
    def test_size_cap_before_allocation(self, spec, monkeypatch, capsys, tmp_path):
        def boom(*args, **kwargs):
            raise AssertionError("grid built before the size check")

        monkeypatch.setattr(transport, "linear_grid", boom)
        monkeypatch.setattr(transport, "log_grid", boom)
        with pytest.raises(ResourceLimitError, match="exceeds the limit"):
            parse_grid_spec(spec)
        out = tmp_path / "o"
        assert main(["run", "--graph", "ring:10", "--grid", spec, "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: grid of") and err.count("\n") == 1

    @pytest.mark.parametrize("spec, position", [
        ("log:0,10,5", 0), ("log:-1,10,5", 0), ("log:5,-1,1", 0), ("linear:-1,10,5", 0),
        ("linear:0,inf,5", 0), ("linear:nan,1,1", 0), ("linear:1,1,3", 0),
        ("linear:0,1,3+log:5,1,4", 13)])
    def test_impossible_bounds_raise_at_their_segment(self, spec, position, recwarn):
        with pytest.raises(ParseError, match="grid segment needs") as err:
            parse_grid_spec(spec)
        assert err.value.position == position
        assert not recwarn.list

    @pytest.mark.parametrize("spec, last", [("linear:5,-1,1", 5.0), ("log:5,1,1", 5.0),
                                            ("linear:0,0,1", 0.0)])
    def test_one_point_segment_takes_any_finite_hi(self, spec, last):
        assert parse_grid_spec(spec).times[-1] == last

    @pytest.mark.parametrize("spec", ["log:0,10,5", "log:-1,10,5"])
    def test_impossible_bounds_exit_one(self, spec, tmp_path):
        # a subprocess, so that a warning numpy prints shows on stderr
        out = tmp_path / "o"
        run = subprocess.run(
            [sys.executable, "-c", "import sys; from specwalk.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "run", "--graph", "ring:10",
             "--grid", spec, "--out", str(out)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")})
        assert run.returncode == 1
        assert run.stderr.startswith("error: log grid segment needs")
        assert run.stderr.count("\n") == 1
        assert not out.exists()

    def test_size_cap_is_inclusive(self, monkeypatch):
        made = []
        monkeypatch.setattr(transport, "linear_grid", lambda *args: made.append(args))
        parse_grid_spec(f"linear:0,1,{transport.MAX_GRID_POINTS}")
        assert made == [(0.0, 1.0, transport.MAX_GRID_POINTS)]


class TestConfig:
    def test_requires_exactly_one_spec(self):
        with pytest.raises(ParseError):
            ExperimentConfig().validate()
        with pytest.raises(ParseError):
            ExperimentConfig(graph="ring:10", dos="lifshits:b=2").validate()
        ExperimentConfig(graph="ring:10").validate()

    # a value for each flag, and what it sets its field to
    FLAG_VALUES = {"graph": ("ring:8", "ring:8"), "dos": ("lifshits:b=2", "lifshits:b=2"),
                   "series": ("s.csv", "s.csv"), "grid": ("log:1,10,5", "log:1,10,5"),
                   "fit_window": ("2,50", (2.0, 50.0)), "vectors": (None, True),
                   "chi": (None, True), "fit_model": ("power", "power"), "out": ("o", "o")}

    @staticmethod
    def flags(command):
        """{dest: option strings} of the flags of a subcommand."""
        subs = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
        return {action.dest: action.option_strings
                for action in subs.choices[command]._actions
                if action.option_strings and action.dest != "help"}

    @pytest.mark.parametrize("command", sorted(cli._SUBCOMMANDS))
    def test_every_flag_sets_the_field_of_its_name(self, command):
        flags = self.flags(command)
        argv = [command, *(["fig3"] if command == "preset" else [])]
        for dest, options in flags.items():
            assert options == [f"--{dest.replace('_', '-')}"]
            text = self.FLAG_VALUES[dest][0]
            argv += [options[0]] + ([] if text is None else [text])
        config = cli._config_from_args(build_parser().parse_args(argv))
        for dest in flags:
            assert getattr(config, dest) == self.FLAG_VALUES[dest][1]

    def test_every_field_has_a_flag(self):
        names = {f.name for f in fields(ExperimentConfig)}
        assert names == set(self.FLAG_VALUES)
        assert set(self.flags("run")) == names - {"series"}
        assert "series" in self.flags("fit")

    # each subcommand's flags: its sources and the options its stages read
    RUN_FLAGS = {"graph", "dos", "out", "grid", "fit_window", "vectors", "chi", "fit_model"}
    SUBCOMMAND_FLAGS = {"run": RUN_FLAGS, "preset": RUN_FLAGS,
                        "spectrum": {"graph", "out", "chi"},
                        "transport": {"graph", "dos", "out", "grid", "vectors", "chi"},
                        "fit": {"series", "out", "fit_window", "fit_model"}}

    @pytest.mark.parametrize("command", sorted(cli._SUBCOMMANDS))
    def test_subcommand_takes_the_flags_its_stages_read(self, command):
        assert set(self.flags(command)) == self.SUBCOMMAND_FLAGS[command]

    # the config lines of each subcommand's manifest: the fields of its
    # flags that are set, which leaves out the source it was not given
    RECORDED = {"run": RUN_FLAGS - {"dos"}, "preset": RUN_FLAGS - {"dos"},
                "spectrum": {"graph", "out", "chi"},
                "transport": {"graph", "out", "grid", "vectors", "chi"},
                "fit": {"series", "out", "fit_window", "fit_model"}}

    @pytest.mark.parametrize("command", sorted(cli._SUBCOMMANDS))
    def test_manifest_records_the_set_flags_of_its_subcommand(self, tmp_path, command):
        grid = ["--grid", "log:1e-2,1e2,80"]
        args = {"run": ["--graph", "ring:24", *grid], "preset": ["fig3"],
                "spectrum": ["--graph", "ring:24"],
                "transport": ["--graph", "ring:24", *grid],
                "fit": ["--series"]}[command]
        if command == "fit":
            args.append(str(_series_file(tmp_path)))
        out = tmp_path / "d"
        assert main([command, *args, "--out", str(out)]) == 0
        lines = (out / "manifest.txt").read_text().splitlines()
        assert {ln.split(" = ")[0].removeprefix("config.") for ln in lines
                if ln.startswith("config.")} == self.RECORDED[command]

    # the flags that the subcommands took and then ignored or refused
    @pytest.mark.parametrize("command, dest", [
        ("spectrum", "dos"), ("spectrum", "grid"), ("spectrum", "fit_window"),
        ("spectrum", "vectors"), ("spectrum", "fit_model"),
        ("transport", "fit_window"), ("transport", "fit_model"),
        ("fit", "grid"), ("fit", "vectors"), ("fit", "chi")])
    def test_flag_the_stages_do_not_read_is_a_usage_error(self, tmp_path, capsys,
                                                         command, dest):
        source = ["--series", "s.csv"] if command == "fit" else ["--graph", "ring:8"]
        flag, value = f"--{dest.replace('_', '-')}", self.FLAG_VALUES[dest][0]
        out = tmp_path / "o"
        rc = main([command, *source, flag, *([] if value is None else [value]),
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: unrecognized arguments: {flag}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["log:1,10", f"linear:0,1,{transport.MAX_GRID_POINTS + 1}"],
                             ids=["bad", "over-limit"])
    def test_bad_grid_fails_before_the_solve(self, tmp_path, capsys, monkeypatch, grid):
        def boom(*args, **kwargs):
            raise AssertionError("decompose called")

        monkeypatch.setattr(spectral, "decompose", boom)
        out = tmp_path / "o"
        assert main(["run", "--graph", "er:40,0.2,seed=1", "--grid", grid,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: grid") and err.count("\n") == 1
        assert not out.exists()
        # the patch is on the solve's path
        with pytest.raises(AssertionError, match="decompose called"):
            main(["run", "--graph", "er:40,0.2,seed=1", "--out", str(out)])


class TestColdStart:
    """scipy loads only where a run needs it: a continuum density, or a
    dense solve where its bundled OpenBLAS cannot be bound; never for a
    closed-form graph run. A dense run binds the LAPACK drivers without
    importing scipy.linalg, and checks its eigenpairs without
    scipy.sparse."""

    @pytest.mark.parametrize("args", [
        None, ["preset", "fig2a"],
        ["run", "--graph", "dendrimer:5,3", "--vectors", "--chi"],
        pytest.param(["run", "--graph", "er:300,0.1,seed=1", "--vectors", "--chi"],
                     marks=pytest.mark.skipif(spectral._lapack() is None,
                                              reason="no bundled OpenBLAS to bind"))],
        ids=["import", "fig2a", "dendrimer-chi", "er-dense-chi"])
    def test_loads_no_scipy(self, tmp_path, args):
        run = "" if args is None else f"assert main({args + ['--out', str(tmp_path)]!r}) == 0"
        script = textwrap.dedent(f"""
            import sys
            sys.path.insert(0, {str(Path(__file__).parents[1] / "src")!r})
            from specwalk.cli import main
            {run}
            print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """)
        out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestNodeCap:
    """Every n x n array checks the node cap before it is allocated."""

    @pytest.fixture
    def cap_50(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("n x n array built above the node cap")

        monkeypatch.setattr(graphs, "DEFAULT_SIZE_CAP", 50)
        monkeypatch.setattr(spectral, "_lower_laplacian", boom)
        monkeypatch.setattr(spectral.ShellTree, "orbit_index", boom)
        monkeypatch.setattr(spectral.TorusPairs, "orbit_index", boom)

    @pytest.mark.parametrize("spec", ["dendrimer:5,3", "star:60", "ring:60", "torus:8,2"])
    def test_chi_above_the_cap_exits_one(self, cap_50, spec, capsys, tmp_path):
        out = tmp_path / "o"
        rc = main(["run", "--graph", spec, "--chi", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "size cap 50" in err and err.count("\n") == 1
        # chi is checked before the first artifact, which makes the directory
        assert not out.exists()

    @pytest.mark.parametrize("with_vectors", [False, True], ids=["values", "vectors"])
    def test_general_graph_above_the_cap(self, cap_50, with_vectors):
        with pytest.raises(ResourceLimitError, match="51 nodes exceeds size cap 50"):
            graph_spectrum(Graph(n=51, edges=[(0, 1)]), with_vectors=with_vectors)

    @pytest.mark.parametrize("args", [
        ["spectrum", "--graph", "dendrimer:5,3"],
        ["spectrum", "--graph", "ring:60"],
        ["transport", "--graph", "star:60", "--vectors", "--grid", "log:1e-2,1e2,50"],
        ["transport", "--graph", "torus:8,2", "--vectors", "--grid", "log:1e-2,1e2,50"]])
    def test_closed_forms_pass_the_cap(self, cap_50, args, tmp_path):
        assert main([*args, "--out", str(tmp_path / "o")]) == 0

    def test_torus_above_the_cap(self, tmp_path, capsys):
        # torus:200,2 has 40,000 nodes: its series take no n x n array, and
        # on a vertex-transitive graph pi_bar is |alpha_bar|^2
        out = tmp_path / "t"
        assert main(["transport", "--graph", "torus:200,2", "--vectors",
                     "--grid", "log:1e-2,1e4,200", "--out", str(out)]) == 0
        series = transport.read_series_csv(out / "series.csv")
        assert np.abs(series.pi_bar - series.alpha_bar_sq).max() <= 1e-13
        rc = main(["run", "--graph", "torus:200,2", "--chi", "--out", str(tmp_path / "c")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "error: chi of 40000 nodes exceeds size cap 5000\n"
        assert not (tmp_path / "c").exists()


class TestPresets:
    def test_known_presets(self):
        assert preset("fig2a").graph == "ring:200"
        assert preset("fig3").vectors is True
        assert preset("fig1a").dos == "semicircle:nu=-0.5,lmax=4"
        assert preset("fig1b").dos == "semicircle:nu=0.5,lmax=2"
        assert preset("fig2b").graph == "dendrimer:10,3"

    def test_unknown_preset(self):
        with pytest.raises(ParseError):
            preset("fig99")


class TestRunExperiment:
    def test_star_run_writes_everything(self, tmp_path):
        cfg = ExperimentConfig(graph="star:10", out=str(tmp_path / "star"),
                              grid="linear:0.1,120,1200+log:120,1e4,100",
                              fit_window=(1.0, 100.0), vectors=True)
        manifest = run_experiment(cfg)
        out = tmp_path / "star"
        for name in ("series.csv", "spectrum.csv", "degeneracies.csv",
                     "report.txt", "deltap.csv", "manifest.txt"):
            assert (out / name).is_file()
        assert manifest.verify(out)
        header = (out / "series.csv").read_text().splitlines()[0]
        assert header == "t,p_bar,alpha_bar_sq,pi_bar"
        report = (out / "report.txt").read_text()
        assert "saturation_quantum_mean" in report

    def test_dos_run_skips_spectrum_files(self, tmp_path):
        cfg = ExperimentConfig(dos="lifshits:b=2", out=str(tmp_path / "lif"),
                              grid="log:1e-2,1e3,120",
                              fit_window=(10.0, 1000.0))
        manifest = run_experiment(cfg)
        out = tmp_path / "lif"
        assert not (out / "spectrum.csv").exists()
        assert (out / "series.csv").is_file()
        assert "series.csv" in manifest.files
        report = (out / "report.txt").read_text()
        # auto model selection picks the stretched-exponential family
        assert "classical_model = stretched_exp" in report

    def test_chi_artifact(self, tmp_path):
        cfg = ExperimentConfig(graph="ring:8", out=str(tmp_path / "chi"),
                              grid="log:1e-2,1e2,50", chi=True)
        manifest = run_experiment(cfg)
        chi_lines = (tmp_path / "chi" / "chi.csv").read_text().splitlines()
        assert chi_lines[0].startswith("node,")
        assert "chi.csv" in manifest.files

    def test_determinism_across_directories(self, tmp_path):
        base = dict(graph="er:40,0.2,seed=7", grid="log:1e-2,1e3,150",
                    fit_window=(1.0, 100.0))
        a = run_experiment(ExperimentConfig(out=str(tmp_path / "a"), **base))
        b = run_experiment(ExperimentConfig(out=str(tmp_path / "b"), **base))
        for name in a.files:
            if name.endswith(".csv"):
                assert (tmp_path / "a" / name).read_bytes() == \
                    (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("n", [3, 30, 200])
    def test_ring_is_the_1d_torus(self, tmp_path, n):
        runs = {}
        for spec in (f"ring:{n}", f"torus:{n},1"):
            out = tmp_path / spec.replace(":", "_")
            runs[spec] = run_experiment(ExperimentConfig(
                graph=spec, vectors=True, chi=True, grid="log:1e-2,1e3,120", out=str(out)))
        ring, torus = runs.values()
        assert "chi.csv" in ring.files and ring.files == torus.files


def _series_file(tmp_path):
    """The series.csv of a transport run on ring:24."""
    out = tmp_path / "src"
    run_experiment(ExperimentConfig(graph="ring:24", grid="linear:0.05,120,2400",
                                    out=str(out)), "transport")
    return out / "series.csv"


class TestMainSubcommands:
    def test_run_exit_zero(self, tmp_path):
        rc = main(["run", "--graph", "star:10", "--out", str(tmp_path / "r"),
                   "--grid", "linear:0.1,120,600+log:120,1e3,50"])
        assert rc == 0

    def test_spectrum_only(self, tmp_path):
        out = tmp_path / "spec"
        rc = main(["spectrum", "--graph", "ring:16", "--out", str(out)])
        assert rc == 0
        assert (out / "spectrum.csv").is_file()
        assert (out / "degeneracies.csv").is_file()
        assert not (out / "series.csv").exists()

    def test_spectrum_vectors_solves_for_values_only(self, tmp_path):
        # the spectrum stage writes eigenvalues only, so vectors asks for
        # no eigenvectors and no residual check
        out = tmp_path / "spec"
        run_experiment(ExperimentConfig(graph="er:300,0.05,seed=2", vectors=True,
                                        out=str(out)), "spectrum")
        lines = (out / "manifest.txt").read_text().splitlines()
        diag = dict(ln.split(" = ") for ln in lines if ln.startswith("spectrum."))
        assert diag["spectrum.path"] == "dense"
        assert diag["spectrum.solver"] == "syevd"
        assert float(diag["spectrum.trace_error"]) <= 1e-9
        assert "spectrum.vectors" not in diag
        assert "spectrum.residual" not in diag
        assert sorted(p.name for p in out.iterdir()) == [
            "degeneracies.csv", "manifest.txt", "spectrum.csv"]

    def test_spectrum_chi_still_solves_for_vectors(self, tmp_path):
        out = tmp_path / "spec"
        assert main(["spectrum", "--graph", "er:30,0.3,seed=2", "--chi",
                     "--out", str(out)]) == 0
        assert "spectrum.vectors = dense" in (out / "manifest.txt").read_text()
        assert (out / "chi.csv").is_file()

    def test_spectrum_requires_graph(self, tmp_path):
        rc = main(["spectrum", "--dos", "lifshits:b=2", "--out", str(tmp_path / "x")])
        assert rc == 1

    @pytest.mark.parametrize("b", ["150", "200", "1000"])
    def test_transport_of_a_steep_lifshits_tail(self, tmp_path, b):
        # kve overflows at these b; the run still exits 0, and quietly
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["transport", "--dos", f"lifshits:b={b}", "--grid",
                         "log:1e-2,1e2,10", "--out", str(tmp_path)]) == 0
        assert len((tmp_path / "series.csv").read_text().splitlines()) == 12

    def test_transport_only(self, tmp_path):
        out = tmp_path / "tr"
        rc = main(["transport", "--dos", "semicircle:nu=0.5,lmax=2",
                   "--grid", "linear:0.5,30,120", "--out", str(out)])
        assert rc == 0
        assert (out / "series.csv").is_file()
        assert not (out / "report.txt").exists()

    def test_fit_subcommand(self, tmp_path):
        src = tmp_path / "src"
        assert main(["transport", "--graph", "ring:24",
                     "--grid", "linear:0.05,120,2400", "--out", str(src)]) == 0
        out = tmp_path / "fitted"
        rc = main(["fit", "--series", str(src / "series.csv"),
                   "--out", str(out), "--fit-window", "1,20"])
        assert rc == 0
        assert "classical_exponent" in (out / "report.txt").read_text()

    @pytest.mark.parametrize("flag", ["--chi", "--vectors"])
    def test_fit_refuses_vectors_and_chi(self, tmp_path, capsys, flag):
        src = tmp_path / "src"
        assert main(["transport", "--graph", "ring:24",
                     "--grid", "linear:0.05,120,2400", "--out", str(src)]) == 0
        capsys.readouterr()
        out = tmp_path / "fitted"
        rc = main(["fit", "--series", str(src / "series.csv"), flag,
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        # fit has no such flag: a usage error
        assert err == f"error: unrecognized arguments: {flag}\n"
        assert not out.exists()

    @pytest.mark.parametrize("sources", [
        dict(graph="er:50,0.2"), dict(dos="lifshits:b=2"),
        dict(graph="er:50,0.2", dos="lifshits:b=2"),
    ], ids=["graph", "dos", "graph-and-dos"])
    def test_fit_refuses_a_second_source(self, tmp_path, sources):
        series = _series_file(tmp_path)
        out = tmp_path / "fitted"
        with pytest.raises(ParseError, match="exactly one of graph/dos/series"):
            run_experiment(ExperimentConfig(series=str(series), **sources, out=str(out)),
                           "fit")
        assert not out.exists()

    def test_fit_manifest_echoes_the_series(self, tmp_path):
        series = _series_file(tmp_path)
        out = tmp_path / "fitted"
        assert main(["fit", "--series", str(series), "--out", str(out)]) == 0
        lines = (out / "manifest.txt").read_text().splitlines()
        assert f"config.series = {series}" in lines

    def test_fit_parses_its_grid(self, tmp_path, capsys):
        # fit reads its times from the series, so it takes no grid at all
        series = _series_file(tmp_path)
        rc = main(["fit", "--series", str(series), "--grid", "log:1,10",
                   "--out", str(tmp_path / "fitted")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "error: unrecognized arguments: --grid log:1,10\n"
        assert not (tmp_path / "fitted").exists()

    @pytest.mark.parametrize("command, artifacts", [
        (["run", "--graph", "star:10", "--grid", "log:1e-2,1e4,200"],
         ["degeneracies.csv", "deltap.csv", "report.txt", "series.csv", "spectrum.csv"]),
        (["preset", "fig3", "--grid", "log:1e-2,1e4,200"],
         ["degeneracies.csv", "deltap.csv", "report.txt", "series.csv", "spectrum.csv"]),
        (["spectrum", "--graph", "star:10"], ["degeneracies.csv", "spectrum.csv"]),
        (["transport", "--graph", "star:10", "--grid", "log:1e-2,1e4,200"], ["series.csv"]),
        (["fit"], ["deltap.csv", "report.txt"]),
    ], ids=["run", "preset", "spectrum", "transport", "fit"])
    def test_subcommand_artifact_sets(self, tmp_path, command, artifacts):
        if command == ["fit"]:
            command = ["fit", "--series", str(_series_file(tmp_path))]
        out = tmp_path / "out"
        assert main([*command, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [*artifacts, "manifest.txt"])

    @pytest.mark.parametrize("spec", [
        f"{family}:{params}" for value in ("inf", "-inf", "nan")
        for family, params in [("semicircle", f"nu={value},lmax=2"),
                               ("semicircle", f"nu=0.5,lmax={value}"),
                               ("lifshits", f"b={value}")]])
    def test_non_finite_dos_parameters_exit_one(self, tmp_path, capsys, recwarn, spec):
        rc = main(["run", "--dos", spec, "--grid", "log:1e-2,1e2,40",
                   "--out", str(tmp_path / "d")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "finite" in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_preset_subcommand(self, tmp_path):
        rc = main(["preset", "fig3", "--out", str(tmp_path / "fig3")])
        assert rc == 0
        assert (tmp_path / "fig3" / "series.csv").is_file()

    def test_semicircle_run_reports_quantum_exponent(self, tmp_path):
        out = tmp_path / "sc"
        rc = main(["run", "--dos", "semicircle:nu=0.5,lmax=2",
                   "--grid", "linear:8,110,1021", "--fit-window", "10,100",
                   "--out", str(out)])
        assert rc == 0
        report = (out / "report.txt").read_text()
        line = [ln for ln in report.splitlines()
                if ln.startswith("quantum_exponent")][0]
        assert float(line.split(" = ")[1]) == pytest.approx(-3.0, abs=0.15)

    def test_star_run_reports_saturation_near_dominant_term(self, tmp_path):
        out = tmp_path / "star10"
        rc = main(["run", "--graph", "star:10", "--vectors",
                   "--grid", "linear:0.1,120,1200+log:120,1e4,100", "--out", str(out)])
        assert rc == 0
        report = (out / "report.txt").read_text()
        line = [ln for ln in report.splitlines()
                if ln.startswith("saturation_quantum_mean")][0]
        assert float(line.split(" = ")[1]) == pytest.approx(0.64, abs=0.08)

    def test_empty_config_is_parse_error(self, tmp_path):
        rc = main(["run", "--out", str(tmp_path / "none")])
        assert rc == 1

    def test_bad_graph_spec_exit_one(self, tmp_path):
        rc = main(["run", "--graph", "blob:7", "--out", str(tmp_path / "bad")])
        assert rc == 1

    @pytest.mark.parametrize("source", [["--graph", "blob:7"], ["--dos", "lifshits:b=inf"],
                                        ["--graph", "ring:1000000000"]])
    def test_failed_source_makes_no_directory(self, tmp_path, source):
        # the output directory is made at the first write
        out = tmp_path / "a" / "b"
        assert main(["run", *source, "--out", str(out)]) == 1
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("command, source", [("spectrum", "dos")])
    def test_stage_set_computing_nothing_exits_one(self, tmp_path, capsys, command, source):
        # the subcommand takes no such source: a usage error
        out = tmp_path / "out"
        assert main([command, f"--{source}", "lifshits:b=2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: unrecognized arguments: --{source} lifshits:b=2\n"
        assert not out.exists()

    @pytest.mark.parametrize("config, stages", [
        (ExperimentConfig(graph="ring:8"), ("analysis",)),
        (ExperimentConfig(dos="lifshits:b=2"), ("analysis",)),
        (ExperimentConfig(dos="lifshits:b=2"), ("spectrum",)),
        # refused before the series, which is not there, is read
        (ExperimentConfig(series="series.csv"), ("series",)),
        (ExperimentConfig(series="series.csv"), ("spectrum",))])
    def test_run_refuses_a_stage_set_computing_nothing(self, tmp_path, config, stages):
        # the one subcommand that runs these stages alone does not take the source
        command, = (name for name, (_, run, _) in cli._SUBCOMMANDS.items() if run == stages)
        with pytest.raises(ParseError, match=f"^{command} does not take a"):
            run_experiment(replace(config, out=str(tmp_path / "o")), command)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, source", [("run", "series"), ("preset", "series")])
    def test_run_refuses_a_source_its_subcommand_does_not_take(self, tmp_path, command,
                                                              source):
        # refused before the series, which is not there, is read
        specs = {"graph": "ring:8", "dos": "lifshits:b=2",
                 "series": str(tmp_path / "missing.csv")}
        config = ExperimentConfig(**{source: specs[source]}, out=str(tmp_path / "o"))
        with pytest.raises(ParseError, match=f"^{command} does not take a {source} source"):
            run_experiment(config, command)
        assert not (tmp_path / "o").exists()

    def test_unknown_preset_exit_one(self, tmp_path):
        rc = main(["preset", "fig99", "--out", str(tmp_path / "p")])
        assert rc == 1

    @pytest.mark.parametrize("args, flag", [
        # no --seed flag: an ER seed comes only from the spec's seed= key
        (["run", "--graph", "ring:10", "--seed", "abc"], "--seed"),
        # the envelope width and the tail fraction are no run options
        (["run", "--graph", "ring:10", "--envelope-width", "2.5"], "--envelope-width"),
        (["run", "--graph", "ring:10", "--tail-fraction", "tenth"], "--tail-fraction"),
        (["fit"], "--series"),
        # a run is configured by its flags alone
        (["run", "--graph", "ring:10", "--config", "x.cfg"], "--config"),
    ])
    def test_usage_errors_exit_one(self, tmp_path, capsys, args, flag):
        # exit code 2 is kept for numerical failures
        rc = main([*args, "--out", str(tmp_path / "u")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert flag in err and "usage" not in err
        assert not (tmp_path / "u").exists()

    @pytest.mark.parametrize("value", ["1", "1;100", "a,b"])
    def test_fit_window_needs_lo_hi(self, tmp_path, capsys, value):
        out = tmp_path / "o"
        assert main(["run", "--graph", "ring:10", "--fit-window", value, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: bad value for --fit-window: window needs LO,HI: {value!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--vectors", "--chi"])
    def test_dos_run_refuses_vectors_and_chi(self, tmp_path, capsys, flag):
        out = tmp_path / "d"
        rc = main(["run", "--dos", "semicircle:nu=0.5,lmax=2", flag, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "need a graph" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, shown", [
        ("--fit-window", "100,1", "(100.0, 1.0)"),
    ], ids=["fit-window"])
    def test_bad_analysis_options_exit_before_any_work(self, tmp_path, capsys,
                                                       monkeypatch, flag, value, shown):
        def boom(*args, **kwargs):
            raise AssertionError("spectrum built before the options were checked")

        monkeypatch.setattr(cli, "graph_spectrum", boom)
        out = tmp_path / "a"
        rc = main(["run", "--graph", "ring:50", flag, value, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and shown in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["--graph", "ring:50", "--fit-window", "1e5,1e6"], "only 0 points in window"),
        (["--graph", "star:12", "--chi", "--vectors", "--fit-window", "1e5,1e6"],
         "only 0 points in window"),
        (["--dos", "semicircle:nu=0.5,lmax=2", "--grid", "linear:0,1,5"],
         "too short for half_width"),
        # the envelope of a nearly flat |alpha|^2 has its points before the window
        (["--dos", "lifshits:b=1000", "--grid", "log:1e-3,3e4,350"],
         "quantum envelope fit: only 0 points in window (1.0, 100.0); need >= 5; "
         "the 10 points given span t = 0.0011 to 0.0662"),
        # a grid whose step of 500 steps over the window
        (["--graph", "star:5", "--grid", "linear:1e-3,1e7,20000"],
         "classical p_bar fit: only 0 points in window (1.0, 100.0); need >= 5; "
         "the 20000 points given span t = 0.001 to 1e+07"),
        # one node: p_bar is 1 everywhere, so no point is left for the ratio
        (["--graph", "er:1,0.5"],
         "delta_p ratio: no valid points: series must lie strictly inside (0, 1)"),
    ], ids=["fit-window", "chi", "dos", "lifshits-envelope", "coarse-grid", "delta-p"])
    def test_failed_analysis_writes_nothing(self, tmp_path, capsys, args, message):
        # options within their bounds that the series cannot serve: the
        # analysis fails after every other stage has run, before any write
        out = tmp_path / "a"
        rc = main(["run", *args, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("key", ["vectors", "chi"])
    def test_dos_config_refuses_vectors_and_chi(self, key):
        with pytest.raises(ParseError, match="need a graph"):
            ExperimentConfig(dos="semicircle:nu=0.5,lmax=2", **{key: True}).validate()

    def test_numerical_failure_exit_two(self, monkeypatch, tmp_path):
        def boom(config, command="run"):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(cli, "run_experiment", boom)
        rc = main(["run", "--graph", "ring:10", "--out", str(tmp_path / "n")])
        assert rc == 2

    def test_eigensolver_failure_exits_two(self, monkeypatch, tmp_path, capsys):
        def failing(work, with_vectors):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(spectral, "_lapack",
                            lambda: {"syevd": failing, "syevd_2stage": failing})
        rc = main(["spectrum", "--graph", "er:30,0.3,seed=1", "--out", str(tmp_path / "n")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("numerical failure: ") and "30x30" in err
        assert err.count("\n") == 1


class TestOutputDirectory:
    """A run writes into a directory of its own: one that holds an artifact
    the run does not write, left by another run, is refused before any
    work, and nothing in it is written or deleted."""

    def test_another_runs_directory_is_refused(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["run", "--graph", "ring:20", "--chi", "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(["transport", "--graph", "star:12", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: output directory {out} holds spectrum.csv, degeneracies.csv, "
                       f"chi.csv, report.txt, deltap.csv, which this run does not write; "
                       f"give the run a directory of its own\n")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("command", [
        ["run", "--graph", "ring:20", "--chi"], ["spectrum", "--graph", "ring:20"],
        ["transport", "--dos", "lifshits:b=2"], ["preset", "fig3"]])
    def test_rerun_into_its_own_directory(self, tmp_path, command):
        out = tmp_path / "d"
        assert main([*command, "--out", str(out)]) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.txt"}
        assert main([*command, "--out", str(out)]) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()
                if p.name != "manifest.txt"} == first

    def test_fit_writes_beside_its_series(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["transport", "--graph", "ring:24", "--grid", "linear:0.05,120,2400",
                     "--out", "d"]) == 0
        series = (tmp_path / "d" / "series.csv").read_bytes()
        for path in ("d/series.csv", str(tmp_path / "d" / "series.csv")):
            assert main(["fit", "--series", path, "--out", "./d"]) == 0
        assert (tmp_path / "d" / "series.csv").read_bytes() == series
        assert sorted(p.name for p in (tmp_path / "d").iterdir()) == [
            "deltap.csv", "manifest.txt", "report.txt", "series.csv"]

    def test_fit_refuses_another_series_beside_it(self, tmp_path, capsys):
        series = _series_file(tmp_path)
        out = tmp_path / "d"
        assert main(["transport", "--graph", "star:12", "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(["fit", "--series", str(series), "--out", str(out)]) == 1
        assert f"{out} holds series.csv," in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @staticmethod
    def files(out):
        """The file.* lines of out/manifest.txt, by artifact name."""
        lines = (out / "manifest.txt").read_text().splitlines()
        return dict(ln.removeprefix("file.").split(" = ") for ln in lines
                    if ln.startswith("file."))

    def test_fit_beside_its_series_keeps_it_under_a_checksum(self, tmp_path):
        out = tmp_path / "fd"
        assert main(["transport", "--graph", "ring:24", "--out", str(out)]) == 0
        digest = self.files(out)["series.csv"]
        assert main(["fit", "--series", str(out / "series.csv"), "--out", str(out)]) == 0
        files = self.files(out)
        assert set(files) == {"series.csv", "report.txt", "deltap.csv"}
        assert files["series.csv"] == digest == cli._sha256(out / "series.csv")
        manifest = cli.RunManifest(config={}, files=files)
        assert manifest.verify(out)
        (out / "series.csv").write_text("tampered\n")
        assert not manifest.verify(out)

    def test_fit_elsewhere_lists_no_series(self, tmp_path):
        series = _series_file(tmp_path)
        out = tmp_path / "fitted"
        assert main(["fit", "--series", str(series), "--out", str(out)]) == 0
        assert set(self.files(out)) == {"report.txt", "deltap.csv"}


class TestFitModel:
    """fit_model picks the decay law of both fits; auto fits a stretched
    exponential to a Lifshits DOS only, and a power law to the rest."""

    @pytest.mark.parametrize("source", ["graph=ring:200", "dos=semicircle:nu=0.5,lmax=2",
                                        "dos=lifshits:b=2"])
    @pytest.mark.parametrize("model", ["auto", "power", "stretched"])
    @pytest.mark.parametrize("by", ["flag", "config"])
    def test_report_names_the_model(self, tmp_path, source, model, by):
        # by flags, or by an ExperimentConfig handed to run_experiment
        key, spec = source.split("=", 1)
        out = tmp_path / "o"
        settings = {key: spec, "grid": "linear:0.05,120,1200", "fit_model": model}
        if by == "flag":
            args = [arg for k, v in settings.items()
                    for arg in (f"--{k.replace('_', '-')}", v)]
            assert main(["run", *args, "--out", str(out)]) == 0
        else:
            run_experiment(ExperimentConfig(**settings, out=str(out)))
        report = dict(ln.split(" = ") for ln in (out / "report.txt").read_text().splitlines())
        stretched = model == "stretched" or (model == "auto" and spec.startswith("lifshits"))
        expected = "stretched_exp" if stretched else "power_law"
        assert report["classical_model"] == report["quantum_model"] == expected


class TestUnderflowingSeries:
    """A Lifshits series underflows to 0 inside the grid; its analysis
    leaves those points out of delta_p and counts them."""

    @staticmethod
    def check_exclusions(series_csv, out):
        data = np.loadtxt(series_csv, delimiter=",", skiprows=1)
        t, p, alpha = data[data[:, 0] > 0, :3].T
        # the quantum series does not oscillate, so it is its own envelope
        bad = ~((p > 0) & (p < 1) & (alpha > 0) & (alpha < 1))
        assert (alpha == 0).sum() > 0
        report = dict(ln.split(" = ") for ln in (out / "report.txt").read_text().splitlines())
        assert int(report["delta_p_excluded_points"]) == bad.sum()
        deltap = np.loadtxt(out / "deltap.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(deltap[:, 0], t[~bad])
        assert np.all(np.isfinite(deltap[:, 1]))

    def test_run(self, tmp_path):
        out = tmp_path / "run"
        assert main(["run", "--dos", "lifshits:b=2", "--grid", "log:1e-3,3e5,350",
                     "--fit-window", "50,2e4", "--out", str(out)]) == 0
        assert {f.name for f in out.iterdir()} == {
            "series.csv", "report.txt", "deltap.csv", "manifest.txt"}
        self.check_exclusions(out / "series.csv", out)

    def test_fit(self, tmp_path):
        src, out = tmp_path / "src", tmp_path / "fit"
        assert main(["transport", "--dos", "lifshits:b=2", "--grid", "log:1e-3,1e6,350",
                     "--out", str(src)]) == 0
        assert main(["fit", "--series", str(src / "series.csv"), "--out", str(out)]) == 0
        assert {f.name for f in out.iterdir()} == {"report.txt", "deltap.csv", "manifest.txt"}
        self.check_exclusions(src / "series.csv", out)


class TestAnalyzeSeriesFile:
    def test_round_trip_analysis(self, tmp_path):
        t = np.geomspace(1.5, 1000, 300)
        text = "t,p_bar,alpha_bar_sq\n" + "\n".join(
            f"{x!r},{0.9 * x**-1.0!r},{0.8 * x**-2.0!r}"
            for x in (float(v) for v in t))
        series = tmp_path / "series.csv"
        series.write_text(text + "\n")
        cfg = ExperimentConfig(series=str(series), out=str(tmp_path / "out"),
                              fit_window=(10.0, 1000.0))
        run_experiment(cfg, "fit")
        report = (tmp_path / "out" / "report.txt").read_text()
        line = [ln for ln in report.splitlines()
                if ln.startswith("delta_p_asymptotic")][0]
        assert float(line.split(" = ")[1]) == pytest.approx(2.0, abs=0.05)

    def test_nan_in_fit_window_exits_one(self, tmp_path, capsys):
        t = np.geomspace(0.5, 200, 60)
        p = t**-0.5
        p[20] = np.nan  # t about 6.6, inside the default window (1, 100)
        series = tmp_path / "series.csv"
        series.write_text("t,p_bar,alpha_bar_sq\n" + "".join(
            f"{x!r},{y!r},{x**-1.0!r}\n" for x, y in zip(t.tolist(), p.tolist())))
        rc = main(["fit", "--series", str(series), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "non-finite" in err and "Traceback" not in err
        assert not (tmp_path / "out" / "report.txt").exists()

    @pytest.mark.parametrize("rows, line", [
        ("1.0,0.5,0.25\n2.0,0.4\n", 3),
        ("1.0,0.5,0.25\n\n2.0,0.4,0.1,9\n", 4),
        ("1.0,0.5,abc\n", 2),
    ])
    def test_ragged_row_names_its_line(self, tmp_path, capsys, rows, line):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,p_bar,alpha_bar_sq\n" + rows)
        with pytest.raises(ParseError, match=f"^line {line}: expected 3 "):
            run_experiment(ExperimentConfig(series=str(bad), out=str(tmp_path / "o")), "fit")
        assert main(["fit", "--series", str(bad), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {line}:") and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("rows, line", [
        ("0,1,1\n2,0.5,0.5\n\n1,0.4,0.4\n3,0.3,0.3\n", 5),  # t falls
        ("0,1,1\n2,0.5,0.5\n\n2,0.4,0.4\n", 5),             # t repeats
        ("0,1,1\n\nnan,0.5,0.5\n3,0.3,0.3\n", 4),           # t not finite
        ("\n-1,1,1\n2,0.5,0.5\n", 3),                        # first t negative
    ])
    def test_bad_time_names_its_line(self, tmp_path, capsys, rows, line):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,p_bar,alpha_bar_sq\n" + rows)
        with pytest.raises(ParseError, match=f"^line {line}: times must be finite, "):
            transport.read_series_csv(bad)
        assert main(["fit", "--series", str(bad), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {line}: ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_reads_what_run_writes(self, tmp_path):
        run_experiment(ExperimentConfig(graph="star:8", vectors=True, out=str(tmp_path / "r"),
                                        grid="log:1e-2,1e2,80"))
        series = transport.read_series_csv(tmp_path / "r" / "series.csv")
        text = (tmp_path / "r" / "series.csv").read_text()
        assert b"".join(cli.series_csv(series)[1]).decode() == text

    @pytest.mark.parametrize("header, rows, name", [
        # the first t falls and the last rises
        ("t,p_bar,alpha_bar_sq,t", "2,1,1,0\n1,0.5,0.5,1\n", "t"),
        # a well-formed series but for the choice of p_bar
        ("t,p_bar,p_bar,alpha_bar_sq", "0,1,1,1\n1,0.5,0.4,0.3\n", "p_bar")],
        ids=["t", "p_bar"])
    def test_repeated_column_is_refused_at_the_header(self, tmp_path, capsys, header,
                                                      rows, name):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"{header}\n{rows}")
        with pytest.raises(ParseError, match=f"^series CSV repeats the '{name}' column"):
            transport.read_series_csv(bad)
        assert main(["fit", "--series", str(bad), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: series CSV repeats the '{name}' column")
        assert err.count("\n") == 1 and not (tmp_path / "o").exists()

    def test_missing_column_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n")
        with pytest.raises((ParseError, ValueError)):
            run_experiment(ExperimentConfig(series=str(bad), out=str(tmp_path / "o")), "fit")

    def test_limit_plus_one_rows_are_read(self, tmp_path, monkeypatch, capsys):
        # a log grid of MAX_GRID_POINTS points writes one row more, its t = 0
        monkeypatch.setattr(transport, "MAX_GRID_POINTS", 60)
        grid = ["--grid", "log:1e-2,1e3,60"]
        written = tmp_path / "w"
        assert main(["transport", "--dos", "semicircle:nu=0.5,lmax=2", *grid,
                     "--out", str(written)]) == 0
        series = written / "series.csv"
        text = series.read_text()
        assert text.count("\n") == 62
        assert main(["fit", "--series", str(series), "--out", str(tmp_path / "a")]) == 0
        series.write_text(text + "2000.0,1e-9,1e-18\n")
        out = tmp_path / "b"
        assert main(["fit", "--series", str(series), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: series CSV holds more than the limit of 61 rows\n"
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("", "series CSV is empty"), ("\n \t\n", "series CSV is empty"),
        ("t,p_bar,alpha_bar_sq\n", "series CSV has no rows"),
        ("t,p_bar,alpha_bar_sq\n\n  \n", "series CSV has no rows")])
    def test_no_rows_exits_one(self, tmp_path, capsys, recwarn, text, message):
        # np.loadtxt warns on input with no rows; the reader never gives it any
        series = tmp_path / "s.csv"
        series.write_text(text)
        out = tmp_path / "o"
        assert main(["fit", "--series", str(series), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not recwarn.list
        assert not out.exists()

    @pytest.mark.parametrize("rows, line", [
        ("# a comment\n1.0,0.5,0.25\n", 2),
        ("1.0,0.5,0.25\n2.0,0.4,0.1 # note\n", 3),
        ("1.0,0.5,0.25\n#2.0,0.4,0.1\n", 3)])
    def test_hash_is_not_a_comment(self, tmp_path, rows, line):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,p_bar,alpha_bar_sq\n" + rows)
        with pytest.raises(ParseError, match=f"^line {line}: expected 3 "):
            run_experiment(ExperimentConfig(series=str(bad), out=str(tmp_path / "o")), "fit")

    def test_read_memory(self, tmp_path):
        # the values are parsed straight into one array, 24 B a row of three
        # columns; a Python list per row held about 430 B a row
        n = 200_000
        run_experiment(ExperimentConfig(dos="semicircle:nu=0.5,lmax=2",
                                        grid=f"linear:0.01,1000,{n}", out=str(tmp_path)),
                       "transport")
        tracemalloc.start()
        try:
            series = transport.read_series_csv(tmp_path / "series.csv")
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(series.times) == n
        assert held <= 25 * n and peak <= 40 * n


class TestManifest:
    def test_manifest_lists_real_checksums(self, tmp_path):
        cfg = ExperimentConfig(graph="ring:12", out=str(tmp_path / "m"),
                              grid="log:1e-2,1e2,80")
        manifest = run_experiment(cfg)
        text = (tmp_path / "m" / "manifest.txt").read_text()
        assert f"version = " in text
        for name, digest in manifest.files.items():
            assert f"file.{name} = {digest}" in text

    @pytest.mark.parametrize("graph, vectors, path", [
        ("ring:12", False, "closed_form"),
        ("dendrimer:3,3", False, "closed_form"),
        ("ring:12", True, "closed_form"),
        ("er:20,0.3,seed=2", False, "dense"),
    ])
    def test_records_spectrum_path(self, tmp_path, graph, vectors, path):
        cfg = ExperimentConfig(graph=graph, out=str(tmp_path / "p"),
                              grid="log:1e-2,1e2,80", vectors=vectors)
        manifest = run_experiment(cfg)
        lines = (tmp_path / "p" / "manifest.txt").read_text().splitlines()
        assert f"spectrum.path = {path}" in lines
        assert manifest.verify(tmp_path / "p")

    @pytest.mark.parametrize("graph, vectors, chi, kind, clusters", [
        ("ring:12", False, False, None, 7),
        ("ring:12", True, False, "orbit", 7),
        ("ring:12", False, True, "orbit", 7),
        ("star:12", True, False, "orbit", 3),
        ("star:12", True, True, "orbit", 3),
        ("dendrimer:3,3", True, True, "orbit", 10),
        ("er:20,0.3,seed=2", True, False, "dense", 20),
    ])
    def test_records_spectrum_diagnostics(self, tmp_path, graph, vectors, chi, kind,
                                          clusters):
        cfg = ExperimentConfig(graph=graph, out=str(tmp_path / "p"), chi=chi,
                              grid="log:1e-2,1e2,80", vectors=vectors)
        run_experiment(cfg)
        lines = (tmp_path / "p" / "manifest.txt").read_text().splitlines()
        diag = dict(ln.split(" = ") for ln in lines if ln.startswith("spectrum."))
        assert diag["spectrum.clusters"] == str(clusters)
        degeneracies = (tmp_path / "p" / "degeneracies.csv").read_text().splitlines()
        assert len(degeneracies) == clusters + 1
        assert diag.get("spectrum.vectors") == kind
        if kind == "dense":
            assert 0 <= float(diag["spectrum.residual"]) <= 1e-9
        else:
            assert "spectrum.residual" not in diag
        # every dense solve names its driver and checks its trace
        if graph.startswith("er:"):
            assert diag["spectrum.solver"] == "syevd"
            assert 0 <= float(diag["spectrum.trace_error"]) <= 1e-9
        else:
            assert "spectrum.solver" not in diag and "spectrum.trace_error" not in diag

    @pytest.mark.parametrize("graph", ["ring:12", "torus:4,2", "star:12", "dendrimer:3,3",
                                       "er:20,0.3,seed=2"])
    def test_records_chi_diagnostics(self, tmp_path, graph):
        out = tmp_path / "c"
        run_experiment(ExperimentConfig(graph=graph, chi=True, out=str(out)), "spectrum")
        lines = (out / "manifest.txt").read_text().splitlines()
        diag = dict(ln.split(" = ") for ln in lines if ln.startswith("chi."))
        chi = np.loadtxt(out / "chi.csv", delimiter=",", skiprows=1)[:, 1:]
        assert set(diag) == {"chi.column_sum_error", "chi.mean_return"}
        assert float(diag["chi.column_sum_error"]) == np.abs(chi.sum(axis=0) - 1.0).max()
        assert float(diag["chi.column_sum_error"]) <= 1e-13
        spectrum = graph_spectrum(parse_graph_spec(graph), with_vectors=True)
        assert float(diag["chi.mean_return"]) == pytest.approx(
            (projector_factor(spectrum)**2).sum() / len(chi), rel=1e-13)

    def test_no_chi_diagnostics_without_chi(self, tmp_path):
        run_experiment(ExperimentConfig(graph="ring:12", out=str(tmp_path)), "spectrum")
        assert "chi." not in (tmp_path / "manifest.txt").read_text()

    def test_dos_run_records_no_spectrum_path(self, tmp_path):
        cfg = ExperimentConfig(dos="lifshits:b=2", out=str(tmp_path / "d"),
                              grid="log:1e-2,1e2,40", fit_window=(1.0, 100.0))
        run_experiment(cfg)
        assert "spectrum.path" not in (tmp_path / "d" / "manifest.txt").read_text()

    @pytest.mark.parametrize("spec, command, timed", [
        (dict(graph="star:12", vectors=True, chi=True), "run",
         {"spectrum", "chi", "series", "analysis", "writing"}),
        (dict(graph="ring:12"), "spectrum", {"spectrum", "writing"}),
        (dict(dos="semicircle:nu=0.5,lmax=2"), "run", {"series", "analysis", "writing"}),
    ])
    def test_records_stage_timings(self, tmp_path, spec, command, timed):
        out = tmp_path / "s"
        cfg = ExperimentConfig(**spec, out=str(out), grid="log:1e-2,1e2,80")
        manifest = run_experiment(cfg, command)
        lines = (out / "manifest.txt").read_text().splitlines()
        diag = dict(ln.split(" = ") for ln in lines
                    if ln.startswith(("timing.", "analysis.")))
        assert {k for k in diag if k.startswith("timing.")} == {
            f"timing.{stage}_s" for stage in timed}
        assert all(0 <= float(v) <= manifest.duration_s
                   for k, v in diag.items() if k.startswith("timing."))
        assert manifest.verify(out)
        if "analysis" not in timed:
            assert "analysis.envelope_points" not in diag
            return
        series = transport.read_series_csv(out / "series.csv")
        positive = series.times > 0
        envelope = extract_envelope(series.times[positive], series.alpha_bar_sq[positive])
        assert diag["analysis.envelope_points"] == str(len(envelope.times))

    def test_stage_time_accumulates(self, monkeypatch):
        clock = iter([0.0, 1.0, 5.0, 7.5])
        monkeypatch.setattr(cli.time, "perf_counter", lambda: next(clock))
        manifest = cli.RunManifest(config={})
        for _ in range(2):
            with manifest.stage("writing"):
                pass
        assert "timing.writing_s = 3.5" in manifest.to_text().splitlines()

    def test_fit_records_analysis(self, tmp_path):
        run_experiment(ExperimentConfig(graph="ring:12", out=str(tmp_path / "r"),
                                        grid="log:1e-2,1e2,80"))
        run_experiment(ExperimentConfig(series=str(tmp_path / "r" / "series.csv"),
                                        out=str(tmp_path / "f")), "fit")
        lines = (tmp_path / "f" / "manifest.txt").read_text().splitlines()
        keys = {ln.split(" = ")[0] for ln in lines}
        assert {"timing.analysis_s", "timing.writing_s",
                "analysis.envelope_points"} <= keys
        assert "timing.series_s" not in keys

    def test_only_a_series_source_times_its_read(self, tmp_path):
        sources = {"graph": dict(graph="ring:12"),
                   "dos": dict(dos="semicircle:nu=0.5,lmax=2"),
                   "series": dict(series=str(_series_file(tmp_path)))}
        for name, source in sources.items():
            out = tmp_path / name
            manifest = run_experiment(ExperimentConfig(**source, out=str(out),
                                                       grid="log:1e-2,1e2,80"),
                                      "fit" if name == "series" else "run")
            keys = {ln.split(" = ")[0]
                    for ln in (out / "manifest.txt").read_text().splitlines()}
            assert ("timing.read_s" in keys) == (name == "series")
            assert 0 <= manifest.timings.get("read", 0.0) <= manifest.duration_s

    @pytest.mark.parametrize("command", ["run", "fit"])
    def test_failed_verification_exits_one(self, tmp_path, monkeypatch, capsys, command):
        run_experiment(ExperimentConfig(graph="ring:12", out=str(tmp_path / "r"),
                                        grid="log:1e-2,1e2,80"))
        monkeypatch.setattr(cli.RunManifest, "verify", lambda self, out_dir: False)
        args = (["run", "--graph", "ring:12", "--grid", "log:1e-2,1e2,80"]
                if command == "run" else ["fit", "--series", str(tmp_path / "r" / "series.csv")])
        rc = main([*args, "--out", str(tmp_path / "v")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert (tmp_path / "v" / "manifest.txt").is_file()

    @pytest.mark.parametrize("graph", ["ring:12", "star:12", "er:20,0.3,seed=2",
                                       "er:300,0.05,seed=4"])
    def test_records_min_gap_over_tol(self, tmp_path, graph):
        run_experiment(ExperimentConfig(graph=graph, out=str(tmp_path / "g")), "spectrum")
        lines = (tmp_path / "g" / "manifest.txt").read_text().splitlines()
        recorded = dict(ln.split(" = ") for ln in lines)["spectrum.min_gap_over_tol"]
        spectrum = graph_spectrum(parse_graph_spec(graph))
        expected = np.diff(spectrum.levels).min() / default_cluster_tol(spectrum.eigenvalues)
        assert float(recorded) == expected
        assert expected > 1.0

    @pytest.mark.parametrize("spec", [dict(graph="er:3,1e-9"),
                                      dict(dos="semicircle:nu=0.5,lmax=2")])
    def test_min_gap_needs_two_clusters(self, tmp_path, spec):
        run_experiment(ExperimentConfig(**spec, out=str(tmp_path / "o"),
                                        grid="log:1e-2,1e2,80"), "transport")
        text = (tmp_path / "o" / "manifest.txt").read_text()
        assert "spectrum.min_gap_over_tol" not in text
        if "graph" in spec:
            assert "spectrum.clusters = 1" in text

    def test_streamed_chi_write_memory(self, tmp_path, monkeypatch):
        peaks, write = {}, cli._write

        def traced_write(out_dir, name, manifest, render, *args):
            if name != "chi.csv":
                return write(out_dir, name, manifest, render, *args)
            tracemalloc.start()
            try:
                write(out_dir, name, manifest, render, *args)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(cli, "_write", traced_write)
        graph = "er:800,0.02,seed=1"
        manifest = run_experiment(ExperimentConfig(graph=graph, chi=True, out=str(tmp_path)),
                                  "spectrum")
        spectrum = graph_spectrum(parse_graph_spec(graph), with_vectors=True)
        # the triangle's text, 1.5 matrices of n x n floats, and one block
        # of rows; the whole text as a str and its encoding take about 6
        assert peaks["chi.csv"] <= 2.25 * spectrum.n**2 * 8
        data = (tmp_path / "chi.csv").read_bytes()
        assert data == b"".join(transport.chi_csv(*transport.chi_table(spectrum)))
        assert manifest.files["chi.csv"] == hashlib.sha256(data).hexdigest()

    def test_vectors_chi_run_memory(self, tmp_path):
        # the peak is the series stage beside the chi table (the table, the
        # Gram of pi_bar, n x n here, and three 2 MB blocks) or chi.csv's
        # write (the table and its text), 2.8 matrices of n x n floats; the
        # Gram held through that write took it to 3.7
        n = 800
        cfg = ExperimentConfig(graph=f"er:{n},0.02,seed=1", vectors=True, chi=True,
                               grid=cli.PRESETS["fig2a"].grid, out=str(tmp_path))
        run_experiment(cfg)  # one-off imports and caches are not the run's
        tracemalloc.start()
        try:
            run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the eigenvectors sit on a mapping that tracemalloc does not see
        assert peak <= 3 * n * n * 8

    def test_held_times_text_memory(self, tmp_path, monkeypatch):
        # series.csv formats its columns in one pass, from one copy of them,
        # and hands deltap.csv the t column's text, 24 B a grid point
        n, marks, write = 500_000, {}, cli._write

        def traced_write(out_dir, name, manifest, render, *args):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            kept = write(out_dir, name, manifest, render, *args)
            marks[name] = (start, *tracemalloc.get_traced_memory())
            return kept

        monkeypatch.setattr(cli, "_write", traced_write)
        cfg = ExperimentConfig(dos="semicircle:nu=0.5,lmax=2",
                               grid=f"linear:0.05,220,{n}", out=str(tmp_path))
        tracemalloc.start()
        try:
            run_experiment(cfg)
        finally:
            tracemalloc.stop()
        # per grid point: the copy of the columns or the t text (24 B) and
        # three columns of text (72 B), then one block of rows; the ratio
        # gathers the t text and formats delta_p (48 B) by its rows (8 B)
        start, end, peak = marks["series.csv"]
        assert end - start <= 25 * n
        assert peak - start <= 108 * n
        start, end, peak = marks["deltap.csv"]
        assert end - start <= 1 * n
        assert peak - start <= 64 * n

    def test_verify_detects_tampering(self, tmp_path):
        cfg = ExperimentConfig(graph="ring:12", out=str(tmp_path / "t"),
                              grid="log:1e-2,1e2,80")
        manifest = run_experiment(cfg)
        path = tmp_path / "t" / "series.csv"
        data = path.read_bytes()
        flipped = data[:-2] + bytes([data[-2] ^ 1]) + data[-1:]
        for changed in (b"tampered\n", flipped, data[:-1], data[:len(data) // 2],
                        data + b"\n", data + data, b""):
            path.write_bytes(changed)
            assert not manifest.verify(tmp_path / "t")
        path.write_bytes(data)
        assert manifest.verify(tmp_path / "t")
        path.unlink()
        assert not manifest.verify(tmp_path / "t")

    @pytest.mark.parametrize("size", [0, 1, (1 << 16) - 1, 1 << 16, (5 << 15) + 3, 3 << 20])
    def test_sha256_reads_in_blocks(self, tmp_path, size):
        # sizes on both sides of the 64 KiB read
        data = np.random.default_rng(size).bytes(size)
        path = tmp_path / "f"
        path.write_bytes(data)
        assert cli._sha256(path) == hashlib.sha256(data).hexdigest()

    def test_chi_run_memory(self, tmp_path):
        # a whole --chi run on dendrimer:9,3 (n = 1534) holds the 16-bit
        # orbit index, blocks of rows and the orbit table's text: neither
        # an n x n float chi (1 matrix) nor its 50 MB chi.csv (2.7)
        n = 1534
        args = ["run", "--graph", "dendrimer:9,3", "--chi", "--out", str(tmp_path)]
        assert main(args) == 0  # one-off imports and caches are not the run's
        tracemalloc.start()
        try:
            assert main(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "chi.csv").stat().st_size > 2.5 * n * n * 8
        assert peak <= 0.6 * n * n * 8

    @pytest.mark.parametrize("graph", ["star:40", "dendrimer:4,3", "torus:6,2", "ring:30",
                                       "torus:30,1", "er:40,0.2,seed=3"])
    def test_chi_diagnostics_in_blocks_keep_their_bits(self, graph, monkeypatch):
        # blocks of 1, 3 and 17 rows give what chi.sum(axis=0) and np.trace
        # give, on the orbit table and on the dense triangle; the orbit
        # table, summed over blocks of clusters, keeps its bits too
        spectrum = graph_spectrum(parse_graph_spec(graph), with_vectors=True)
        table = transport.chi_table(spectrum)
        chi = table[0][table[1][:]]
        want = {"chi.column_sum_error": repr(float(np.abs(chi.sum(axis=0) - 1.0).max())),
                "chi.mean_return": repr(float(np.trace(chi) / len(chi)))}
        for rows in (1, 3, 17):
            monkeypatch.setattr(spectral, "_BLOCK_ELEMS", rows * 8 * len(chi))
            assert transport.chi_diagnostics(*table) == want
            values = transport.chi_table(spectrum)[0]
            assert values.tobytes() == table[0].tobytes()


class TestFormatsEachFloatOnce:
    """Every float a run writes goes through `float_text` once; series.csv's
    in one call, and deltap.csv's times come from series.csv's text."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls, formatted = [], []
        for module in (transport, scaling, spectral):
            def counting(values, float_text=module.float_text, name=module.__name__):
                text = float_text(values)
                calls.append((name.rpartition(".")[2], text.size))
                return text
            monkeypatch.setattr(module, "float_text", counting)

        def counting_format(x, out, format=_csvtext._format):
            formatted.append(len(x))
            return format(x, out)

        monkeypatch.setattr(_csvtext, "_format", counting_format)
        return calls, formatted

    @staticmethod
    def cells(path):
        lines = path.read_text().splitlines()
        return len(lines) - 1, len(lines[0].split(","))

    @staticmethod
    def check_counts(calls, formatted, want):
        """want: the float_text calls' sizes per module"""
        assert sorted(calls) == sorted((name, n) for name, sizes in want.items()
                                       for n in sizes)
        assert sum(formatted) == sum(n for _, n in calls if n >= _csvtext._REPR_BELOW)
        calls.clear()
        formatted.clear()

    @pytest.mark.parametrize("name", ["fig2a", "fig3"])
    def test_preset_and_fit(self, tmp_path, counted, name):
        calls, formatted = counted
        out = tmp_path / name
        run_experiment(replace(preset(name), out=str(out)))
        rows, cols = self.cells(out / "series.csv")
        deltap = self.cells(out / "deltap.csv")[0]
        spectrum = graph_spectrum(parse_graph_spec(preset(name).graph))
        # series.csv in one call, deltap.csv its delta_p alone
        self.check_counts(calls, formatted, {
            "transport": [rows * cols], "scaling": [deltap],
            "spectral": [len(spectrum.values), len(spectrum.levels)]})
        if name != "fig3":
            return
        # a series read from a file writes no series.csv: deltap.csv formats
        # its times once, and its delta_p
        run_experiment(ExperimentConfig(series=str(out / "series.csv"), out=str(tmp_path / "f")),
                       "fit")
        assert self.cells(tmp_path / "f" / "deltap.csv")[0] == deltap
        self.check_counts(calls, formatted, {"scaling": [rows, deltap]})
