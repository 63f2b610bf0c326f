"""CLI and study harness: CSV schema, determinism, SVG structure, exit codes."""

import filecmp
import re

import numpy as np
import pytest

from conftest import read_study_csv
from gdfem import cli, forms
from gdfem.cli import (COMMANDS, OPTIONS, STUDIES, StudyReport,
                       default_convergence_levels, default_geom_order,
                       emit_study_csv, fit_slope, main, read_config,
                       run_convergence, run_diagnostics, run_gradrob,
                       run_locking, run_solve, run_study, write_svg)


# -- defaults -----------------------------------------------------------------

def test_default_geometry_orders():
    assert [default_geom_order(p) for p in (1, 2, 3, 4)] == [2, 2, 2, 3]


def test_default_level_ranges():
    assert default_convergence_levels(1) == (1, 2, 3, 4)
    assert default_convergence_levels(2) == (1, 2, 3, 4)
    assert default_convergence_levels(3) == (1, 2, 3)
    assert default_convergence_levels(4) == (1, 2, 3)


def test_fit_slope():
    hs = [0.4, 0.2, 0.1, 0.05]
    errs = [3.0 * h ** 2.5 for h in hs]
    assert abs(fit_slope(hs, errs) - 2.5) <= 1e-12
    # only the last three levels enter the fit
    errs[0] = 100.0
    assert abs(fit_slope(hs, errs) - 2.5) <= 1e-12


def test_report_rejects_nonfinite():
    report = StudyReport("locking")
    with pytest.raises(ValueError):
        report.add(0.5, 2, 1.0, "M3", "errorHdiv", float("nan"))


# -- CSV schema and round trip ------------------------------------------------

@pytest.fixture(scope="module")
def tiny_reports():
    conv, w1 = run_convergence(p_list=(1,), levels=(0, 1), methods=("M3",))
    lock, w2 = run_locking(cs2_list=(1.0, 1000.0), levels=(0, 1),
                           methods=("M3", "M4"))
    rob, w3 = run_gradrob(cs2_list=(1.0, 10.0), levels=(0, 1),
                          methods=("M3",))
    assert not (w1 or w2 or w3)
    return {"convergence": conv, "locking": lock, "gradrob": rob}


def test_csv_headers_and_roundtrip(tmp_path, tiny_reports):
    headers = {
        "convergence": "h,p,errorH1,errorH1pp,errorHdiv,errorDG",
        "locking": "h,cs,errorH1,errorH1pp,errorHdiv,errorDG",
        "gradrob": "h,cs,normH1,normH1pp,normHdiv,normDG",
    }
    for study, report in tiny_reports.items():
        path = tmp_path / f"{study}.csv"
        emit_study_csv(report, path)
        text = path.read_text()
        assert text.splitlines()[0] == headers[study]
        assert "\r" not in text
        parsed = read_study_csv(path)
        assert parsed.rows == report.rows


def test_rows_sorted_and_finite(tiny_reports):
    for report in tiny_reports.values():
        keys = [(r.p, r.cs2, -r.h, r.method, r.metric_name)
                for r in report.rows]
        assert keys == sorted(keys)
        assert all(np.isfinite(r.value) for r in report.rows)


def test_skipped_method_leaves_empty_cell(tmp_path):
    report, warnings = run_convergence(p_list=(1,), levels=(0,),
                                       methods=("M2", "M3"))
    assert not warnings
    emit_study_csv(report, tmp_path / "conv.csv")
    line = (tmp_path / "conv.csv").read_text().splitlines()[1]
    cells = line.split(",")
    assert cells[3] == ""      # errorH1pp: M2 is undefined at p = 1
    assert cells[4] != ""      # errorHdiv present


def test_duplicate_cs2_rows_identical(tmp_path):
    """A repeated c_s^2 keeps its two report rows, and the plot draws it
    as one series (the single level draws no reference line)."""
    report, _ = run_locking(cs2_list=(1.0, 1.0), levels=(0,),
                            methods=("M3",), out_path=str(tmp_path))
    rows = report.rows
    assert len(rows) == 2
    assert rows[0].value == rows[1].value
    assert (tmp_path / "locking_M3.svg").read_text().count("<polyline") == 1


@pytest.mark.parametrize("kw", [
    dict(p_list=(1, 1), levels=(0,), methods=("M3",)),
    dict(p_list=(1,), levels=(0, 0), methods=("M3",)),
    dict(p_list=(1,), levels=(0,), methods=("M3", "M3"))],
    ids=["p", "levels", "methods"])
def test_a_repeated_value_runs_its_cells_once(monkeypatch, kw):
    """A repeated p, level or method assembles its cell once and adds its
    report row once."""
    calls = []
    assemble = cli.assemble_method

    def counted(*args, **kwargs):
        calls.append(args[0])
        return assemble(*args, **kwargs)

    monkeypatch.setattr(cli, "assemble_method", counted)
    report, warnings = run_convergence(**kw)
    assert not warnings
    assert calls == ["M3"]
    assert len(report.rows) == 1


def test_determinism_byte_identical(tmp_path):
    """A study rerun writes the same files byte for byte, also with its
    c_s^2 values, levels and methods given in reverse order."""
    args = dict(cs2_list=(1.0, 1000.0), levels=(0, 1), methods=("M3", "M4"))
    for run, step in (("1", 1), ("2", 1), ("reversed", -1)):
        (tmp_path / run).mkdir()
        run_locking(**{k: v[::step] for k, v in args.items()},
                    out_path=str(tmp_path / run))
    names = ["locking.csv", "locking_M3.svg", "locking_M4.svg"]
    for run in ("1", "2", "reversed"):
        assert sorted(f.name for f in (tmp_path / run).iterdir()) == names
    for run in ("2", "reversed"):
        _, mismatch, errors = filecmp.cmpfiles(tmp_path / "1", tmp_path / run,
                                               names, shallow=False)
        assert not mismatch and not errors, (run, mismatch, errors)


# -- SVG ----------------------------------------------------------------------

def test_svg_polyline_counts(tmp_path):
    path = tmp_path / "plot.svg"
    series = [("a", [0.5, 0.25, 0.125], [1.0, 0.25, 0.0625]),
              ("b", [0.5, 0.25, 0.125], [2.0, 0.5, 0.125]),
              ("c", [0.5, 0.25], [0.3, 0.1])]
    write_svg(path, series, 2.0, "test", "error")
    text = path.read_text()
    assert text.count("<polyline") == len(series) + 1
    assert text.count("stroke-dasharray") == 2  # reference line + legend key
    assert text.startswith("<svg")
    with pytest.raises(ValueError):
        write_svg(tmp_path / "empty.svg", [("a", [0.5], [0.0])], 1.0, "t", "e")


def test_constant_reference_line_inside_the_axes(tmp_path):
    """A slope-0 reference line (gradrob's "const") is drawn inside the
    axes box with the series, not below the x-axis over its tick labels."""
    path = tmp_path / "plot.svg"
    hs = [0.5, 0.25, 0.125]
    write_svg(path, [("a", hs, [1.0, 0.9, 0.95]), ("b", hs, [2.0, 2.1, 2.0])],
              0.0, "t", "norm")
    text = path.read_text()
    axes = [[float(v) for v in m] for m in re.findall(
        r'<line x1="([\d.]+)" y1="([\d.]+)" x2="([\d.]+)" y2="([\d.]+)" '
        r'stroke="#444444"/>', text)[:2]]
    (left, bottom, right, _), (_, top, _, _) = axes
    polylines = re.findall(r'<polyline [^>]*points="([^"]*)"', text)
    assert len(polylines) == 3
    for points in polylines:
        for point in points.split():
            x, y = map(float, point.split(","))
            assert left <= x <= right and top <= y <= bottom, point


def test_study_svgs_one_polyline_per_series(tmp_path):
    run_gradrob(cs2_list=(1.0, 10.0), levels=(0, 1), methods=("M3",),
                out_path=str(tmp_path))
    text = (tmp_path / "rob_M3.svg").read_text()
    assert text.count("<polyline") == 2 + 1


# -- config files -------------------------------------------------------------

def test_read_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p=2\nlevels=1-3  # with comment\nmethods=M3,M4\n\n")
    parsed = read_config(cfg)
    assert parsed == {"p": "2", "levels": "1-3", "methods": "M3,M4"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("just some text\n")
    with pytest.raises(ValueError):
        read_config(bad)


def test_config_flags_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"methods=M1\nlevels=0\nout={tmp_path}\n")
    # flag --methods overrides the config file value
    code = main(["locking", "--config", str(cfg), "--methods", "M3",
                 "--cs2", "1", "--levels", "0"])
    assert code == 0
    text = (tmp_path / "locking.csv").read_text()
    line = text.splitlines()[1].split(",")
    assert line[2] == ""       # M1 column empty: config was overridden
    assert line[4] != ""       # M3 column filled


# -- exit codes ---------------------------------------------------------------

def test_invalid_flags_exit_2(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["locking", "--methods", "M7", "--levels", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--level", "0"])  # missing --method
    assert exc.value.code == 2
    capsys.readouterr()
    # one solve takes one sound speed, level and method, and no unknown
    # flag; the refusal comes under the subcommand's usage line
    for argv in (["solve", "--method", "M4", "--cs2", "1,1000"],
                 ["solve", "--method", "M4", "--levels", "3"],
                 ["solve", "--method", "M4", "--methods", "M3"],
                 ["solve", "--method", "M3", "--bogus"],
                 ["diagnostics", "--method", "M3", "--levels", "0"],
                 ["diagnostics", "--method", "M3", "--methods", "M4"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"usage: gdfem {argv[0]} "), (argv, err)
    # c_s^2 must be positive, and --out must name an existing directory
    for argv in (["locking", "--cs2=-4", "--levels", "0", "--out",
                  str(tmp_path)],
                 ["solve", "--method", "M3", "--p", "1", "--level", "0",
                  "--cs2=-4"],
                 ["solve", "--method", "M3", "--p", "1", "--level", "0",
                  "--cs2=nan"],
                 ["solve", "--method", "M3", "--p", "1", "--level", "0",
                  "--cs2", "inf"],
                 ["locking", "--levels", "0", "--methods", "M4",
                  "--lambda-b", "nan"],
                 ["locking", "--levels", "0", "--out",
                  str(tmp_path / "missing")]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    # a list option must name at least one value
    for argv in (["locking", "--cs2=", "--levels", "0"],
                 ["locking", "--cs2", ",", "--levels", "0"],
                 ["convergence", "--p=", "--levels", "0"],
                 ["convergence", "--p", "1", "--levels="],
                 ["convergence", "--p", "1", "--levels", "3-1"],
                 ["convergence", "--p", "1", "--levels", "0", "--methods="]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    # a config key must be an option of the subcommand
    cfg = tmp_path / "run.cfg"
    one = ["--method", "M3", "--level", "0", "--p", "1"]
    tiny = ["--p", "1", "--levels", "0", "--methods", "M3", "--cs2", "1"]
    for argv, text in ((["solve"] + one, "levels=3\n"),
                       (["solve"] + one, "methods=M4\n"),
                       (["diagnostics"] + one, "cs2=10\n"),
                       (["locking"] + tiny, "b_scale=2\n"),
                       (["gradrob"] + tiny, "method=M3\n"),
                       (["convergence"] + tiny, "level=1\n"),
                       (["convergence"] + tiny, "frobnicate=1\n"),
                       (["locking", "--levels", "0"], "cs2=\n")):
        cfg.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", str(cfg)])
        assert exc.value.code == 2, (argv, text)
    # a value error names the flag or the config key it came from
    cfg.write_text("cs2=\n")
    capsys.readouterr()
    for argv, name in (
            (["locking", "--cs2=", "--levels", "0"], "--cs2"),
            (["locking", "--levels", "0", "--lambda-b", "nan"], "--lambda-b"),
            (["diagnostics", "--method", "M3", "--level", "0", "--p", "1",
              "--b-scale", "0"], "--b-scale"),
            (["locking", "--levels", "0", "--config", str(cfg)], "'cs2'")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert name in capsys.readouterr().err, argv


# -- the option table ---------------------------------------------------------

# A value each valued option accepts, and one it refuses ("out" is set per
# test: an existing and a missing directory).
GOOD = {"p": "1", "levels": "0", "methods": "M3", "cs2": "1", "lambda_b": "1",
        "lambda_n": "1", "geom_order": "2", "out": None, "method": "M3",
        "level": "0", "b_scale": "1"}
BAD = {"p": "x", "levels": "3-1", "methods": "M7", "cs2": "-4",
       "lambda_b": "nan", "lambda_n": "inf", "geom_order": "two", "out": None,
       "method": "M7", "level": "x", "b_scale": "0"}


# Values an option's parser reads that the subcommand refuses, each with a
# part of its error: two values of an option it takes one value of (every
# option but out, a study's levels and methods and the field its CSV
# sweeps), or a method it does not run.
TWO = {"p": "1,2", "cs2": "1,10", "lambda_b": "1,2", "lambda_n": "1,2",
       "geom_order": "1,2", "method": "M1,M3", "level": "1,2",
       "b_scale": "1,2"}
REFUSED = {(command, name): [(two, "takes a single value")]
           for name, two in TWO.items() for command in OPTIONS[name].commands
           if command not in STUDIES or STUDIES[command].axis != name}
REFUSED["diagnostics", "method"].append(("M2", "is not one of M1|M3|M4"))


def _flag(name):
    return "--" + name.replace("_", "-")


def _resolved(command, name, value):
    """The runner keywords _resolve gives for option name set to its parsed
    value alone, a tuple, with the --method M3 a cell subcommand requires:
    out sets out_path, a study's p and cs2 set p_list and cs2_list, a
    study's p, cs2, levels and methods keep their tuple, and every other
    option takes the one value of its tuple."""
    if command in STUDIES:
        keyword = {"out": "out_path", "p": "p_list", "cs2": "cs2_list"}
        if name not in ("p", "cs2", "levels", "methods"):
            value, = value
        return {keyword.get(name, name): value}
    value, = value
    return {"method": "M3", "out_path" if name == "out" else name: value}


@pytest.mark.parametrize("command,name", [
    (command, name) for command in COMMANDS
    for name, opt in OPTIONS.items() if opt.parse is not None])
def test_option_table(monkeypatch, capsys, tmp_path, command, name):
    """Each valued option is a flag and a config key of exactly the
    subcommands its OPTIONS entry names; any other subcommand refuses both
    (exit 2).  Where it is taken, a bad value, and a value the subcommand
    refuses (REFUSED), exits 2 before any cell runs, and its error starts
    with the flag or the config key it came from and names the rule."""
    monkeypatch.setattr(cli, "_solve_cell", None)
    monkeypatch.setattr(cli, "make_unit_disc_mesh", None)
    assert set(GOOD) == set(BAD) == {n for n, o in OPTIONS.items() if o.parse}
    opt, flag, cfg = OPTIONS[name], _flag(name), tmp_path / "run.cfg"
    good, bad = GOOD[name], BAD[name]
    if name == "out":
        good, bad = str(tmp_path), str(tmp_path / "missing")
    takes = command in opt.commands
    parser = cli.build_parser()
    needs_method = command not in STUDIES and name != "method"
    method = ["--method", "M3"] if needs_method else []
    if takes:
        want = _resolved(command, name, opt.parse(good))
        args = parser.parse_args([command, f"{flag}={good}"] + method)
        assert cli._resolve(args) == want
    else:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([command, f"{flag}={good}"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    cfg.write_text(f"{name}={good}\n")
    if not takes:
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg)] + method)
        assert exc.value.code == 2
        assert (f"config key {name!r} is not an option of {command}"
                in capsys.readouterr().err)
        return
    args = parser.parse_args([command, "--config", str(cfg)] + method)
    assert cli._resolve(args) == want
    for bad, part in [(bad, ""), *REFUSED.get((command, name), ())]:
        cfg.write_text(f"{name}={bad}\n")
        for argv, where in (([f"{flag}={bad}"], flag),
                            (["--config", str(cfg)], f"config key {name!r}")):
            with pytest.raises(SystemExit) as exc:
                main([command] + argv + method)
            assert exc.value.code == 2, argv
            err = capsys.readouterr().err
            assert f"error: {where}: " in err, (argv, err)
            assert part in err, (argv, err)


def _help_text(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", list(COMMANDS))
def test_help_lists_the_option_table(capsys, command):
    """A subcommand's --help lists --config and then exactly the OPTIONS
    entries that name it, in table order."""
    listed = re.findall(r"^  (?:-h, )?(--[a-z0-9-]+)",
                        _help_text(capsys, command), re.M)
    assert listed == ["--help", "--config"] + [
        _flag(name) for name, opt in OPTIONS.items()
        if command in opt.commands]


def test_diagnostics_help_and_error_name_the_same_methods(monkeypatch,
                                                         capsys):
    """diagnostics' --method help and run_diagnostics' error list the same
    methods: those whose forms have no pseudo-pressure family."""
    single = [m for m in forms.METHODS if forms.METHOD_FORMS[m][1] is None]
    helped = re.search(r"--method METHOD\s+one of (\S+)",
                       _help_text(capsys, "diagnostics")).group(1)
    monkeypatch.setattr(cli, "make_unit_disc_mesh", None)
    with pytest.raises(ValueError) as exc:
        run_diagnostics("M2", 0, 2)
    named = str(exc.value).rsplit(" ", 1)[1]
    assert helped.split(",") == named.split("|") == single
    assert "M2" not in single


def test_bad_input_rejected_before_any_cell(monkeypatch, capsys, tmp_path):
    """A nonpositive or infinite c_s^2, a penalty that is not finite, a
    list option naming no value, a degree below 1, a level below 0 (in a
    list, after a good one, too), M2 at degree 1, a geometry order below 1
    a missing output directory, or a cell whose quadrature order exceeds
    the cap (from its degree or its geometry order, at the orders its
    subcommand computes) exits 2 before any mesh is built or anything
    solved, and before any progress line, with an error that starts with
    its flag or config key."""
    def no_cell(*args, **kw):
        raise AssertionError("a cell started")

    monkeypatch.setattr(cli, "_solve_cell", no_cell)
    monkeypatch.setattr(cli, "make_unit_disc_mesh", no_cell)
    cfg, p1 = tmp_path / "run.cfg", tmp_path / "p1.cfg"
    cfg.write_text("cs2=\n")
    p1.write_text("p=1\n")
    g18, p19 = tmp_path / "g18.cfg", tmp_path / "p19.cfg"
    g18.write_text("geom_order=18\n")
    p19.write_text("p=1,19\n")
    for argv, where in (
            (["locking", "--cs2=1,-4", "--levels", "0"], "--cs2"),
            (["gradrob", "--cs2=nan", "--levels", "0"], "--cs2"),
            (["locking", "--cs2=1,inf", "--levels", "0"], "--cs2"),
            (["locking", "--lambda-b", "inf", "--levels", "0"], "--lambda-b"),
            (["locking", "--lambda-n", "inf", "--levels", "0"], "--lambda-n"),
            (["locking", "--cs2=", "--levels", "0"], "--cs2"),
            (["locking", "--cs2", ",", "--levels", "0"], "--cs2"),
            (["locking", "--levels", "0", "--config", str(cfg)],
             "config key 'cs2'"),
            (["convergence", "--p=", "--levels", "0"], "--p"),
            (["convergence", "--p", "0", "--levels", "0"], "--p"),
            (["convergence", "--p", "1,0", "--levels", "0"], "--p"),
            (["convergence", "--p", "1", "--levels="], "--levels"),
            (["convergence", "--p", "1", "--levels", "3-1"], "--levels"),
            (["convergence", "--p", "1", "--levels", "0,-1"], "--levels"),
            (["convergence", "--p", "1", "--levels", "0", "--methods="],
             "--methods"),
            (["convergence", "--p", "1", "--levels", "0", "--out",
              str(tmp_path / "missing")], "--out"),
            (["locking", "--levels", "0", "--geom-order", "0"],
             "--geom-order"),
            (["solve", "--method", "M3", "--level=-1"], "--level"),
            (["solve", "--method", "M2", "--p", "1", "--level", "0"], "--p"),
            (["solve", "--method", "M2", "--level", "0", "--config", str(p1)],
             "config key 'p'"),
            # order 42 of the error norms at p=2, geometry order 18 (three
            # times) and at p=1, geometry order 19, and 46 of p=19's error
            # norms, each above the cap of 40
            (["solve", "--method", "M3", "--p", "2", "--level", "0",
              "--geom-order", "18"], "--geom-order"),
            (["solve", "--method", "M3", "--p", "2", "--level", "0",
              "--config", str(g18)], "config key 'geom_order'"),
            (["solve", "--method", "M3", "--level", "0", "--geom-order",
              "18"], "--geom-order"),
            (["solve", "--method", "M1", "--p", "1", "--level", "0",
              "--geom-order", "19"], "--geom-order"),
            (["convergence", "--p", "1,19", "--levels", "0", "--methods",
              "M1"], "--p"),
            (["convergence", "--levels", "0", "--methods", "M1", "--config",
              str(p19)], "config key 'p'")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"usage: gdfem {argv[0]} "), (argv, err)
        assert f"error: {where}: " in err, (argv, err)
        if set(argv) & {"18", "19", "1,19", str(g18), str(p19)}:
            assert "quadrature order 4" in err and "maximum 40" in err, err


class _MeshReached(Exception):
    pass


def _no_cell(*args, **kw):
    raise _MeshReached


@pytest.mark.parametrize("runner,kw,name", [
    pytest.param(run_convergence, dict(p_list=(1, 19), levels=(0,),
                                       methods=("M1",)), "p", id="p-19"),
    pytest.param(run_convergence, dict(p_list=(1, 0), levels=(0,),
                                       methods=("M1",)), "p", id="p-0"),
    pytest.param(run_convergence, dict(p_list=(1, 1.5), levels=(0,),
                                       methods=("M1",)), "p", id="p-1.5"),
    pytest.param(run_convergence, dict(p_list=(1, "2"), levels=(0,),
                                       methods=("M1",)), "p", id="p-str"),
    pytest.param(run_convergence, dict(p_list=(1,), levels=(0,),
                                       methods=("M1", "M9")), "methods",
                 id="methods-M9"),
    pytest.param(run_convergence, dict(p_list=(1,), levels=(0, -1),
                                       methods=("M1",)), "levels",
                 id="levels-minus-1"),
    pytest.param(run_locking, dict(levels=(0,), methods=("M3",),
                                   geom_order=18), "geom_order",
                 id="locking-geom-order-18"),
    pytest.param(run_convergence, dict(p_list=(1,), levels=(0,),
                                       methods=("M2",)), "methods",
                 id="no-cell"),
    pytest.param(run_solve, dict(method="M3", level=0, p=2, geom_order=18),
                 "geom_order", id="solve-geom-order-18"),
    pytest.param(run_solve, dict(method="M2", level=0, p=1), "p",
                 id="solve-M2-p-1"),
    pytest.param(run_solve, dict(method="M3", level=-1, p=1), "level",
                 id="solve-level-minus-1"),
    pytest.param(run_diagnostics, dict(method="M2", level=0, p=2), "method",
                 id="diagnostics-M2")])
def test_runners_refuse_a_bad_cell_before_any(monkeypatch, runner, kw, name):
    """A runner checks every cell it would run before its first mesh: a
    degree above the quadrature cap, below 1 or not an integer (a study
    skips only M2's cells at a valid degree below 2), a method not its
    subcommand's, a level below 0, a geometry order above the cap, and a
    study with no cell to run each raise one ParameterError naming the
    parameter, before any mesh is built or cell solved."""
    monkeypatch.setattr(cli, "_solve_cell", _no_cell)
    monkeypatch.setattr(cli, "make_unit_disc_mesh", _no_cell)
    with pytest.raises(cli.ParameterError) as exc:
        runner(**kw)
    assert exc.value.name == name


def test_the_cap_edge_is_the_orders_a_runner_computes(monkeypatch):
    """M1 at p=1, geometry order 19: diagnostics, which computes no error
    norms, assembles at order 40, the cap, and reaches its mesh; solve
    needs order 42 for the error norms and refuses the cell by
    geom_order.  M3 at p=2, geometry order 17 needs order 40 for its
    error norms, as every family does, and reaches its mesh."""
    monkeypatch.setattr(cli, "_solve_cell", _no_cell)
    monkeypatch.setattr(cli, "make_unit_disc_mesh", _no_cell)
    with pytest.raises(_MeshReached):
        run_diagnostics("M1", 0, 1, geom_order=19)
    with pytest.raises(_MeshReached):
        run_solve("M3", 0, 2, geom_order=17)
    with pytest.raises(cli.ParameterError,
                       match="needs quadrature order 42, above the "
                             "maximum 40") as exc:
        run_solve("M1", 0, 1, geom_order=19)
    assert exc.value.name == "geom_order"


def test_a_study_builds_meshes_only_for_its_cells(monkeypatch):
    """M2 runs at p=2 but not at p=1: one mesh is built, for p=2, and the
    p=1 cells stay empty."""
    meshes = []
    make_mesh = cli.make_unit_disc_mesh

    def counted(*args, **kw):
        meshes.append(args)
        return make_mesh(*args, **kw)

    monkeypatch.setattr(cli, "make_unit_disc_mesh", counted)
    report, warnings = run_convergence(p_list=(1, 2), levels=(0,),
                                       methods=("M2",))
    assert not warnings
    assert len(meshes) == 1
    assert {r.p for r in report.rows} == {2}


def test_a_study_without_cells_exits_2(capsys, tmp_path):
    """M2 does not run at p=1: a study of nothing but that cell exits 2,
    naming --methods, and writes no CSV."""
    with pytest.raises(SystemExit) as exc:
        main(["convergence", "--p", "1", "--levels", "0", "--methods", "M2",
              "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "error: --methods: no cell to run" in capsys.readouterr().err
    assert not (tmp_path / "hconv.csv").exists()


@pytest.mark.parametrize("study", ["locking", "gradrob"])
def test_sweep_assembles_load_once(monkeypatch, study):
    """The forcing of a c_s^2 sweep does not depend on c_s^2: its problems
    share one forcing function, and the runner assembles one load vector
    per (mesh, method) with the pair, not one per cell."""
    spec = STUDIES[study]
    p = spec.p_list[0]
    assert len({id(spec.problem(p=p, cs2=c).f) for c in spec.cs2_list}) == 1
    calls = []
    assemble_rhs = forms.assemble_rhs

    def counted(*args, **kw):
        calls.append(args)
        return assemble_rhs(*args, **kw)

    monkeypatch.setattr(forms, "assemble_rhs", counted)
    report, warnings = run_study(study, levels=(0,))
    assert not warnings
    assert len(report.rows) == 16
    assert len(calls) == 4


def test_failed_solve_leaves_its_cell_empty(monkeypatch, tmp_path, capsys):
    """A solve that fails at one c_s^2 prints its warning and leaves that
    cell empty; the cells of the other c_s^2 values, whose error norms are
    evaluated in one call with it missing, keep their labels and values."""
    argv = ["locking", "--levels", "0", "--methods", "M3,M4",
            "--cs2", "1,10,100"]
    (tmp_path / "ok").mkdir()
    (tmp_path / "failed").mkdir()
    assert main(argv + ["--out", str(tmp_path / "ok")]) == 0
    ok = capsys.readouterr().out.splitlines()
    solve, calls = cli.solve, []

    def failing(system):
        calls.append(system)
        if len(calls) == 2:     # M3 at c_s^2 = 10: methods, then c_s^2
            raise cli.SingularMatrixError("planted failure")
        return solve(system)

    monkeypatch.setattr(cli, "solve", failing)
    assert main(argv + ["--out", str(tmp_path / "failed")]) == 1
    captured = capsys.readouterr()
    assert len(calls) == 6
    assert "warning: M3 p=2 solve failed: planted failure" in captured.err
    assert captured.out.splitlines() == [
        line for line in ok if not line.startswith("p=2 cs2=10 ")
        or " M3 " not in line]
    ok_csv = (tmp_path / "ok" / "locking.csv").read_text().splitlines()
    failed_csv = (tmp_path / "failed" / "locking.csv").read_text().splitlines()
    header = ok_csv[0].split(",")
    assert failed_csv[0] == ok_csv[0] and len(failed_csv) == len(ok_csv)
    for want, got in zip(ok_csv[1:], failed_csv[1:]):
        want, got = want.split(","), got.split(",")
        assert got[:2] == want[:2]
        for column, a, b in zip(header[2:], want[2:], got[2:]):
            if (want[1] == "10"
                    and column == STUDIES["locking"].columns["M3"]):
                assert a != "" and b == ""
            elif a == "":
                assert b == "", (column, want[1])
            else:
                assert abs(float(b) - float(a)) <= 1e-12 * abs(float(a)), \
                    (column, want[1])


def test_sweep_solves_at_the_given_cs2(monkeypatch):
    """A cell at c_s^2 = 10 solves 10.0 B_h - A_h exactly: the c_s^2 is
    used as given, not through its square root."""
    pairs, systems = [], []
    assemble, solve = cli.assemble_method, cli.solve

    def kept_pair(*args, **kw):
        pairs.append(assemble(*args, **kw))
        return pairs[-1]

    def kept_system(system):
        systems.append(system)
        return solve(system)

    monkeypatch.setattr(cli, "assemble_method", kept_pair)
    monkeypatch.setattr(cli, "solve", kept_system)
    run_locking(levels=(0,), methods=("M3",), cs2_list=(10.0,))
    (ms,), (system,) = pairs, systems
    assert np.array_equal(system.matrix.toarray(),
                          (10.0 * ms.b - ms.a).toarray())


def test_degenerate_flow_rejected():
    """b = 0 makes the streamline form lose definiteness: flag error."""
    with pytest.raises(SystemExit) as exc:
        main(["diagnostics", "--method", "M3", "--level", "0", "--p", "1",
              "--b-scale", "0"])
    assert exc.value.code == 2


def test_solve_subcommand(tmp_path, capsys):
    code = main(["solve", "--method", "M3", "--p", "1", "--level", "1",
                 "--out", str(tmp_path), "--dump-mesh", "--dump-system"])
    assert code == 0
    out = capsys.readouterr().out
    assert "l2_error=" in out
    report = dict(ln.split("=", 1) for ln in
                  (tmp_path / "solve.txt").read_text().splitlines())
    assert report["method"] == "M3"
    assert float(report["l2_error"]) > 0
    assert (tmp_path / "mesh.txt").exists()
    assert (tmp_path / "matrix.txt").exists()


def test_diagnostics_subcommand(capsys):
    code = main(["diagnostics", "--method", "M3", "--level", "1", "--p", "1"])
    assert code == 0
    out = dict(ln.split("=", 1) for ln in
               capsys.readouterr().out.strip().splitlines())
    assert float(out["c_bh"]) > 1.0
    assert 0.0 < float(out["c_hat"]) < 1.0


def test_cell_record_on_stdout_is_its_file(capsys, tmp_path):
    """solve and diagnostics print exactly the record they write to
    solve.txt or diagnostics.txt: key=value lines, an absent value empty
    (M1 p=1 level 1 has c_bh <= 1, so no c_hat)."""
    for command, method, level in (("solve", "M3", "0"),
                                   ("diagnostics", "M1", "1")):
        assert main([command, "--method", method, "--p", "1", "--level",
                     level, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out == (tmp_path / f"{command}.txt").read_text(), command
    assert "\nc_hat=\n" in out


def test_diagnostics_strong_flow_still_runs():
    """Scaling the flow by 100 violates the smallness assumption; the
    estimate still runs and simply reports the (possibly <= 1) constant."""
    res = run_diagnostics("M3", 0, 1, b_scale=100.0)
    assert np.isfinite(res["c_bh"])


def test_diagnostics_rejects_m2(monkeypatch):
    """M2 has no single-field pair: rejected before a mesh is built, with
    the message the diagnostics subcommand prints."""
    monkeypatch.setattr(cli, "make_unit_disc_mesh", None)
    with pytest.raises(ValueError,
                       match=r"^method 'M2' is not one of M1\|M3\|M4$"):
        run_diagnostics("M2", 0, 2)


def test_zero_forcing_scaling(tmp_path):
    """Scaling f by zero zeroes every reported norm (linearity)."""
    from gdfem.problems import gradrob_problem
    from gdfem.forms import assemble_method, error_norms
    from gdfem.linalg import solve as lsolve
    from gdfem.mesh import make_unit_disc_mesh
    prob = gradrob_problem(10.0)
    mesh = make_unit_disc_mesh(1, geom_order=2)
    ms = assemble_method("M4", mesh, 3, prob.coeffs,
                         lambda q: 0.0 * prob.f(q))
    u, _ = ms.split(lsolve(ms.system))
    res, = error_norms(u, None, prob.coeffs, method="M4")
    assert res["l2_norm"] <= 1e-12
