"""Command-line driver for the study harness.

Subcommands
-----------
convergence   h-refinement study of all four methods on the smooth rotational
              manufactured solution; CSV `hconv.csv` + one SVG per degree.
locking       fixed degree p=2, divergence-free solution, sweep of the sound
              speed; CSV `locking.csv` + one SVG per method.
gradrob       fixed degree p=3, pure-gradient forcing, sweep of the sound
              speed; CSV `rob.csv` + one SVG per method.
solve         a single (method, degree, level) solve with optional text dumps
              of the mesh and the assembled matrix.
diagnostics   dense estimate of the control constant c_bh of b_h over the
              complement of its kernel, and the inf-sup constant derived
              from it.

All file output is deterministic: fixed float formats, no timestamps in
files, LF line endings.  Exit codes: 0 success, 1 if any solve failed
(failed cells are left empty in the CSV), 2 for invalid flags.
"""

import argparse
import os
import sys
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .fespace import DegreeError, DiscreteField
from .forms import (METHOD_FORMS, METHODS, assemble_method, error_norms,
                    paper_coefficients)
from .linalg import (SingularMatrixError, SizeLimitError, dump_matrix,
                     estimate_control_constant, restrict_free, solve)
from .mesh import make_unit_disc_mesh, mesh_size
from .problems import convergence_problem, gradrob_problem, locking_problem

# CSV column carrying each method's value (error or norm studies).
ERROR_COLUMNS = {"M1": "errorH1", "M2": "errorH1pp",
                 "M3": "errorHdiv", "M4": "errorDG"}
NORM_COLUMNS = {"M1": "normH1", "M2": "normH1pp",
                "M3": "normHdiv", "M4": "normDG"}
# Triple-norm errors are recorded in the report but not in the CSV.
XH_COLUMNS = {"M1": "xhH1", "M2": "xhH1pp", "M3": "xhHdiv", "M4": "xhDG"}

PALETTE = ["#1b6ca8", "#d1495b", "#66a182", "#edae49", "#8d96a3", "#2e4057"]


def default_geom_order(p):
    """Geometry degree used by the studies for field degree p.

    Quadratic boundary resolution suffices through p = 3; the Piola-mapped
    families lose accuracy near the curved boundary when the geometry degree
    exceeds 3, so the map degree is capped there and raised to cubic only
    for p = 4.
    """
    return max(2, min(p - 1, 3))


def default_convergence_levels(p):
    return (1, 2, 3, 4) if p <= 2 else (1, 2, 3)


# -- the studies --------------------------------------------------------------

@dataclass(frozen=True)
class Study:
    """Problem, defaults and report layout of one study.

    `axis` is the report field in the CSV's second column ("p" or "cs2");
    a run takes a single value of the other one.  `svg`, `label` and
    `title` are formatted with the fields of a StudyRow.  The problems of
    a sweep differ only in c_s^2: the runner assembles every c_s^2 of a
    sweep with the first one's coefficients and forcing and measures it
    against the first one's exact solution, if it has one.
    """
    problem: object      # problem(p=, cs2=, lambda_b=, lambda_n=)
    p_list: tuple
    levels: object       # p -> default refinement levels
    cs2_list: tuple
    axis: str
    metrics: tuple       # (error_norms key, method -> metric), CSV one first
    csv: str
    svg: str
    svg_groups: tuple    # report fields: one SVG per value, one series per value
    label: str           # series legend
    ref_slope: object    # p -> slope of the dashed reference line
    title: str
    ylabel: str

    @property
    def columns(self):
        """method -> CSV column."""
        return self.metrics[0][1]


_ERRORS = (("l2_error", ERROR_COLUMNS), ("xh_error", XH_COLUMNS))
_SWEEP = (1.0, 10.0, 100.0, 1000.0)

STUDIES = {
    "convergence": Study(
        problem=convergence_problem, p_list=(1, 2, 3, 4),
        levels=default_convergence_levels, cs2_list=(1.0,), axis="p",
        metrics=_ERRORS, csv="hconv.csv", svg="hconv_p{p}.svg",
        svg_groups=("p", "method"), label="{method}",
        ref_slope=lambda p: p + 0.5,
        title="h-convergence, degree p={p}", ylabel="L2 error"),
    "locking": Study(
        problem=locking_problem, p_list=(2,), levels=lambda p: (0, 1, 2),
        cs2_list=_SWEEP, axis="cs2", metrics=_ERRORS, csv="locking.csv",
        svg="locking_{method}.svg", svg_groups=("method", "cs2"),
        label="cs2={cs2:g}", ref_slope=lambda p: p + 0.5,
        title="volume locking study, {method}, p={p}", ylabel="L2 error"),
    "gradrob": Study(
        problem=gradrob_problem, p_list=(3,), levels=lambda p: (1, 2, 3),
        cs2_list=_SWEEP, axis="cs2", metrics=(("l2_norm", NORM_COLUMNS),),
        csv="rob.csv", svg="rob_{method}.svg", svg_groups=("method", "cs2"),
        label="cs2={cs2:g}", ref_slope=lambda p: 0.0,
        title="gradient-robustness study, {method}, p={p}",
        ylabel="L2 norm of u_h"),
}

# CSV second column per axis: (header, format, the fixed field)
_CSV_AXIS = {"p": ("p", "%d", "cs2"), "cs2": ("cs", "%.17g", "p")}


# -- study report -------------------------------------------------------------

@dataclass(frozen=True)
class StudyRow:
    h: float
    p: int
    cs2: float
    method: str
    metric_name: str
    value: float


@dataclass
class StudyReport:
    study: str
    rows: list = field(default_factory=list)

    def add(self, h, p, cs2, method, metric_name, value):
        if value is None:
            return
        if not np.isfinite(value):
            raise ValueError(f"non-finite value for {method} {metric_name}")
        self.rows.append(StudyRow(float(h), int(p), float(cs2),
                                  method, metric_name, float(value)))

    def sort(self):
        self.rows.sort(key=lambda r: (r.p, r.cs2, -r.h, r.method, r.metric_name))
        return self

    def csv_rows(self):
        """The subset of rows that the pinned CSV schema can carry."""
        keep = set(STUDIES[self.study].columns.values())
        return [r for r in self.rows if r.metric_name in keep]


def fit_slope(hs, errs, last=3):
    """Least-squares slope of log(err) vs log(h) over the last `last` levels."""
    hs = np.asarray(hs, dtype=float)[-last:]
    errs = np.asarray(errs, dtype=float)[-last:]
    if len(hs) < 2 or np.any(errs <= 0):
        return float("nan")
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


# -- CSV ----------------------------------------------------------------------

def _fmt(v):
    return "%.17g" % v


def _csv_header(spec):
    return ["h", _CSV_AXIS[spec.axis][0]] + [spec.columns[m] for m in METHODS]


def emit_study_csv(report, path):
    """Write the pinned CSV schema for the given study.

    convergence: h,p,errorH1,errorH1pp,errorHdiv,errorDG
    locking:     h,cs,errorH1,errorH1pp,errorHdiv,errorDG
    gradrob:     h,cs,normH1,normH1pp,normHdiv,normDG
    Cells of skipped or failed method runs stay empty.
    """
    spec = STUDIES[report.study]
    header = _csv_header(spec)
    _, fmt, fixed = _CSV_AXIS[spec.axis]
    groups = {}
    for r in report.csv_rows():
        key = (getattr(r, spec.axis), getattr(r, fixed), -r.h)
        groups.setdefault(key, {})[r.metric_name] = r.value
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for key in sorted(groups):
            cells = groups[key]
            line = [_fmt(-key[2]), fmt % key[0]]
            line += [_fmt(cells[c]) if c in cells else "" for c in header[2:]]
            fh.write(",".join(line) + "\n")


# -- SVG ----------------------------------------------------------------------

def write_svg(path, series, ref_slope, title, ylabel):
    """Hand-written static log-log SVG plot.

    `series` is a list of (label, h_values, y_values); every series becomes
    exactly one <polyline>, and one extra dashed <polyline> draws the
    reference slope h^ref_slope anchored below the data.  Axes, ticks and
    the legend use <line>/<text> so the polyline count stays exact.
    """
    width, height = 640, 480
    ml, mr, mt, mb = 70, 160, 40, 55
    pw, ph = width - ml - mr, height - mt - mb

    pts = [(h, v) for _, hs, vs in series for h, v in zip(hs, vs) if v > 0]
    if not pts:
        raise ValueError("nothing to plot")
    lx = [np.log10(h) for h, _ in pts]
    ly = [np.log10(v) for _, v in pts]
    x0, x1 = min(lx), max(lx)
    y0, y1 = min(ly), max(ly)
    if ref_slope:
        # reserve room for the reference line half a decade below the data
        y0 -= 0.5 + abs(ref_slope) * (x1 - x0) * 0.25
    x0 -= 0.05 * max(x1 - x0, 0.1)
    x1 += 0.05 * max(x1 - x0, 0.1)
    y0 -= 0.05 * max(y1 - y0, 0.1)
    y1 += 0.05 * max(y1 - y0, 0.1)

    def X(lh):  # h decreases to the right, as refinement proceeds
        return ml + pw * (x1 - lh) / (x1 - x0)

    def Y(lv):
        return mt + ph * (y1 - lv) / (y1 - y0)

    out = []
    out.append('<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
               f'width="{width}" height="{height}" '
               f'viewBox="0 0 {width} {height}">')
    out.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    out.append(f'<text x="{ml}" y="24" font-family="sans-serif" '
               f'font-size="15">{title}</text>')
    ax_col = "#444444"
    out.append(f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" '
               f'stroke="{ax_col}"/>')
    out.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" '
               f'stroke="{ax_col}"/>')
    for d in range(int(np.floor(x0)), int(np.ceil(x1)) + 1):
        if x0 <= d <= x1:
            x = X(d)
            out.append(f'<line x1="{x:.2f}" y1="{mt + ph}" x2="{x:.2f}" '
                       f'y2="{mt + ph + 5}" stroke="{ax_col}"/>')
            out.append(f'<text x="{x:.2f}" y="{mt + ph + 20}" '
                       'font-family="sans-serif" font-size="11" '
                       f'text-anchor="middle">1e{d}</text>')
    for d in range(int(np.floor(y0)), int(np.ceil(y1)) + 1):
        if y0 <= d <= y1:
            y = Y(d)
            out.append(f'<line x1="{ml - 5}" y1="{y:.2f}" x2="{ml}" '
                       f'y2="{y:.2f}" stroke="{ax_col}"/>')
            out.append(f'<text x="{ml - 8}" y="{y + 4:.2f}" '
                       'font-family="sans-serif" font-size="11" '
                       f'text-anchor="end">1e{d}</text>')
    out.append(f'<text x="{ml + pw / 2:.0f}" y="{height - 12}" '
               'font-family="sans-serif" font-size="13" '
               'text-anchor="middle">h (decreasing)</text>')
    out.append(f'<text x="18" y="{mt + ph / 2:.0f}" font-family="sans-serif" '
               'font-size="13" text-anchor="middle" '
               f'transform="rotate(-90 18 {mt + ph / 2:.0f})">{ylabel}</text>')

    for i, (label, hs, vs) in enumerate(series):
        col = PALETTE[i % len(PALETTE)]
        coords = " ".join(f"{X(np.log10(h)):.2f},{Y(np.log10(v)):.2f}"
                          for h, v in zip(hs, vs) if v > 0)
        out.append(f'<polyline fill="none" stroke="{col}" stroke-width="1.8" '
                   f'points="{coords}"/>')
        ley = mt + 16 + 18 * i
        out.append(f'<line x1="{ml + pw + 12}" y1="{ley - 4}" '
                   f'x2="{ml + pw + 36}" y2="{ley - 4}" stroke="{col}" '
                   'stroke-width="1.8"/>')
        out.append(f'<text x="{ml + pw + 42}" y="{ley}" '
                   f'font-family="sans-serif" font-size="12">{label}</text>')

    # dashed reference slope anchored below the lowest final data point
    ref_h = sorted({h for _, hs, _ in series for h in hs}, reverse=True)
    if len(ref_h) >= 2 and ref_slope is not None:
        vmin = min(v for _, _, vs in series for v in vs if v > 0)
        c = vmin / (2.0 * min(ref_h) ** ref_slope)
        coords = " ".join(
            f"{X(np.log10(h)):.2f},{Y(np.log10(c * h ** ref_slope)):.2f}"
            for h in ref_h)
        out.append('<polyline fill="none" stroke="black" stroke-width="1.2" '
                   f'stroke-dasharray="6,4" points="{coords}"/>')
        ley = mt + 16 + 18 * len(series)
        out.append(f'<line x1="{ml + pw + 12}" y1="{ley - 4}" '
                   f'x2="{ml + pw + 36}" y2="{ley - 4}" stroke="black" '
                   'stroke-dasharray="6,4"/>')
        slope_txt = ("const" if ref_slope == 0
                     else f"O(h^{ref_slope:g})")
        out.append(f'<text x="{ml + pw + 42}" y="{ley}" '
                   f'font-family="sans-serif" font-size="12">{slope_txt}</text>')
    out.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


# -- study runners ------------------------------------------------------------

def _solve_cell(method, mesh, p, prob, ms):
    """Solve the (method, mesh, p) cell of prob.

    `ms` is the cell's operator pair and load, which the first problem of
    the sweep assembled; the cell solves it at prob's c_s^2.  Returns the
    velocity coefficients (ndof, 1); raises SingularMatrixError if the
    solve fails.
    """
    return ms.split(solve(ms.system_at(prob.coeffs.cs2)))[0].coefficients


def _cell_norms(method, ms, probs, columns):
    """The error_norms dicts of the velocity coefficients `columns` that
    _solve_cell returned for `probs`, cells of one (mesh, method) pair, in
    one error_norms call.  The problems of a c_s^2 sweep share their exact
    solution (if any), so the first one's serves them all."""
    prob = probs[0]
    u = DiscreteField(ms.velocity_space, np.column_stack(columns))
    return error_norms(u, prob if prob.has_exact else None, prob.coeffs,
                       method=method, pp_space=ms.pressure_space,
                       cs2=[pr.coeffs.cs2 for pr in probs])


def run_study(study, p_list=None, cs2_list=None, levels=None,
              methods=METHODS, out_path=None, lambda_b=None, lambda_n=None,
              geom_order=None, progress=None):
    """Run one study of STUDIES; returns (report, warnings).

    Arguments left None take the study's defaults.  The runner loops
    level -> method -> c_s^2.  It assembles each (mesh, method) operator
    pair once, solves it at every c_s^2 and evaluates the error norms of
    all the solutions in one error_norms call, given each one's c_s^2.
    With out_path it writes the study's CSV and SVGs there.
    """
    spec = STUDIES[study]
    p_list = spec.p_list if p_list is None else tuple(p_list)
    cs2_list = spec.cs2_list if cs2_list is None else tuple(cs2_list)
    values = {"p": p_list, "cs2": cs2_list, "method": tuple(methods)}
    fixed = _CSV_AXIS[spec.axis][2]
    if len(values[fixed]) != 1:
        raise ValueError(f"{study} takes a single --{fixed} value")
    report = StudyReport(study)
    warnings = []
    for p in p_list:
        g = default_geom_order(p) if geom_order is None else geom_order
        probs = [spec.problem(p=p, cs2=cs2, lambda_b=lambda_b,
                              lambda_n=lambda_n) for cs2 in cs2_list]
        for level in spec.levels(p) if levels is None else levels:
            mesh = make_unit_disc_mesh(level, geom_order=g)
            h = mesh_size(mesh)
            for m in methods:
                try:
                    ms = assemble_method(m, mesh, p, probs[0].coeffs,
                                         probs[0].f)
                except DegreeError:     # M2 below p = 2: the cell stays empty
                    continue
                solved = []
                for cs2, prob in zip(cs2_list, probs):
                    if progress:
                        progress(f"{study} p={p} cs2={cs2:g} level={level} {m}")
                    try:
                        x = _solve_cell(m, mesh, p, prob, ms)
                    except SingularMatrixError as exc:
                        warnings.append(f"warning: {m} p={p} solve failed: "
                                        f"{exc}")
                        continue
                    solved.append((cs2, prob, x))
                if not solved:
                    continue
                sweep, solved_probs, columns = zip(*solved)
                for cs2, res in zip(sweep, _cell_norms(m, ms, solved_probs,
                                                       columns)):
                    for key, names in spec.metrics:
                        report.add(h, p, cs2, m, names[m], res[key])
    report.sort()
    if out_path is not None:
        emit_study_csv(report, f"{out_path}/{spec.csv}")
        rows = report.csv_rows()
        per_svg, per_series = spec.svg_groups
        for v in values[per_svg]:
            svg_rows = [r for r in rows if getattr(r, per_svg) == v]
            series = []
            for sv in values[per_series]:
                sr = [r for r in svg_rows if getattr(r, per_series) == sv]
                if sr:
                    series.append((spec.label.format(**vars(sr[0])),
                                   [r.h for r in sr], [r.value for r in sr]))
            if series:
                fields = vars(svg_rows[0])
                write_svg(f"{out_path}/{spec.svg.format(**fields)}", series,
                          spec.ref_slope(fields["p"]),
                          spec.title.format(**fields), spec.ylabel)
    return report, warnings


# The three studies by name, as the demos and benchmarks call them.
run_convergence = partial(run_study, "convergence")
run_locking = partial(run_study, "locking")
run_gradrob = partial(run_study, "gradrob")


def run_diagnostics(method, level, p, out_path=None, geom_order=None,
                    lambda_b=None, lambda_n=None, b_scale=1.0):
    """Control-constant estimate c_bh of b_h against a_h for one method.

    Returns a dict with c_bh, the derived inf-sup constant c_hat (None if
    c_bh <= 1) and the dimension of the discrete kernel of b_h on the free
    dofs.  Dense computation, capped at 2000 dofs.  A method with a
    pseudo-pressure family (M2) has no single-field pair to compare and is
    rejected with ValueError.
    """
    if method not in METHODS or METHOD_FORMS[method][1] is not None:
        single = (m for m in METHODS if METHOD_FORMS[m][1] is None)
        raise ValueError(f"diagnostics requires --method {'|'.join(single)}")
    coeffs = paper_coefficients(p, lambda_b=lambda_b, lambda_n=lambda_n,
                                b_scale=b_scale)
    g = default_geom_order(p) if geom_order is None else geom_order
    mesh = make_unit_disc_mesh(level, geom_order=g)
    ms = assemble_method(method, mesh, p, coeffs, None)
    constrained = ms.velocity_space.constrained_dofs
    Af = restrict_free(ms.a, constrained)
    Bf = restrict_free(ms.b, constrained)
    c_bh, c_hat, kdim = estimate_control_constant(Af, Bf)
    result = {"method": method, "level": level, "p": p, "geom_order": g,
              "ndof_free": Af.shape[0], "kernel_dim": kdim,
              "c_bh": c_bh, "c_hat": c_hat}
    if out_path is not None:
        with open(out_path, "w", newline="\n") as fh:
            for k, v in result.items():
                fh.write(f"{k}={'' if v is None else v}\n")
    return result


# -- single solve -------------------------------------------------------------

# Keys of the solve report, in the order solve.txt and stdout list them.
_SOLVE_KEYS = ("method", "p", "level", "cs2", "geom_order", "h", "ndof",
               "l2_error", "xh_error", "l2_norm")


def run_solve(method, level, p, cs2=1.0, out_path=None, geom_order=None,
              lambda_b=None, lambda_n=None, dump_mesh=False,
              dump_system=False):
    """One solve of the smooth manufactured problem; returns the error dict."""
    g = default_geom_order(p) if geom_order is None else geom_order
    prob = convergence_problem(p, cs2=cs2, lambda_b=lambda_b,
                               lambda_n=lambda_n)
    mesh = make_unit_disc_mesh(level, geom_order=g)
    ms = assemble_method(method, mesh, p, prob.coeffs, prob.f)
    u = _solve_cell(method, mesh, p, prob, ms)
    res = _cell_norms(method, ms, [prob], [u])[0]
    res.update({"method": method, "level": level, "p": p, "cs2": cs2,
                "geom_order": g, "h": mesh_size(mesh),
                "ndof": ms.a.shape[0]})
    if out_path is not None:
        with open(f"{out_path}/solve.txt", "w", newline="\n") as fh:
            for k in _SOLVE_KEYS:
                fh.write(f"{k}={res[k]}\n")
        if dump_mesh:
            mesh.dump(f"{out_path}/mesh.txt")
        if dump_system:
            dump_matrix(ms.system.matrix, f"{out_path}/matrix.txt")
    return res


# -- argument handling --------------------------------------------------------

def _nonempty(values, text):
    if not values:
        raise ValueError(f"{text!r} names no value")
    return tuple(values)


def _parse_int_list(text):
    out = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part[1:]:
            a, b = part.split("-", 1)
            out.extend(range(int(a), int(b) + 1))
        elif part:
            out.append(int(part))
    return _nonempty(out, text)


def _parse_float(text, positive=False):
    """A finite float >= 0, or > 0 if positive."""
    v = float(text)
    if not 0 <= v < np.inf or positive and v == 0:
        raise ValueError(f"{text.strip()!r} is not finite and "
                         f"{'> 0' if positive else '>= 0'}")
    return v


def _parse_float_list(text):
    return _nonempty([_parse_float(x, positive=True) for x in text.split(",")
                      if x.strip()], text)


def _parse_methods(text):
    ms = _nonempty([m.strip() for m in text.split(",") if m.strip()], text)
    for m in ms:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}")
    return ms


def read_config(path):
    """key=value configuration file; '#' starts a comment."""
    cfg = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {raw.strip()!r}")
            key, val = line.split("=", 1)
            cfg[key.strip()] = val.strip()
    return cfg


_CONFIG_PARSERS = {
    "p": _parse_int_list, "levels": _parse_int_list,
    "cs2": _parse_float_list, "methods": _parse_methods,
    "lambda_b": _parse_float, "lambda_n": _parse_float, "geom_order": int,
    "out": str, "method": str, "level": int,
    "b_scale": partial(_parse_float, positive=True),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gdfem",
        description="Finite element studies of the grad-div / "
                    "streamline-derivative model problem on the unit disc.")
    sub = parser.add_subparsers(dest="command", required=True)

    def option(sp, name, help):
        # values stay text here; _resolve parses flags and config alike
        sp.add_argument("--" + name.replace("_", "-"), dest=name, help=help)

    def common(sp, study=False, cs2=True):
        sp.add_argument("--config", help="key=value config file; flags override")
        option(sp, "p", "polynomial degree(s), e.g. 2 or 1,2,3")
        if study:
            option(sp, "levels", "refinement levels, e.g. 1-4 or 0,1,2")
            option(sp, "methods", "subset of M1,M2,M3,M4")
        if cs2:
            option(sp, "cs2", "squared sound speed(s), e.g. 1,1000")
        option(sp, "lambda_b", "flow-jump penalty (default 10 p^2)")
        option(sp, "lambda_n", "normal-jump penalty (default 100 p^2, "
                               "locking study 10 p^2)")
        option(sp, "geom_order", "geometry map degree (default: by degree p)")
        option(sp, "out", "output directory (default: no files)")

    for name, help in (("convergence", "h-convergence study"),
                       ("locking", "volume-locking study"),
                       ("gradrob", "gradient-robustness study")):
        common(sub.add_parser(name, help=help), study=True)

    sp = sub.add_parser("solve", help="single assemble+solve with reports")
    common(sp)
    option(sp, "method", "one of M1,M2,M3,M4")
    option(sp, "level", "refinement level")
    sp.add_argument("--dump-mesh", action="store_true",
                    help="write mesh.txt next to the report")
    sp.add_argument("--dump-system", action="store_true",
                    help="write matrix.txt (coordinate format)")

    sp = sub.add_parser("diagnostics",
                        help="control/inf-sup constant of one method (dense)")
    common(sp, cs2=False)
    option(sp, "method", "one of M1,M3,M4")
    option(sp, "level", "refinement level")
    option(sp, "b_scale", "scale factor on the background flow (default 1)")
    return parser


def _resolve(args, parser):
    """Option values: config file values under explicit flags.

    Both are parsed by _CONFIG_PARSERS, and a value error names the flag
    or the config key it came from.  A config key must be an option of the
    subcommand; any other key is an error (exit 2).
    """
    flags = {k: v for k, v in vars(args).items()
             if k in _CONFIG_PARSERS and v is not None}
    try:
        raw = read_config(args.config) if args.config else {}
        for key in raw:
            if key not in _CONFIG_PARSERS or key not in vars(args):
                raise ValueError(f"config key {key!r} is not an option of "
                                 f"{args.command}")
        raw.update(flags)
        opts = {}
        for k, v in raw.items():
            try:
                opts[k] = _CONFIG_PARSERS[k](v)
            except ValueError as exc:
                where = ("--" + k.replace("_", "-") if k in flags
                         else f"config key {k!r}")
                raise ValueError(f"{where}: {exc}") from None
        return opts
    except (OSError, ValueError) as exc:
        parser.error(str(exc))


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    opts = _resolve(args, parser)
    out = opts.get("out")
    if out is not None and not os.path.isdir(out):
        parser.error(f"--out directory {out!r} does not exist")
    kw = {"lambda_b": opts.get("lambda_b"), "lambda_n": opts.get("lambda_n"),
          "geom_order": opts.get("geom_order")}

    def progress(msg):
        print(msg, file=sys.stderr, flush=True)

    try:
        if args.command in STUDIES:
            report, warnings = run_study(
                args.command, p_list=opts.get("p"), cs2_list=opts.get("cs2"),
                levels=opts.get("levels"),
                methods=opts.get("methods", METHODS), out_path=out,
                progress=progress, **kw)
            _print_report(report, warnings)
            return 1 if warnings else 0
        if args.command == "solve":
            method = opts.get("method")
            if method not in METHODS:
                parser.error("solve requires --method M1|M2|M3|M4")
            try:
                res = run_solve(method, opts.get("level", 1),
                                _single(opts.get("p", (2,)), "--p", parser),
                                cs2=_single(opts.get("cs2", (1.0,)), "--cs2",
                                            parser),
                                out_path=out, dump_mesh=args.dump_mesh,
                                dump_system=args.dump_system, **kw)
            except SingularMatrixError as exc:
                print(f"solver failure: {exc}", file=sys.stderr)
                return 1
            for k in _SOLVE_KEYS:
                print(f"{k}={res[k]}")
            return 0
        # diagnostics
        try:
            res = run_diagnostics(opts.get("method"), opts.get("level", 1),
                                  _single(opts.get("p", (1,)), "--p", parser),
                                  out_path=f"{out}/diagnostics.txt" if out else None,
                                  b_scale=opts.get("b_scale", 1.0), **kw)
        except SizeLimitError as exc:
            parser.error(str(exc))
        for k, v in res.items():
            print(f"{k}={v}")
        return 0
    except ValueError as exc:
        parser.error(str(exc))


def _single(vals, flag, parser):
    if len(vals) != 1:
        parser.error(f"this subcommand takes a single {flag} value")
    return vals[0]


def _print_report(report, warnings):
    for w in warnings:
        print(w, file=sys.stderr)
    for r in report.csv_rows():
        print(f"p={r.p} cs2={r.cs2:g} h={r.h:.5f} "
              f"{r.method} {r.metric_name}={r.value:.6e}")


if __name__ == "__main__":
    sys.exit(main())
