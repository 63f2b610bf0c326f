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

Each option is one OPTIONS entry (parser, subcommands, help), which builds
the flags and decides the config keys a subcommand accepts; numbers pass
forms.check_number.  A method's columns are named by its NORMS entry.

All file output is deterministic: fixed float formats, no timestamps in
files, LF line endings.  Exit codes: 0 success, 1 if any solve failed
(failed cells are left empty in the CSV), 2 for invalid flags.
"""

import argparse
import os
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .fespace import PIOLA_FAMILIES, DegreeError, DiscreteField
from .forms import (METHOD_FORMS, METHODS, assemble_method, check_number,
                    error_norms, paper_coefficients)
from .linalg import (SingularMatrixError, SizeLimitError, dump_matrix,
                     estimate_control_constant, restrict_free, solve)
from .mesh import make_unit_disc_mesh, mesh_size
from .problems import convergence_problem, gradrob_problem, locking_problem

# The norm of each method.  A report column is a prefix and the norm: the
# CSV carries "error" or "norm" columns, and the triple-norm errors ("xh")
# are recorded in the report but not in the CSV.
NORMS = {"M1": "H1", "M2": "H1pp", "M3": "Hdiv", "M4": "DG"}
# The methods without a pseudo-pressure, whose pair diagnostics compares.
SINGLE_FIELD_METHODS = tuple(m for m in METHODS if METHOD_FORMS[m][1] is None)
# The methods with a Piola-mapped velocity family (M3, M4), whose kernel of
# b_h derham_kernel_dim counts.
DERHAM_METHODS = tuple(m for m in SINGLE_FIELD_METHODS
                       if METHOD_FORMS[m][0] in PIOLA_FAMILIES)

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
    metrics: tuple       # (error_norms key, column prefix), CSV one first
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
        return {m: self.metrics[0][1] + NORMS[m] for m in METHODS}


_ERRORS = (("l2_error", "error"), ("xh_error", "xh"))
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
        cs2_list=_SWEEP, axis="cs2", metrics=(("l2_norm", "norm"),),
        csv="rob.csv", svg="rob_{method}.svg", svg_groups=("method", "cs2"),
        label="cs2={cs2:g}", ref_slope=lambda p: 0.0,
        title="gradient-robustness study, {method}, p={p}",
        ylabel="L2 norm of u_h"),
}
ERROR_COLUMNS = STUDIES["convergence"].columns
NORM_COLUMNS = STUDIES["gradrob"].columns

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
            line = ["%.17g" % -key[2], fmt % key[0]]
            line += ["%.17g" % cells[c] if c in cells else ""
                     for c in header[2:]]
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

    def decades(lo, hi):     # the tick positions of one axis
        return [d for d in range(int(np.floor(lo)), int(np.ceil(hi)) + 1)
                if lo <= d <= hi]

    def line(xa, ya, xb, yb, style):
        out.append(f'<line x1="{xa}" y1="{ya}" x2="{xb}" y2="{yb}" {style}/>')

    def text(x, y, size, body, attrs=""):
        out.append(f'<text x="{x}" y="{y}" font-family="sans-serif" '
                   f'font-size="{size}"{attrs}>{body}</text>')

    out = ['<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           f'width="{width}" height="{height}" '
           f'viewBox="0 0 {width} {height}">',
           f'<rect width="{width}" height="{height}" fill="white"/>']
    text(ml, 24, 15, title)
    axis = 'stroke="#444444"'
    line(ml, mt + ph, ml + pw, mt + ph, axis)
    line(ml, mt, ml, mt + ph, axis)
    for d in decades(x0, x1):
        x = f"{X(d):.2f}"
        line(x, mt + ph, x, mt + ph + 5, axis)
        text(x, mt + ph + 20, 11, f"1e{d}", ' text-anchor="middle"')
    for d in decades(y0, y1):
        y = f"{Y(d):.2f}"
        line(ml - 5, y, ml, y, axis)
        text(ml - 8, f"{Y(d) + 4:.2f}", 11, f"1e{d}", ' text-anchor="end"')
    text(f"{ml + pw / 2:.0f}", height - 12, 13, "h (decreasing)",
         ' text-anchor="middle"')
    mid = f"{mt + ph / 2:.0f}"
    text(18, mid, 13, ylabel,
         f' text-anchor="middle" transform="rotate(-90 18 {mid})"')

    # (label, points, polyline style, legend key style) of each series, then
    # of the dashed reference slope anchored below the lowest final point
    curves = []
    for i, (label, hs, vs) in enumerate(series):
        style = f'stroke="{PALETTE[i % len(PALETTE)]}" stroke-width="1.8"'
        curves.append((label, list(zip(hs, vs)), style, style))
    ref_h = sorted({h for _, hs, _ in series for h in hs}, reverse=True)
    if len(ref_h) >= 2 and ref_slope is not None:
        vmin = min(v for _, _, vs in series for v in vs if v > 0)
        c = vmin / (2.0 * min(ref_h) ** ref_slope)
        curves.append(("const" if ref_slope == 0 else f"O(h^{ref_slope:g})",
                       [(h, c * h ** ref_slope) for h in ref_h],
                       'stroke="black" stroke-width="1.2" '
                       'stroke-dasharray="6,4"',
                       'stroke="black" stroke-dasharray="6,4"'))
    for i, (label, hv, style, key) in enumerate(curves):
        coords = " ".join(f"{X(np.log10(h)):.2f},{Y(np.log10(v)):.2f}"
                          for h, v in hv if v > 0)
        out.append(f'<polyline fill="none" {style} points="{coords}"/>')
        ley = mt + 16 + 18 * i
        line(ml + pw + 12, ley - 4, ml + pw + 36, ley - 4, key)
        text(ml + pw + 42, ley, 12, label)
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
                    for key, prefix in spec.metrics:
                        report.add(h, p, cs2, m, prefix + NORMS[m], res[key])
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


def derham_kernel_dim(mesh, p):
    """Dimension of the kernel of b_h on the free dofs of a DERHAM_METHODS
    method at degree p: V_i + p E_i + p(p-1)/2 T (interior vertices,
    interior facets, triangles), the number of interior dofs of continuous
    P_{p+1}.  Read off the mesh; no space is built.

    On a simply connected domain the normal-continuous, divergence-free
    fields of degree p with zero normal trace are the curls of continuous
    P_{p+1} functions vanishing on the boundary (discrete de Rham
    sequence; Arnold, Falk & Winther, Acta Numerica 2006).  The Piola map
    commutes with the curl of a composed scalar, so curved cells keep the
    count.
    """
    boundary = mesh.facet_boundary
    interior_vertices = (mesh.num_vertices
                         - len(np.unique(mesh.facet_vertices[boundary])))
    return int(interior_vertices + p * np.count_nonzero(~boundary)
               + p * (p - 1) // 2 * mesh.num_triangles)


def run_diagnostics(method, level, p, out_path=None, geom_order=None,
                    lambda_b=None, lambda_n=None, b_scale=1.0):
    """Control-constant estimate c_bh of b_h against a_h for one method.

    Returns a dict with c_bh, the derived inf-sup constant c_hat (None if
    c_bh <= 1) and the dimension of the discrete kernel of b_h on the free
    dofs.  Dense computation, capped at 2000 dofs.  For M3 and M4 the
    kernel dimension is derham_kernel_dim's count, and c_bh comes from one
    eigensolve of the pencil (B_h, A_h), which must have its spectral gap
    there.  M1's kernel has no such count and is found by a relative
    threshold on the eigenvalues of B_h, the route whose answer
    perfbench/expected.json records (estimate_control_constant).  A
    method with a pseudo-pressure family (M2) has no single-field pair to
    compare and is rejected with ValueError.
    """
    if method not in SINGLE_FIELD_METHODS:
        raise ValueError("diagnostics requires --method "
                         + "|".join(SINGLE_FIELD_METHODS))
    coeffs = paper_coefficients(p, lambda_b=lambda_b, lambda_n=lambda_n,
                                b_scale=b_scale)
    g = default_geom_order(p) if geom_order is None else geom_order
    mesh = make_unit_disc_mesh(level, geom_order=g)
    ms = assemble_method(method, mesh, p, coeffs, None)
    constrained = ms.velocity_space.constrained_dofs
    Af = restrict_free(ms.a, constrained)
    Bf = restrict_free(ms.b, constrained)
    kernel_dim = (derham_kernel_dim(mesh, p) if method in DERHAM_METHODS
                  else None)
    c_bh, c_hat, kdim = estimate_control_constant(Af, Bf,
                                                  kernel_dim=kernel_dim)
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


def _parse_float(text, kind="nonnegative"):
    """float(text) if it passes the library's number rule as `kind`."""
    return check_number("value", float(text), kind)


def _parse_float_list(text):
    return _nonempty([_parse_float(x, "positive") for x in text.split(",")
                      if x.strip()], text)


def _parse_method(text):
    if text not in METHODS:
        raise ValueError(f"unknown method {text!r}")
    return text


def _parse_methods(text):
    ms = _nonempty([m.strip() for m in text.split(",") if m.strip()], text)
    return tuple(_parse_method(m) for m in ms)


def _parse_dir(text):
    if not os.path.isdir(text):
        raise ValueError(f"directory {text!r} does not exist")
    return text


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


# subcommand -> (help, the methods its --method or --methods names)
COMMANDS = {
    "convergence": ("h-convergence study", METHODS),
    "locking": ("volume-locking study", METHODS),
    "gradrob": ("gradient-robustness study", METHODS),
    "solve": ("single assemble+solve with reports", METHODS),
    "diagnostics": ("control/inf-sup constant of one method (dense)",
                    SINGLE_FIELD_METHODS),
}

# Every option, in help order: the parser of its text (None for a flag
# without a value, which is no config key), the subcommands that take it,
# and its help, where "{methods}" is the subcommand's methods.  The flag
# is --name with "-" for "_", and the config key is the name.
Option = namedtuple("Option", "parse commands help")
_ALL, _CELL = tuple(COMMANDS), ("solve", "diagnostics")
OPTIONS = {
    "p": Option(_parse_int_list, _ALL, "polynomial degree(s), e.g. 2 or 1,2,3"),
    "levels": Option(_parse_int_list, tuple(STUDIES),
                     "refinement levels, e.g. 1-4 or 0,1,2"),
    "methods": Option(_parse_methods, tuple(STUDIES), "subset of {methods}"),
    "cs2": Option(_parse_float_list, (*STUDIES, "solve"),
                  "squared sound speed(s), e.g. 1,1000"),
    "lambda_b": Option(_parse_float, _ALL, "flow-jump penalty (default 10 p^2)"),
    "lambda_n": Option(_parse_float, _ALL, "normal-jump penalty (default "
                       "100 p^2, locking study 10 p^2)"),
    "geom_order": Option(int, _ALL, "geometry map degree (default: by degree p)"),
    "out": Option(_parse_dir, _ALL, "output directory (default: no files)"),
    "method": Option(_parse_method, _CELL, "one of {methods}"),
    "level": Option(int, _CELL, "refinement level"),
    "dump_mesh": Option(None, ("solve",), "write mesh.txt next to the report"),
    "dump_system": Option(None, ("solve",),
                          "write matrix.txt (coordinate format)"),
    "b_scale": Option(partial(_parse_float, kind="positive"), ("diagnostics",),
                      "scale factor on the background flow (default 1)"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gdfem",
        description="Finite element studies of the grad-div / "
                    "streamline-derivative model problem on the unit disc.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help, methods) in COMMANDS.items():
        # full flag names only: a study would read --level as --levels
        sp = sub.add_parser(command, help=help, allow_abbrev=False)
        sp.add_argument("--config", help="key=value config file; flags override")
        for name, opt in OPTIONS.items():
            if command in opt.commands:
                # values stay text here; _resolve parses flags and config alike
                sp.add_argument("--" + name.replace("_", "-"), dest=name,
                                action="store" if opt.parse else "store_true",
                                help=opt.help.format(methods=",".join(methods)))
    return parser


def _resolve(args, parser):
    """Option values: config file values under explicit flags.

    Both pass the option's OPTIONS parser, and a value error names the flag
    or the config key it came from.  A config key must be a valued option
    of the subcommand; any other key is an error (exit 2).
    """
    keys = [k for k, opt in OPTIONS.items()
            if opt.parse and args.command in opt.commands]
    flags = {k: getattr(args, k) for k in keys if getattr(args, k) is not None}
    try:
        raw = read_config(args.config) if args.config else {}
        for key in raw:
            if key not in keys:
                raise ValueError(f"config key {key!r} is not an option of "
                                 f"{args.command}")
        raw.update(flags)
        opts = {}
        for k, v in raw.items():
            try:
                opts[k] = OPTIONS[k].parse(v)
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
    kw = {k: opts.get(k) for k in ("lambda_b", "lambda_n", "geom_order")}
    try:
        if args.command in STUDIES:
            report, warnings = run_study(
                args.command, p_list=opts.get("p"), cs2_list=opts.get("cs2"),
                levels=opts.get("levels"),
                methods=opts.get("methods", METHODS), out_path=out,
                progress=lambda msg: print(msg, file=sys.stderr, flush=True),
                **kw)
            for w in warnings:
                print(w, file=sys.stderr)
            for r in report.csv_rows():
                print(f"p={r.p} cs2={r.cs2:g} h={r.h:.5f} "
                      f"{r.method} {r.metric_name}={r.value:.6e}")
            return 1 if warnings else 0
        if args.command == "solve":
            if "method" not in opts:
                parser.error(f"solve requires --method {'|'.join(METHODS)}")
            try:
                res = run_solve(opts["method"], opts.get("level", 1),
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


if __name__ == "__main__":
    sys.exit(main())
