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
the flags and decides the config keys a subcommand accepts.  A parser
reads a tuple of values (check_number's rule for a number, a list names a
value, --out is a directory); _resolve holds flags and config values alike
to the subcommand's options and arity: a study sweeps its CSV axis, levels
and methods, every other option takes one value, and solve and diagnostics
require --method.  The runners hold the defaults, and each checks every
cell it would run before its first mesh (_plan): a study with no cell is
refused too.  A refusal exits 2; a ParameterError's message starts with
the flag or config key of the parameter it names.  NORMS names columns.

solve and diagnostics print their one-cell record, a key=value line per
entry with an absent value empty, and --out gets the same lines as
solve.txt or diagnostics.txt.  All file output is deterministic (fixed
float formats, no timestamps, LF line endings) and independent of the
order of list values.  Exit codes: 0 success, 1 if any solve failed
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
from .forms import (METHOD_FORMS, METHODS, assemble_method, check_degree,
                    check_number, error_norms, l2_norms, paper_coefficients)
from .linalg import (SingularMatrixError, dump_matrix,
                     estimate_control_constant, restrict_free, solve)
from .mesh import make_unit_disc_mesh, mesh_size
from .problems import convergence_problem, gradrob_problem, locking_problem
from .quadrature import MAX_ORDER, check_integer, quadrature_orders

# The norm of each method.  A report column is a prefix and the norm: a
# study's CSV carries its "error" (L2 error) or "norm" (L2 norm) columns.
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
    a run takes one value of the other.  Axis p draws an SVG per p with a
    series per method, axis cs2 an SVG per method with a series per c_s^2;
    `svg` and `title` format a StudyRow's fields.  A sweep's problems differ
    only in c_s^2, so the runner assembles them with the first's coefficients
    and forcing and measures them against the first's exact solution, if any.
    """
    problem: object      # problem(p=, cs2=, lambda_b=, lambda_n=)
    p_list: tuple
    levels: object       # p -> default refinement levels
    cs2_list: tuple
    axis: str
    metric: tuple        # (l2_norms key, column prefix) of the CSV columns
    csv: str
    svg: str
    ref_slope: object    # p -> slope of the dashed reference line
    title: str
    ylabel: str

    @property
    def columns(self):
        """method -> CSV column."""
        return {m: self.metric[1] + NORMS[m] for m in METHODS}


_SWEEP = (1.0, 10.0, 100.0, 1000.0)

STUDIES = {
    "convergence": Study(
        problem=convergence_problem, p_list=(1, 2, 3, 4),
        levels=default_convergence_levels, cs2_list=(1.0,), axis="p",
        metric=("l2_error", "error"), csv="hconv.csv", svg="hconv_p{p}.svg",
        ref_slope=lambda p: p + 0.5,
        title="h-convergence, degree p={p}", ylabel="L2 error"),
    "locking": Study(
        problem=locking_problem, p_list=(2,), levels=lambda p: (0, 1, 2),
        cs2_list=_SWEEP, axis="cs2", metric=("l2_error", "error"),
        csv="locking.csv",
        svg="locking_{method}.svg", ref_slope=lambda p: p + 0.5,
        title="volume locking study, {method}, p={p}", ylabel="L2 error"),
    "gradrob": Study(
        problem=gradrob_problem, p_list=(3,), levels=lambda p: (1, 2, 3),
        cs2_list=_SWEEP, axis="cs2", metric=("l2_norm", "norm"),
        csv="rob.csv", svg="rob_{method}.svg", ref_slope=lambda p: 0.0,
        title="gradient-robustness study, {method}, p={p}",
        ylabel="L2 norm of u_h"),
}

# CSV second column per axis: (header, format, the fixed field)
_CSV_AXIS = {"p": ("p", "%d", "cs2"), "cs2": ("cs", "%.17g", "p")}

# subcommand -> (help, the methods its runner runs and --method(s) names)
COMMANDS = {
    "convergence": ("h-convergence study", METHODS),
    "locking": ("volume-locking study", METHODS),
    "gradrob": ("gradient-robustness study", METHODS),
    "solve": ("single assemble+solve with reports", METHODS),
    "diagnostics": ("control/inf-sup constant of one method (dense)",
                    SINGLE_FIELD_METHODS),
}


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
        if not np.isfinite(value):
            raise ValueError(f"non-finite value for {method} {metric_name}")
        self.rows.append(StudyRow(float(h), int(p), float(cs2),
                                  method, metric_name, float(value)))

    def sort(self):
        self.rows.sort(key=lambda r: (r.p, r.cs2, -r.h, r.method, r.metric_name))
        return self


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
    for r in report.rows:
        key = (getattr(r, spec.axis), getattr(r, fixed), -r.h)
        groups.setdefault(key, {})[r.metric_name] = r.value
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for key, cells in sorted(groups.items()):
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
    # reserve room for the reference line, drawn below the data at any slope
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
    if len(ref_h) >= 2:
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


class ParameterError(ValueError):
    """A refused value; `name` is its parameter, the CLI option."""

    def __init__(self, name, message):
        super().__init__(message)
        self.name = name


def _plan(command, methods, p_list, levels, geom_order):
    """{(p, geometry order, levels): methods} of the cells that the runner
    of `command` runs (levels None: the study's levels(p)); a repeated p,
    level or method runs once, where it first occurs.
    ParameterError names the parameter of a method not in COMMANDS, a
    degree, level or geometry order check_integer refuses, a degree
    check_degree refuses (a study skips that cell: M2 at p = 1), a
    quadrature order the command computes above MAX_ORDER, or no cell."""
    study = STUDIES.get(command)
    method_key, level_key = ("methods", "levels") if study else ("method",
                                                                 "level")
    plan = {}
    for p in p_list:
        check_integer("degree", p, 1, partial(ParameterError, "p"))
        g = default_geom_order(p) if geom_order is None else geom_order
        check_integer("geom_order", g, 1, partial(ParameterError, "geom_order"))
        p_levels = tuple(dict.fromkeys(
            check_integer("level", level, 0, partial(ParameterError, level_key))
            for level in (study.levels(p) if levels is None else levels)))
        for m in methods:
            if m not in COMMANDS[command][1]:
                raise ParameterError(method_key, f"method {m!r} is not one "
                                     "of " + "|".join(COMMANDS[command][1]))
            try:        # a study leaves the cell empty: M2 below p = 2
                check_degree(m, p, DegreeError if study
                             else partial(ParameterError, "p"))
            except DegreeError:
                continue
            uses = quadrature_orders(p, g)
            if command == "diagnostics":        # it computes no error norms
                del uses["error norms"]
            if max(uses.values()) > MAX_ORDER:
                raise ParameterError(
                    "p" if geom_order is None else "geom_order",
                    f"{m} at p={p}, geom_order={g} needs quadrature order "
                    f"{max(uses.values())}, above the maximum {MAX_ORDER}")
            plan.setdefault((p, g, p_levels), {})[m] = None
    if not any(p_levels for _, _, p_levels in plan):
        raise ParameterError(method_key, f"no cell to run: {','.join(methods)}"
                             f" at p={','.join(map(str, p_list))}")
    return plan


# -- study runners ------------------------------------------------------------

def _solve_cell(method, mesh, p, prob, ms):
    """Solve the (method, mesh, p) cell of prob.

    `ms` is the cell's operator pair and load, which the first problem of
    the sweep assembled; the cell solves it at prob's c_s^2.  Returns the
    velocity coefficients (ndof, 1); raises SingularMatrixError if the
    solve fails.
    """
    return ms.split(solve(ms.system_at(prob.coeffs.cs2)))[0].coefficients


def run_study(study, p_list=None, cs2_list=None, levels=None,
              methods=METHODS, out_path=None, lambda_b=None, lambda_n=None,
              geom_order=None, progress=None):
    """Run one study of STUDIES; returns (report, warnings).

    Arguments left None take the study's defaults.  The runner loops over
    its _plan's cells, p -> level -> method -> c_s^2.  It assembles each
    (mesh, method) operator pair once, solves it at every c_s^2 and
    computes the one norm its CSV holds (Study.metric) for all the
    solutions in one l2_norms call; a sweep's problems share their exact
    solution, if any.  With out_path it writes its CSV and SVGs there from
    the sorted report rows alone: the order of its lists changes no file.
    """
    spec = STUDIES[study]
    p_list = spec.p_list if p_list is None else tuple(p_list)
    cs2_list = spec.cs2_list if cs2_list is None else tuple(cs2_list)
    fixed = _CSV_AXIS[spec.axis][2]
    if len(p_list if fixed == "p" else cs2_list) != 1:
        raise ParameterError(fixed, f"{study} takes a single {fixed} value")
    key, prefix = spec.metric
    report = StudyReport(study)
    warnings = []
    for (p, g, p_levels), p_methods in _plan(study, methods, p_list, levels,
                                             geom_order).items():
        probs = [spec.problem(p=p, cs2=cs2, lambda_b=lambda_b,
                              lambda_n=lambda_n) for cs2 in cs2_list]
        exact = probs[0] if probs[0].has_exact else None
        for level in p_levels:
            mesh = make_unit_disc_mesh(level, geom_order=g)
            h = mesh_size(mesh)
            for m in p_methods:
                ms = assemble_method(m, mesh, p, probs[0].coeffs, probs[0].f)
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
                    solved.append((cs2, x))
                if not solved:
                    continue
                sweep, columns = zip(*solved)
                u = DiscreteField(ms.velocity_space, np.column_stack(columns))
                for cs2, res in zip(sweep, l2_norms(u, exact)):
                    report.add(h, p, cs2, m, prefix + NORMS[m], res[key])
    report.sort()
    if out_path is not None:
        emit_study_csv(report, f"{out_path}/{spec.csv}")
        # {SVG value: (fields, {series value: {h: value}})}, h descending
        per_svg, per_series = (("p", "method") if spec.axis == "p"
                               else ("method", "cs2"))
        plots = {}
        for r in report.rows:
            series = plots.setdefault(getattr(r, per_svg), (vars(r), {}))[1]
            series.setdefault(getattr(r, per_series), {})[r.h] = r.value
        for fields, series in plots.values():
            write_svg(f"{out_path}/{spec.svg.format(**fields)}",
                      [(v if per_series == "method" else f"cs2={v:g}",
                        list(pts), list(pts.values()))
                       for v, pts in sorted(series.items())],
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


def run_diagnostics(method, level=1, p=1, out_path=None, geom_order=None,
                    lambda_b=None, lambda_n=None, b_scale=1.0):
    """Control-constant estimate c_bh of b_h against a_h for one method.

    Returns a dict with c_bh, the derived inf-sup constant c_hat (None if
    c_bh <= 1) and the dimension of the discrete kernel of b_h on the free
    dofs.  Dense computation, capped at 2000 dofs.  For M3 and M4 the
    kernel dimension is derham_kernel_dim's count, and c_bh comes from the
    spectrum of the pencil (B_h, A_h), which must have its spectral gap
    there.  M1's kernel has no such count and is found by a relative
    threshold on the eigenvalues of B_h, the route whose answer
    perfbench/expected.json records (estimate_control_constant).  Either
    route solves the pencil on the four Fourier blocks of the hexagon
    fan's rotation, with which A_h and B_h commute: its dof table on the
    free dofs (forms.Rotation.dofs), from the Rotation the assembly built.
    A method with a pseudo-pressure family (M2) has no single-field pair
    to compare; _plan refuses it as it does any bad cell.  With out_path
    the result is written there as diagnostics.txt (_record).
    """
    [(_, g, _)] = _plan("diagnostics", [method], [p], [level], geom_order)
    coeffs = paper_coefficients(p, lambda_b=lambda_b, lambda_n=lambda_n,
                                b_scale=b_scale)
    mesh = make_unit_disc_mesh(level, geom_order=g)
    ms = assemble_method(method, mesh, p, coeffs, None)
    constrained = ms.velocity_space.constrained_dofs
    Af = restrict_free(ms.a, constrained)
    Bf = restrict_free(ms.b, constrained)
    kernel_dim = (derham_kernel_dim(mesh, p) if method in DERHAM_METHODS
                  else None)
    c_bh, c_hat, kdim = estimate_control_constant(
        Af, Bf, kernel_dim=kernel_dim, rotation=ms.rotation.dofs(constrained))
    result = {"method": method, "level": level, "p": p, "geom_order": g,
              "ndof_free": Af.shape[0], "kernel_dim": kdim,
              "c_bh": c_bh, "c_hat": c_hat}
    if out_path is not None:
        with open(f"{out_path}/diagnostics.txt", "w", newline="\n") as fh:
            fh.write(_record(result))
    return result


# -- single solve -------------------------------------------------------------

def _record(result):
    """The one-cell record of solve and diagnostics, on stdout and in their
    .txt file alike: a key=value line per entry, an absent value empty."""
    return "".join(f"{k}={'' if v is None else v}\n"
                   for k, v in result.items())


def run_solve(method, level=1, p=2, cs2=1.0, out_path=None, geom_order=None,
              lambda_b=None, lambda_n=None, dump_mesh=False,
              dump_system=False):
    """One solve of the smooth manufactured problem; returns its record,
    which out_path gets as solve.txt, next to the optional dumps."""
    [(_, g, _)] = _plan("solve", [method], [p], [level], geom_order)
    prob = convergence_problem(p, cs2=cs2, lambda_b=lambda_b,
                               lambda_n=lambda_n)
    mesh = make_unit_disc_mesh(level, geom_order=g)
    ms = assemble_method(method, mesh, p, prob.coeffs, prob.f)
    u = _solve_cell(method, mesh, p, prob, ms)
    res = {"method": method, "p": p, "level": level, "cs2": cs2,
           "geom_order": g, "h": mesh_size(mesh), "ndof": ms.a.shape[0],
           **error_norms(DiscreteField(ms.velocity_space, u), prob,
                         prob.coeffs, method, ms.pressure_space)[0]}
    if out_path is not None:
        with open(f"{out_path}/solve.txt", "w", newline="\n") as fh:
            fh.write(_record(res))
        if dump_mesh:
            mesh.dump(f"{out_path}/mesh.txt")
        if dump_system:
            dump_matrix(ms.system.matrix, f"{out_path}/matrix.txt")
    return res


# -- argument handling --------------------------------------------------------

def _parse_list(text, item):
    """The values of a comma list, one at least: item(part) gives a list of
    the values of each part not blank, and raises ValueError for a value
    the library refuses."""
    values = tuple(v for part in map(str.strip, text.split(",")) if part
                   for v in item(part))
    if not values:
        raise ValueError(f"{text!r} names no value")
    return values


def _integers(part):
    """n or the range a-b; the runners check their minimums (_plan)."""
    a, b = part.split("-", 1) if "-" in part[1:] else (part, part)
    return range(int(a), int(b) + 1)


def _number(kind, part):
    return [check_number("value", float(part), kind)]


def _parse_dir(text):
    """(text,) for an existing directory: read whole, not as a list."""
    if not os.path.isdir(text):
        raise ValueError(f"directory {text!r} does not exist")
    return (text,)


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


# Every option, in help order: the parser of its text, which returns the
# tuple of its values and raises ValueError for one the library refuses
# (None for a flag without a value, which is no config key), the subcommands
# that take it, and its help, where "{methods}" is the subcommand's methods.
# The flag is --name with "-" for "_", and the config key is the name.
Option = namedtuple("Option", "parse commands help")
_ALL, _CELL = tuple(COMMANDS), ("solve", "diagnostics")
_INTEGERS = partial(_parse_list, item=_integers)
_METHODS = partial(_parse_list, item=lambda part: [part])
_PENALTY = partial(_parse_list, item=partial(_number, "nonnegative"))
_POSITIVE = partial(_parse_list, item=partial(_number, "positive"))
OPTIONS = {
    "p": Option(_INTEGERS, _ALL, "polynomial degree(s), e.g. 2 or 1,2,3"),
    "levels": Option(_INTEGERS, tuple(STUDIES),
                     "refinement levels, e.g. 1-4 or 0,1,2"),
    "methods": Option(_METHODS, tuple(STUDIES), "subset of {methods}"),
    "cs2": Option(_POSITIVE, (*STUDIES, "solve"),
                  "squared sound speed(s), e.g. 1,1000"),
    "lambda_b": Option(_PENALTY, _ALL, "flow-jump penalty (default 10 p^2)"),
    "lambda_n": Option(_PENALTY, _ALL, "normal-jump penalty (default "
                       "100 p^2, locking study 10 p^2)"),
    "geom_order": Option(_INTEGERS, _ALL,
                         "geometry map degree (default: by degree p)"),
    "out": Option(_parse_dir, _ALL, "output directory (default: no files)"),
    "method": Option(_METHODS, _CELL, "one of {methods}"),
    "level": Option(_INTEGERS, _CELL, "refinement level"),
    "dump_mesh": Option(None, ("solve",), "write mesh.txt next to the report"),
    "dump_system": Option(None, ("solve",),
                          "write matrix.txt (coordinate format)"),
    "b_scale": Option(_POSITIVE, ("diagnostics",),
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
        sp.set_defaults(parser=sp)      # a refusal prints its usage line
        sp.add_argument("--config", help="key=value config file; flags override")
        for name, opt in OPTIONS.items():
            if command in opt.commands:
                # values stay text here; _resolve parses flags and config alike
                sp.add_argument("--" + name.replace("_", "-"), dest=name,
                                action="store" if opt.parse else "store_true",
                                help=opt.help.format(methods=",".join(methods)))
    return parser


def _resolve(args):
    """The runner keywords of the options given, config file values under
    explicit flags, held to the options and arity the module docstring
    states; a ParameterError names the option at fault."""
    command, study = args.command, STUDIES.get(args.command)
    swept = (study.axis, "levels", "methods") if study else ()
    keys = [k for k, opt in OPTIONS.items()
            if opt.parse and command in opt.commands]
    kw = {k: True for k, opt in OPTIONS.items()
          if opt.parse is None and getattr(args, k, False)}
    raw = read_config(args.config) if args.config else {}
    for key in raw:
        if key not in keys:
            raise ValueError(f"config key {key!r} is not an option of "
                             f"{command}")
    raw.update({k: getattr(args, k) for k in keys
                if getattr(args, k) is not None})
    for k, text in raw.items():
        try:
            value = OPTIONS[k].parse(text)
        except ValueError as exc:
            raise ParameterError(k, exc) from None
        if k not in swept and len(value) != 1:
            raise ParameterError(k, f"{command} takes a single value, "
                                 f"got {text!r}")
        if study and k in ("p", "cs2"):     # a fixed one as a 1-tuple
            kw[k + "_list"] = value
        else:
            kw["out_path" if k == "out" else k] = (value if k in swept
                                                   else value[0])
    if "method" in keys and "method" not in kw:
        raise ValueError(f"{command} requires --method "
                         + "|".join(COMMANDS[command][1]))
    return kw


def main(argv=None):
    args, unknown = build_parser().parse_known_args(argv)
    try:
        if unknown:
            raise ValueError(f"unrecognized arguments: {' '.join(unknown)}")
        kw = _resolve(args)
        if args.command in STUDIES:
            report, warnings = run_study(
                args.command, **kw,
                progress=lambda msg: print(msg, file=sys.stderr, flush=True))
            for w in warnings:
                print(w, file=sys.stderr)
            for r in report.rows:
                print(f"p={r.p} cs2={r.cs2:g} h={r.h:.5f} "
                      f"{r.method} {r.metric_name}={r.value:.6e}")
            return 1 if warnings else 0
        res = (run_solve if args.command == "solve" else run_diagnostics)(**kw)
    except SingularMatrixError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        if isinstance(exc, ParameterError):     # name its flag or config key
            flag = getattr(args, exc.name) is not None
            exc = (f"--{exc.name.replace('_', '-')}" if flag
                   else f"config key {exc.name!r}") + f": {exc}"
        args.parser.error(str(exc))
    sys.stdout.write(_record(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
