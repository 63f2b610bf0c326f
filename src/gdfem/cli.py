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
import sys
from dataclasses import dataclass, field

import numpy as np

from .forms import (METHODS, assemble_method, error_norms, method_forms,
                    method_spaces, rotational_flow, CoefficientSet)
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
        cols = NORM_COLUMNS if self.study == "gradrob" else ERROR_COLUMNS
        keep = set(cols.values())
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


def emit_study_csv(report, path):
    """Write the pinned CSV schema for the given study.

    convergence: h,p,errorH1,errorH1pp,errorHdiv,errorDG
    locking:     h,cs,errorH1,errorH1pp,errorHdiv,errorDG
    gradrob:     h,cs,normH1,normH1pp,normHdiv,normDG
    Cells of skipped or failed method runs stay empty.
    """
    conv = report.study == "convergence"
    cols = NORM_COLUMNS if report.study == "gradrob" else ERROR_COLUMNS
    colnames = [cols[m] for m in METHODS]
    header = ["h", "p" if conv else "cs"] + colnames
    groups = {}
    for r in report.csv_rows():
        key = (r.p, r.cs2, -r.h) if conv else (r.cs2, r.p, -r.h)
        groups.setdefault(key, {})[r.metric_name] = r.value
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for key in sorted(groups):
            cells = groups[key]
            h = -key[2]
            line = [_fmt(h), ("%d" % key[0]) if conv else _fmt(key[0])]
            line += [_fmt(cells[c]) if c in cells else "" for c in colnames]
            fh.write(",".join(line) + "\n")


def read_study_csv(path):
    """Parse a study CSV back into a StudyReport.

    The study kind is inferred from the header.  The field absent from the
    file (cs2 for convergence, p for locking/gradrob) is restored from the
    study defaults, so parse(emit(report)) reproduces the CSV-carried rows
    of a default run exactly.
    """
    with open(path, newline="\n") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = lines[0].split(",")
    if header[1] == "p":
        study, p_def, cs2_def = "convergence", None, 1.0
    elif header[2].startswith("norm"):
        study, p_def, cs2_def = "gradrob", 3, None
    else:
        study, p_def, cs2_def = "locking", 2, None
    colnames = header[2:]
    col_method = {v: k for k, v in
                  (NORM_COLUMNS if study == "gradrob" else ERROR_COLUMNS).items()}
    report = StudyReport(study)
    for ln in lines[1:]:
        cells = ln.split(",")
        h = float(cells[0])
        if study == "convergence":
            p, cs2 = int(cells[1]), cs2_def
        else:
            p, cs2 = p_def, float(cells[1])
        for name, cell in zip(colnames, cells[2:]):
            if cell:
                report.add(h, p, cs2, col_method[name], name, float(cell))
    return report.sort()


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

def _solve_cell(method, mesh, p, prob, warnings):
    """One (method, mesh) solve; returns error_norms dict or None on failure."""
    try:
        ms = assemble_method(method, mesh, p, prob.coeffs, prob.f)
        x = solve(ms.system)
        u = ms.split(x)
        if method == "M2":
            u, _ = u
            return error_norms(u, prob if prob.has_exact else None, prob.coeffs,
                               method=method, pp_space=ms.pressure_space)
        return error_norms(u, prob if prob.has_exact else None, prob.coeffs,
                           method=method)
    except SingularMatrixError as exc:
        warnings.append(f"warning: {method} p={p} solve failed: {exc}")
        return None


def run_convergence(p_list=(1, 2, 3, 4), levels=None, methods=METHODS,
                    out_path=None, cs2=1.0, lambda_b=None, lambda_n=None,
                    geom_order=None, progress=None):
    """h-convergence of the smooth manufactured solution, one CSV + SVG per p."""
    report = StudyReport("convergence")
    warnings = []
    for p in p_list:
        lv = default_convergence_levels(p) if levels is None else levels
        g = default_geom_order(p) if geom_order is None else geom_order
        prob = convergence_problem(p, cs2=cs2, lambda_b=lambda_b,
                                   lambda_n=lambda_n)
        for level in lv:
            mesh = make_unit_disc_mesh(level, geom_order=g)
            h = mesh_size(mesh)
            for m in methods:
                if m == "M2" and p < 2:
                    continue
                if progress:
                    progress(f"convergence p={p} level={level} {m}")
                res = _solve_cell(m, mesh, p, prob, warnings)
                if res is None:
                    continue
                report.add(h, p, cs2, m, ERROR_COLUMNS[m], res["l2_error"])
                report.add(h, p, cs2, m, XH_COLUMNS[m], res["xh_error"])
    report.sort()
    if out_path is not None:
        emit_study_csv(report, f"{out_path}/hconv.csv")
        for p in p_list:
            series = []
            for m in methods:
                rows = [r for r in report.csv_rows()
                        if r.p == p and r.method == m]
                if rows:
                    series.append((m, [r.h for r in rows],
                                   [r.value for r in rows]))
            if series:
                write_svg(f"{out_path}/hconv_p{p}.svg", series, p + 0.5,
                          f"h-convergence, degree p={p}", "L2 error")
    return report, warnings


def run_locking(cs2_list=(1.0, 10.0, 100.0, 1000.0), levels=(0, 1, 2),
                methods=METHODS, out_path=None, p=2, lambda_b=None,
                lambda_n=None, geom_order=None, progress=None):
    """Sound-speed sweep on a divergence-free solution at fixed p."""
    g = default_geom_order(p) if geom_order is None else geom_order
    report = StudyReport("locking")
    warnings = []
    meshes = {lv: make_unit_disc_mesh(lv, geom_order=g) for lv in levels}
    for cs2 in cs2_list:
        prob = locking_problem(cs2, p=p, lambda_b=lambda_b, lambda_n=lambda_n)
        for level in levels:
            mesh = meshes[level]
            h = mesh_size(mesh)
            for m in methods:
                if m == "M2" and p < 2:
                    continue
                if progress:
                    progress(f"locking cs2={cs2:g} level={level} {m}")
                res = _solve_cell(m, mesh, p, prob, warnings)
                if res is None:
                    continue
                report.add(h, p, cs2, m, ERROR_COLUMNS[m], res["l2_error"])
                report.add(h, p, cs2, m, XH_COLUMNS[m], res["xh_error"])
    report.sort()
    if out_path is not None:
        emit_study_csv(report, f"{out_path}/locking.csv")
        for m in methods:
            if m == "M2" and p < 2:
                continue
            series = []
            for cs2 in cs2_list:
                rows = [r for r in report.csv_rows()
                        if r.cs2 == cs2 and r.method == m]
                if rows:
                    series.append((f"cs2={cs2:g}", [r.h for r in rows],
                                   [r.value for r in rows]))
            if series:
                write_svg(f"{out_path}/locking_{m}.svg", series, p + 0.5,
                          f"volume locking study, {m}, p={p}", "L2 error")
    return report, warnings


def run_gradrob(cs2_list=(1.0, 10.0, 100.0, 1000.0), levels=(1, 2, 3),
                methods=METHODS, out_path=None, p=3, lambda_b=None,
                lambda_n=None, geom_order=None, progress=None):
    """Sound-speed sweep under pure-gradient forcing; records solution norms."""
    g = default_geom_order(p) if geom_order is None else geom_order
    report = StudyReport("gradrob")
    warnings = []
    meshes = {lv: make_unit_disc_mesh(lv, geom_order=g) for lv in levels}
    for cs2 in cs2_list:
        prob = gradrob_problem(cs2, p=p, lambda_b=lambda_b, lambda_n=lambda_n)
        for level in levels:
            mesh = meshes[level]
            h = mesh_size(mesh)
            for m in methods:
                if m == "M2" and p < 2:
                    continue
                if progress:
                    progress(f"gradrob cs2={cs2:g} level={level} {m}")
                res = _solve_cell(m, mesh, p, prob, warnings)
                if res is None:
                    continue
                report.add(h, p, cs2, m, NORM_COLUMNS[m], res["l2_norm"])
    report.sort()
    if out_path is not None:
        emit_study_csv(report, f"{out_path}/rob.csv")
        for m in methods:
            series = []
            for cs2 in cs2_list:
                rows = [r for r in report.csv_rows()
                        if r.cs2 == cs2 and r.method == m]
                if rows:
                    series.append((f"cs2={cs2:g}", [r.h for r in rows],
                                   [r.value for r in rows]))
            if series:
                write_svg(f"{out_path}/rob_{m}.svg", series, 0.0,
                          f"gradient-robustness study, {m}, p={p}",
                          "L2 norm of u_h")
    return report, warnings


def run_diagnostics(method, level, p, out_path=None, geom_order=None,
                    lambda_b=None, lambda_n=None, b_scale=1.0):
    """Control-constant estimate c_bh of b_h against a_h for one method.

    Returns a dict with c_bh, the derived inf-sup constant c_hat (None if
    c_bh <= 1) and the dimension of the discrete kernel of b_h on the free
    dofs.  Dense computation, capped at 2000 dofs.
    """
    if method == "M2":
        raise ValueError("diagnostics target the single-field methods "
                         "M1/M3/M4 (M2 couples an auxiliary scalar field)")
    coeffs = CoefficientSet(
        rho=1.0, c_s=1.0, b_flow=rotational_flow(0.1 * b_scale),
        b_inf=0.1 * b_scale,
        lambda_b=10.0 * p * p if lambda_b is None else lambda_b,
        lambda_n=100.0 * p * p if lambda_n is None else lambda_n)
    g = default_geom_order(p) if geom_order is None else geom_order
    mesh = make_unit_disc_mesh(level, geom_order=g)
    vel, _ = method_spaces(method, mesh, p)
    A, B = method_forms(method, vel, coeffs)
    Af = restrict_free(A, vel.constrained_dofs)
    Bf = restrict_free(B, vel.constrained_dofs)
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

def run_solve(method, level, p, cs2=1.0, out_path=None, geom_order=None,
              lambda_b=None, lambda_n=None, dump_mesh=False,
              dump_system=False):
    """One solve of the smooth manufactured problem; returns the error dict."""
    g = default_geom_order(p) if geom_order is None else geom_order
    prob = convergence_problem(p, cs2=cs2, lambda_b=lambda_b,
                               lambda_n=lambda_n)
    mesh = make_unit_disc_mesh(level, geom_order=g)
    ms = assemble_method(method, mesh, p, prob.coeffs, prob.f)
    x = solve(ms.system)
    u = ms.split(x)
    pp_space = None
    if method == "M2":
        u, _ = u
        pp_space = ms.pressure_space
    res = error_norms(u, prob, prob.coeffs, method=method, pp_space=pp_space)
    res.update({"method": method, "level": level, "p": p, "cs2": cs2,
                "geom_order": g, "h": mesh_size(mesh),
                "ndof": ms.system.matrix.shape[0]})
    if out_path is not None:
        with open(f"{out_path}/solve.txt", "w", newline="\n") as fh:
            for k in ("method", "p", "level", "cs2", "geom_order", "h",
                      "ndof", "l2_error", "xh_error", "l2_norm"):
                fh.write(f"{k}={res[k]}\n")
        if dump_mesh:
            mesh.dump(f"{out_path}/mesh.txt")
        if dump_system:
            dump_matrix(ms.system.matrix, f"{out_path}/matrix.txt")
    return res


# -- argument handling --------------------------------------------------------

def _parse_int_list(text):
    out = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part[1:]:
            a, b = part.split("-", 1)
            out.extend(range(int(a), int(b) + 1))
        elif part:
            out.append(int(part))
    return tuple(out)


def _parse_float_list(text):
    return tuple(float(x) for x in text.split(",") if x.strip())


def _parse_methods(text):
    ms = tuple(m.strip() for m in text.split(",") if m.strip())
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
    "lambda_b": float, "lambda_n": float, "geom_order": int,
    "out": str, "method": str, "level": int, "b_scale": float,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gdfem",
        description="Finite element studies of the grad-div / "
                    "streamline-derivative model problem on the unit disc.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, study=False, cs2=True):
        sp.add_argument("--config", help="key=value config file; flags override")
        sp.add_argument("--p", help="polynomial degree(s), e.g. 2 or 1,2,3")
        if study:
            sp.add_argument("--levels",
                            help="refinement levels, e.g. 1-4 or 0,1,2")
            sp.add_argument("--methods", help="subset of M1,M2,M3,M4")
        if cs2:
            sp.add_argument("--cs2", help="squared sound speed(s), e.g. 1,1000")
        sp.add_argument("--lambda-b", dest="lambda_b", type=float,
                        help="flow-jump penalty (default 10 p^2)")
        sp.add_argument("--lambda-n", dest="lambda_n", type=float,
                        help="normal-jump penalty (default 100 p^2, "
                             "locking study 10 p^2)")
        sp.add_argument("--geom-order", dest="geom_order", type=int,
                        help="geometry map degree (default: by degree p)")
        sp.add_argument("--out", help="output directory (default: no files)")

    common(sub.add_parser("convergence", help="h-convergence study"),
           study=True)
    common(sub.add_parser("locking", help="volume-locking study"),
           study=True)
    common(sub.add_parser("gradrob", help="gradient-robustness study"),
           study=True)

    sp = sub.add_parser("solve", help="single assemble+solve with reports")
    common(sp)
    sp.add_argument("--method", help="one of M1,M2,M3,M4")
    sp.add_argument("--level", type=int, help="refinement level")
    sp.add_argument("--dump-mesh", action="store_true",
                    help="write mesh.txt next to the report")
    sp.add_argument("--dump-system", action="store_true",
                    help="write matrix.txt (coordinate format)")

    sp = sub.add_parser("diagnostics",
                        help="control/inf-sup constant of one method (dense)")
    common(sp, cs2=False)
    sp.add_argument("--method", help="one of M1,M3,M4")
    sp.add_argument("--level", type=int, help="refinement level")
    sp.add_argument("--b-scale", dest="b_scale", type=float,
                    help="scale factor on the background flow (default 1)")
    return parser


def _resolve(args, parser):
    """Merge config file values under explicit flags."""
    cfg = {}
    if getattr(args, "config", None):
        try:
            raw = read_config(args.config)
            for key, val in raw.items():
                if key not in _CONFIG_PARSERS:
                    raise ValueError(f"unknown config key {key!r}")
                cfg[key] = _CONFIG_PARSERS[key](val)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
    out = dict(cfg)
    for key in ("p", "levels", "cs2", "methods", "lambda_b", "lambda_n",
                "geom_order", "out", "method", "level", "b_scale"):
        val = getattr(args, key, None)
        if val is not None:
            if key in ("p", "levels") and isinstance(val, str):
                val = _parse_int_list(val)
            elif key == "cs2" and isinstance(val, str):
                val = _parse_float_list(val)
            elif key == "methods" and isinstance(val, str):
                val = _parse_methods(val)
            out[key] = val
    return out


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _resolve(args, parser)
    except ValueError as exc:
        parser.error(str(exc))

    methods = opts.get("methods", METHODS)
    out = opts.get("out")
    kw = {"lambda_b": opts.get("lambda_b"), "lambda_n": opts.get("lambda_n"),
          "geom_order": opts.get("geom_order")}

    def progress(msg):
        print(msg, file=sys.stderr, flush=True)

    try:
        if args.command == "convergence":
            cs2 = opts.get("cs2", (1.0,))
            if len(cs2) != 1:
                parser.error("convergence takes a single --cs2 value")
            report, warnings = run_convergence(
                p_list=opts.get("p", (1, 2, 3, 4)),
                levels=opts.get("levels"), methods=methods, out_path=out,
                cs2=cs2[0], progress=progress, **kw)
            _print_report(report, warnings)
            return 1 if warnings else 0
        if args.command == "locking":
            report, warnings = run_locking(
                cs2_list=opts.get("cs2", (1.0, 10.0, 100.0, 1000.0)),
                levels=opts.get("levels", (0, 1, 2)), methods=methods,
                out_path=out, p=_single(opts.get("p", (2,)), parser),
                progress=progress, **kw)
            _print_report(report, warnings)
            return 1 if warnings else 0
        if args.command == "gradrob":
            report, warnings = run_gradrob(
                cs2_list=opts.get("cs2", (1.0, 10.0, 100.0, 1000.0)),
                levels=opts.get("levels", (1, 2, 3)), methods=methods,
                out_path=out, p=_single(opts.get("p", (3,)), parser),
                progress=progress, **kw)
            _print_report(report, warnings)
            return 1 if warnings else 0
        if args.command == "solve":
            method = opts.get("method")
            if method not in METHODS:
                parser.error("solve requires --method M1|M2|M3|M4")
            cs2 = opts.get("cs2", (1.0,))
            if len(cs2) != 1:
                parser.error("solve takes a single --cs2 value")
            try:
                res = run_solve(method, opts.get("level", 1),
                                _single(opts.get("p", (2,)), parser),
                                cs2=cs2[0],
                                out_path=out,
                                dump_mesh=getattr(args, "dump_mesh", False),
                                dump_system=getattr(args, "dump_system", False),
                                **kw)
            except SingularMatrixError as exc:
                print(f"solver failure: {exc}", file=sys.stderr)
                return 1
            for k in ("method", "p", "level", "cs2", "geom_order", "h",
                      "ndof", "l2_error", "xh_error", "l2_norm"):
                print(f"{k}={res[k]}")
            return 0
        # diagnostics
        method = opts.get("method")
        if method not in ("M1", "M3", "M4"):
            parser.error("diagnostics requires --method M1|M3|M4")
        try:
            res = run_diagnostics(method, opts.get("level", 1),
                                  _single(opts.get("p", (1,)), parser),
                                  out_path=f"{out}/diagnostics.txt" if out else None,
                                  b_scale=opts.get("b_scale", 1.0), **kw)
        except SizeLimitError as exc:
            parser.error(str(exc))
        for k, v in res.items():
            print(f"{k}={v}")
        return 0
    except ValueError as exc:
        parser.error(str(exc))


def _single(vals, parser):
    if isinstance(vals, tuple):
        if len(vals) != 1:
            parser.error("this study takes a single --p value")
        return vals[0]
    return vals


def _print_report(report, warnings):
    for w in warnings:
        print(w, file=sys.stderr)
    cols = NORM_COLUMNS if report.study == "gradrob" else ERROR_COLUMNS
    keep = set(cols.values())
    for r in report.rows:
        if r.metric_name in keep:
            print(f"p={r.p} cs2={r.cs2:g} h={r.h:.5f} "
                  f"{r.method} {r.metric_name}={r.value:.6e}")


if __name__ == "__main__":
    sys.exit(main())
