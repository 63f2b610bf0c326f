"""Span tracing of gdfem from outside the package.

The tracer replaces public functions of the gdfem modules with timing
wrappers, in every namespace where the study code looks them up, and puts
the originals back on `uninstall`.  Nothing inside `src/` is changed.

A span records (id, name, start, end, parent id, cell id) and is kept in
memory until the run writes it out.  Hot functions called tens of thousands
of times per pass (`FeSpace.eval_basis`, `Mesh.geometry`) are aggregated
instead of recorded one by one: their time and call count still reach the
per-layer totals, and their time is still subtracted from the parent span's
self time.
"""

import time
from collections import Counter, defaultdict

# Span name -> per-layer metric that receives its self time.
SELF_TIME_METRIC = {
    "mesh.make_unit_disc_mesh": "mesh.build_s",
    "fespace.method_spaces": "fespace.build_s",
    "fespace.build_space": "fespace.build_s",
    "fespace.eval_basis": "fespace.eval_basis_s",
    "forms.assemble_method": "forms.assemble_self_s",
    "forms.assemble_a_volume": "forms.a_volume_s",
    "forms.assemble_a_dg": "forms.a_dg_s",
    "forms.assemble_b_volume": "forms.b_volume_s",
    "forms.assemble_b_dg": "forms.b_dg_s",
    "forms.assemble_rhs": "forms.rhs_s",
    "forms.assemble_m2_system": "forms.m2_system_s",
    "forms.error_norms": "forms.error_norms_s",
    "linalg.apply_constraints": "linalg.constraints_s",
    "linalg.splu": "linalg.factor_s",
    "linalg.solve": "linalg.solve_self_s",
    "linalg.restrict_free": "linalg.dense_s",
    "linalg.estimate_control_constant": "linalg.dense_s",
    "cli.emit_study_csv": "cli.report_s",
    "cli.write_svg": "cli.report_s",
    "cli.study": "cli.runner_self_s",
    "cli.cell": "cli.runner_self_s",
    "cli.run_diagnostics": "cli.runner_self_s",
}

# Count metrics: they must repeat exactly between two traced passes.
COUNT_METRICS = ("mesh.geometry_calls", "fespace.eval_basis_calls",
                 "fespace.ndof", "forms.matrix_nnz", "forms.assemble_calls",
                 "linalg.factor_calls", "linalg.lu_fill_nnz",
                 "linalg.solve_failed")

_FORMS_ASSEMBLERS = ("assemble_a_volume", "assemble_a_dg",
                     "assemble_b_volume", "assemble_b_dg")


class Tracer:
    def __init__(self):
        self.spans = []
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.cell = None
        self._stack = []      # [span id or None, name, child time]
        self._next_id = 0
        self._patched = []

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, record=True, cell_of=None, on_result=None):
        """Wrap `fn` so each call becomes a span called `name`.

        `cell_of(args)` makes the call a cell boundary and names it;
        `on_result(result, parent_name)` runs after the timer stops, to read
        sizes off the result.
        """
        stack = self._stack

        def wrapper(*args, **kwargs):
            sid = None
            if record:
                sid = self._next_id
                self._next_id += 1
            parent = stack[-1] if stack else None
            outer_cell = self.cell
            if cell_of is not None:
                self.cell = cell_of(args)
            frame = [sid, name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.counts[name + ".failed"] += 1
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[2] += dur
                self.self_time[name] += dur - frame[2]
                self.counts[name] += 1
                if record:
                    self.spans.append((sid, name, t0, t1,
                                       parent[0] if parent else None,
                                       self.cell))
                self.cell = outer_cell
            if on_result is not None:
                on_result(out, parent[1] if parent else None)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def count_only(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap the gdfem layer functions where the study code finds them."""
        from gdfem import cli, fespace, forms, linalg, mesh

        counts = self.counts

        def on_space(space, parent):
            counts["fespace.ndof"] += space.ndof

        def on_system(ms, parent):
            counts["forms.matrix_nnz"] += ms.system.matrix.nnz

        def on_matrix(matrix, parent):
            # Operators assembled on their own (the dense diagnostics) count;
            # parts of an assemble_method operator are counted there.
            if parent is None or not parent.startswith("forms."):
                counts["forms.matrix_nnz"] += matrix.nnz

        def on_lu(lu, parent):
            counts["linalg.lu_fill_nnz"] += lu.L.nnz + lu.U.nnz

        def solve_cell_id(args):
            method, msh, p, prob = args[:4]
            level = _disc_level(msh.num_triangles)
            return (f"{method}/p{p}/L{level}/"
                    f"cs2={prob.coeffs.c_s ** 2:.6g}")

        def diagnostics_cell_id(args):
            method, level, p = args[:3]
            return f"{method}/p{p}/L{level}/diag"

        self._patch(mesh.Mesh, "geometry",
                    self.count_only("mesh.geometry", mesh.Mesh.geometry))
        self._patch(fespace.FeSpace, "eval_basis",
                    self.span("fespace.eval_basis", fespace.FeSpace.eval_basis,
                              record=False))

        wrapped = {
            "make_unit_disc_mesh": self.span(
                "mesh.make_unit_disc_mesh", cli.make_unit_disc_mesh),
            "method_spaces": self.span(
                "fespace.method_spaces", forms.method_spaces),
            "build_space": self.span(
                "fespace.build_space", forms.build_space, on_result=on_space),
            "assemble_method": self.span(
                "forms.assemble_method", forms.assemble_method,
                on_result=on_system),
            "assemble_rhs": self.span(
                "forms.assemble_rhs", forms.assemble_rhs),
            "assemble_m2_system": self.span(
                "forms.assemble_m2_system", forms.assemble_m2_system),
            "error_norms": self.span(
                "forms.error_norms", forms.error_norms),
            "solve": self.span("linalg.solve", linalg.solve),
            "apply_constraints": self.span(
                "linalg.apply_constraints", linalg.apply_constraints),
            "restrict_free": self.span(
                "linalg.restrict_free", linalg.restrict_free),
            "estimate_control_constant": self.span(
                "linalg.estimate_control_constant",
                linalg.estimate_control_constant),
            "emit_study_csv": self.span(
                "cli.emit_study_csv", cli.emit_study_csv),
            "write_svg": self.span("cli.write_svg", cli.write_svg),
            "_solve_cell": self.span(
                "cli.cell", cli._solve_cell, cell_of=solve_cell_id),
            "run_diagnostics": self.span(
                "cli.run_diagnostics", cli.run_diagnostics,
                cell_of=diagnostics_cell_id),
        }
        for name in _FORMS_ASSEMBLERS:
            wrapped[name] = self.span("forms." + name, getattr(forms, name),
                                      on_result=on_matrix)
        for module in (cli, forms, linalg):
            for attr, fn in wrapped.items():
                if hasattr(module, attr):
                    self._patch(module, attr, fn)
        self._patch(linalg, "spla", _SplaView(
            linalg.spla, self.span("linalg.splu", linalg.spla.splu,
                                   on_result=on_lu)))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer self times and counts of everything recorded so far."""
        out = {name: 0.0 for name in set(SELF_TIME_METRIC.values())}
        for span_name, t in self.self_time.items():
            out[SELF_TIME_METRIC[span_name]] += t
        c = self.counts
        out.update({
            "mesh.geometry_calls": c["mesh.geometry"],
            "fespace.eval_basis_calls": c["fespace.eval_basis"],
            "fespace.ndof": c["fespace.ndof"],
            "forms.matrix_nnz": c["forms.matrix_nnz"],
            "forms.assemble_calls": c["forms.assemble_method"],
            "linalg.factor_calls": c["linalg.splu"],
            "linalg.lu_fill_nnz": c["linalg.lu_fill_nnz"],
            "linalg.solve_failed": c["linalg.solve.failed"],
        })
        return out


class _SplaView:
    """`scipy.sparse.linalg` as `gdfem.linalg` sees it, with splu wrapped."""

    def __init__(self, module, splu):
        self._module = module
        self.splu = splu

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def _disc_level(num_triangles):
    level, n = 0, 6
    while n < num_triangles:
        level, n = level + 1, n * 4
    return level
