"""Benchmark of the gdfem study paths.

Run from the root of a checkout:

    python3 perfbench/run.py --workload refine --seed 1 --seconds 1 --trace 0
    python3 perfbench/run.py --workload sweep --seed 1 --seconds 1 --trace 1
    python3 perfbench/run.py --smoke

Workloads (see README.md for why each exists):

  refine     run_convergence(p_list=(2,), levels=(1, 2, 3, 4)), all methods
  sweep      run_locking() and run_gradrob(levels=(1, 2))
  stability  run_diagnostics on the 12 cells of demos/stability_diagnostics.py
             and four cells near the 2,000-dof dense cap

The seed permutes the order of the cells of a workload (the order of the
runner's loops, and of the study calls) and changes nothing else.

With --trace 0 the run repeats whole passes of the workload until --seconds
have passed (at least one) and reports the end-to-end metrics.  With
--trace 1 it makes one untraced pass and two traced passes and reports the
per-layer metrics; the count metrics of the two traced passes must match.
Every pass is checked cell by cell against the committed study CSVs in
demos/output and the stability values in perfbench/expected.json.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Per-run records (environment, host probes, per-cell outputs, spans) go to
.perfbench_out/ in the checkout.
"""

import argparse
import csv
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from functools import partial
from pathlib import Path

from tracer import COUNT_METRICS, Tracer

# Cap BLAS threads at the usable cores before numpy loads.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = NPROC
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE_DIR = ROOT / "demos" / "output"
OUT = ROOT / ".perfbench_out"
SPEC = json.loads((BENCH / "expected.json").read_text())

WORKLOADS = ("refine", "sweep", "stability")
METHODS = ("M1", "M2", "M3", "M4")
CS2 = (1.0, 10.0, 100.0, 1000.0)
# study -> (runner in gdfem.cli, CSV it writes, first level of the
# committed reference run)
STUDIES = {
    "convergence": ("run_convergence", "hconv.csv", 1),
    "locking": ("run_locking", "locking.csv", 0),
    "gradrob": ("run_gradrob", "rob.csv", 1),
}
SETUP_SAMPLES = 3


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_gdfem():
    """Import gdfem from this checkout's src/, never from elsewhere."""
    if not (SRC / "gdfem" / "__init__.py").is_file():
        fail(f"no gdfem sources under {SRC}")
    if not REFERENCE_DIR.is_dir():
        fail(f"no committed study outputs under {REFERENCE_DIR}")
    sys.path.insert(0, str(SRC))
    import gdfem.cli
    if Path(gdfem.cli.__file__).resolve().parent != SRC / "gdfem":
        fail(f"gdfem imported from {gdfem.cli.__file__}, not {SRC}")
    return gdfem.cli


# -- workload plans ------------------------------------------------------------

def plan(workload, seed, smoke=False):
    """The studies of one pass: [(study, runner kwargs)], order from `seed`."""
    rng = random.Random(seed)

    def perm(seq):
        seq = list(seq)
        rng.shuffle(seq)
        return tuple(seq)

    if workload == "refine":
        return [("convergence", {"p_list": (2,), "methods": perm(METHODS),
                                 "levels": perm((1,) if smoke
                                                else (1, 2, 3, 4))})]
    if workload == "sweep":
        return list(perm([
            ("locking", {"cs2_list": perm(CS2), "methods": perm(METHODS),
                         "levels": perm((0, 1) if smoke else (0, 1, 2))}),
            ("gradrob", {"cs2_list": perm(CS2), "methods": perm(METHODS),
                         "levels": perm((1,) if smoke else (1, 2))}),
        ]))
    cells = [tuple(c) for c in SPEC["stability_cells"]
             if not smoke or c[1] <= 1]
    return [("diagnostics", {"cells": perm(cells)})]


def expected_cells(workload_plan):
    """Reference output of every cell that a pass of the plan runs."""
    expected = {}
    for study, kw in workload_plan:
        if study == "diagnostics":
            for method, level, p in kw["cells"]:
                key = f"{method}/p{p}/L{level}"
                expected[key] = SPEC["stability"][key]
            continue
        ref = read_csv(study, REFERENCE_DIR / STUDIES[study][1])
        second = kw["p_list"] if study == "convergence" else kw["cs2_list"]
        for (level, s, method), value in ref.items():
            if level in kw["levels"] and s in second and method in kw["methods"]:
                expected[(study, level, s, method)] = value
    return expected


def read_csv(study, path):
    """{(level, p or cs2, method): value} of a study CSV.

    Rows are matched to levels by their h, as the committed file of the
    study defines it (h decreases with the level, from the study's first
    level); an h the committed file does not have maps to level None.
    """
    def rows(p):
        with open(p, newline="") as fh:
            return list(csv.reader(fh))[1:]

    first = STUDIES[study][2]
    hs = sorted({float(r[0]) for r in rows(REFERENCE_DIR / STUDIES[study][1])},
                reverse=True)
    levels_by_h = {_hkey(h): first + i for i, h in enumerate(hs)}
    cells = {}
    for r in rows(path):
        level = levels_by_h.get(_hkey(float(r[0])))
        second = int(r[1]) if study == "convergence" else float(r[1])
        for method, cell in zip(METHODS, r[2:]):
            if cell:
                cells[(level, second, method)] = float(cell)
    return cells


def _hkey(h):
    return float(f"{h:.12g}")


# -- one pass ------------------------------------------------------------------

def run_pass(cli, workload_plan, out_dir, tracer=None):
    """Run the studies of one pass.

    Returns the wall time of the pass and its per-cell outputs.  Outputs
    are read back from the CSVs the study runners write, after the clock
    stops.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    for path in out_dir.glob("*.csv"):
        path.unlink()
    diagnostics = {}

    def run_cells(cells):
        for method, level, p in cells:
            res = cli.run_diagnostics(method, level, p)
            diagnostics[f"{method}/p{p}/L{level}"] = {
                k: res[k] for k in ("c_bh", "kernel_dim", "ndof_free")}

    studies = []
    for study, kw in workload_plan:
        if study == "diagnostics":
            call = partial(run_cells, kw["cells"])
        else:
            call = partial(getattr(cli, STUDIES[study][0]),
                           out_path=str(out_dir), **kw)
        if tracer is not None:
            call = tracer.span("cli.study", call)
        studies.append(call)

    t0 = time.perf_counter()
    for call in studies:
        call()
    wall = time.perf_counter() - t0

    outputs = dict(diagnostics)
    for study, _ in workload_plan:
        if study in STUDIES and (out_dir / STUDIES[study][1]).is_file():
            csv_path = out_dir / STUDIES[study][1]
            for key, value in read_csv(study, csv_path).items():
                outputs[(study,) + key] = value
    return wall, outputs


def check_outputs(expected, outputs, rel_tol):
    """Messages for the cells whose output is missing or off the reference."""
    bad = []
    for key, ref in expected.items():
        got = outputs.get(key)
        if isinstance(ref, dict):
            ok = (got is not None
                  and got["kernel_dim"] == ref["kernel_dim"]
                  and got["ndof_free"] == ref["ndof_free"]
                  and abs(got["c_bh"] - ref["c_bh"])
                  <= rel_tol * abs(ref["c_bh"]))
        else:
            ok = got is not None and abs(got - ref) <= rel_tol * abs(ref)
        if not ok:
            bad.append(f"{key}: got {got}, reference {ref}")
    bad += [f"{key}: not in the reference" for key in outputs
            if key not in expected]
    return bad


# -- host and environment --------------------------------------------------------

def host_probe():
    """Seconds for a fixed numpy + interpreter kernel (about 0.1 s).

    Stored with each run to show slow host phases; it scales no metric.
    """
    import numpy as np
    a = np.linspace(0.0, 1.0, 300 * 300).reshape(300, 300)
    t0 = time.perf_counter()
    for _ in range(20):
        a = a @ a
        a /= np.abs(a).max()
    s = 0
    for i in range(300_000):
        s += i % 7
    return time.perf_counter() - t0


def environment():
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass

    def blas(mod):
        deps = mod.show_config(mode="dicts").get("Build Dependencies", {})
        return deps.get("blas", {}).get("version")

    return {"nproc": NPROC, "cpu": cpu,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_openblas": blas(numpy), "scipy_openblas": blas(scipy),
            "blas_threads": BLAS_THREADS}


def measure_setup(workload, seed):
    """Seconds from interpreter start to the first cell, in fresh processes.

    Each sample starts `run.py --setup-only`, which imports numpy, scipy
    and gdfem, builds the plan and loads the references, then exits.
    """
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


# -- a run -----------------------------------------------------------------------

def run_workload(cli, workload, seed, seconds, trace, smoke=False):
    """Passes of one workload; returns (result record, last pass outputs)."""
    wp = plan(workload, seed, smoke)
    expected = expected_cells(wp)
    tag = f"{workload}-seed{seed}-trace{trace}" + ("-smoke" if smoke else "")
    out_dir = OUT / tag
    rec = {"workload": workload, "seed": seed, "trace": trace,
           "plan": repr(wp), "env": environment(),
           "probe_before_s": [host_probe() for _ in range(3)],
           "passes": [], "attempted": 0, "failed": 0, "errors": []}
    outputs = {}

    def one_pass(tracer=None):
        nonlocal outputs
        rec["attempted"] += len(expected)
        try:
            wall, outputs = run_pass(cli, wp, out_dir, tracer)
        except Exception:
            rec["failed"] += len(expected)
            rec["errors"].append(traceback.format_exc())
            print(rec["errors"][-1], file=sys.stderr)
            return None
        bad = check_outputs(expected, outputs, SPEC["rel_tol"])
        rec["failed"] += min(len(bad), len(expected))
        rec["errors"] += bad
        for msg in bad:
            print(f"output check failed: {msg}", file=sys.stderr)
        rec["passes"].append({"wall_s": wall, "traced": tracer is not None,
                              "failed_cells": len(bad)})
        return wall

    setup = measure_setup(workload, seed)
    if trace:
        walls = [one_pass()]
        traced, tracers = [], []
        for _ in range(2):
            tracer = Tracer()
            tracer.install()
            try:
                traced.append(one_pass(tracer))
            finally:
                tracer.uninstall()
            tracers.append(tracer)
        layers = [t.layer_metrics() for t in tracers]
        mismatch = [k for k in COUNT_METRICS if layers[0][k] != layers[1][k]]
        for k in mismatch:
            rec["errors"].append(f"count {k} differs between traced passes: "
                                 f"{layers[0][k]} vs {layers[1][k]}")
            print(rec["errors"][-1], file=sys.stderr)
        rec["count_mismatch"] = mismatch
    else:
        walls = []
        t_start = time.perf_counter()
        while not walls or time.perf_counter() - t_start < seconds:
            walls.append(one_pass())
            if walls[-1] is None:
                break
    rec["probe_after_s"] = [host_probe() for _ in range(3)]
    rec["setup_samples_s"] = setup

    # With --trace 1, wall_s is the untraced pass and peak_rss_mb includes
    # the traced passes.
    metrics = {"setup_s": statistics.median(setup),
               "peak_rss_mb": resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               "correct_frac": 1.0 - rec["failed"] / rec["attempted"]}
    if None not in walls:
        metrics["wall_s"] = statistics.median(walls)
    if trace:
        metrics.update({k: layers[0][k] if k in COUNT_METRICS
                        else statistics.fmean(m[k] for m in layers)
                        for k in layers[0]})
        metrics["host.probe_s"] = statistics.median(
            rec["probe_before_s"] + rec["probe_after_s"])
        if None not in walls + traced:
            metrics["trace.overhead_s"] = statistics.fmean(traced) - walls[0]
    rec["metrics"] = metrics
    rec["correct"] = rec["failed"] == 0 and not rec.get("count_mismatch")
    rec["outputs"] = {str(k): v for k, v in outputs.items()}
    out_dir.mkdir(parents=True, exist_ok=True)
    if trace:
        for k, tracer in enumerate(tracers, 1):
            with open(out_dir / f"spans_pass{k}.jsonl", "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    (out_dir / "result.json").write_text(json.dumps(rec, indent=1) + "\n")
    return rec, outputs


def report(rec, units, names):
    """Print every metric measured with its unit, then the result line.

    The result line carries the metrics in `names`: the end-to-end ones
    without tracing, the per-layer ones with it.
    """
    for name, unit in units.items():
        if name in rec["metrics"]:
            print(f"{name:28s} {rec['metrics'][name]:>16.6f} {unit}")
    print("env " + json.dumps(rec["env"]))
    metrics = {name: {"value": rec["metrics"][name], "unit": units[name]}
               for name in names if name in rec["metrics"]}
    correct = rec["correct"] and len(metrics) == len(names)
    print(json.dumps({"correct": correct, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))


def smoke(cli):
    """All workloads at level <= 1: references, seeds, traced counts."""
    ok = True
    for workload in WORKLOADS:
        rec1, out1 = run_workload(cli, workload, 1, 0, 1, smoke=True)
        rec2, out2 = run_workload(cli, workload, 2, 0, 0, smoke=True)
        same = out1 == out2 and len(out1) > 0
        print(f"smoke {workload}: {rec1['attempted'] + rec2['attempted']} "
              f"cells, {rec1['failed'] + rec2['failed']} failed, "
              f"seeds agree: {same}, traced counts agree: "
              f"{not rec1['count_mismatch']}")
        ok = ok and rec1["correct"] and rec2["correct"] and same
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at level <= 1 and check it")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    cli = import_gdfem()
    if args.smoke:
        return smoke(cli)
    if args.setup_only:
        expected_cells(plan(args.workload, args.seed))
        return 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    names = [m["name"] for m in bench["per_layer" if args.trace
                                      else "end_to_end"]]
    rec, _ = run_workload(cli, args.workload, args.seed, args.seconds,
                          args.trace)
    report(rec, units, names)
    return 0


if __name__ == "__main__":
    sys.exit(main())
