"""Reproduce the three headline studies and write their CSV/SVG reports.

Writes into demos/output/ (or the directory given as the first argument):

  hconv.csv, hconv_p*.svg      h-convergence of all methods, p = 1..4
  locking.csv, locking_M*.svg  sound-speed sweep on a divergence-free
                               solution at p = 2
  rob.csv, rob_M*.svg          pure-gradient forcing at p = 3

Expect about half a minute on two cores; progress is printed per solve.

Run:  python3 demos/run_studies.py [outdir]
"""

import pathlib
import sys

from gdfem.cli import fit_slope, run_convergence, run_gradrob, run_locking

out = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "demos/output")
out.mkdir(parents=True, exist_ok=True)


def progress(msg):
    print(" ", msg)


print("== h-convergence study ==")
conv, warn = run_convergence(out_path=str(out), progress=progress)
assert not warn, warn
for p in (1, 2, 3, 4):
    for method in ("M1", "M2", "M3", "M4"):
        rows = [r for r in conv.rows if r.p == p and r.method == method]
        if len(rows) >= 3:
            slope = fit_slope([r.h for r in rows], [r.value for r in rows])
            print(f"  p={p} {method}: fitted L2 rate {slope:.2f}")

print("== volume-locking study (p = 2) ==")
lock, warn = run_locking(out_path=str(out), progress=progress)
assert not warn, warn
for method in ("M1", "M3", "M4"):
    rows = {(r.cs2, r.h): r.value for r in lock.rows
            if r.method == method}
    hs = sorted({h for _, h in rows}, reverse=True)
    ratio = rows[(1000.0, hs[-1])] / rows[(1.0, hs[-1])]
    print(f"  {method}: error(cs2=1000)/error(cs2=1) at finest h = {ratio:.2f}")

print("== gradient-robustness study (p = 3) ==")
rob, warn = run_gradrob(out_path=str(out), progress=progress)
assert not warn, warn
for method in ("M1", "M2", "M3", "M4"):
    rows = [r for r in rob.rows
            if r.method == method and r.cs2 == 1000.0]
    vals = [r.value for r in sorted(rows, key=lambda r: -r.h)]
    spread = (max(vals) - min(vals)) / max(vals)
    print(f"  {method}: |u_h| across levels at cs2=1000 varies by "
          f"{100 * spread:.0f}%")

print(f"reports written to {out}/")
