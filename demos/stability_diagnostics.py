"""Dense stability diagnostics: how strongly the grad-div form controls the
streamline-derivative form outside its kernel.

For each method the discrete control constant c_bh is the smallest ratio
b_h(w, w) / a_h(w, w) over the a_h-orthogonal complement of the kernel of
b_h; c_bh > 1 yields the inf-sup constant (c_bh - 1)/(c_bh + 1) of the
indefinite operator -a_h + b_h.  The H(div)-based methods (M3, M4) keep
c_bh well above 1; the H1-conforming method (M1) at low degree does not,
which is the volume-locking mechanism seen in the studies.

For M3 and M4 the kernel dimension is counted from the mesh (the discrete
de Rham sequence: the interior dofs of continuous P_{p+1}) and c_bh is
the first eigenvalue of the pencil (b_h, a_h) past it.  M1's kernel has
no such count and is found by a relative threshold on the eigenvalues of
b_h.  Every method's pencil is solved on the four Fourier blocks of the
hexagon fan's rotation by 60 degrees: a_h and b_h commute with the
rotation, so the blocks hold its spectrum exactly.  Every dense pencil
is solved with LAPACK's "gv" driver (see README.md, "The four methods").

Run:  python3 demos/stability_diagnostics.py
"""

from gdfem.cli import run_diagnostics

print(f"{'method':>6} {'p':>2} {'level':>5} {'free dofs':>9} "
      f"{'dim ker b_h':>11} {'c_bh':>10} {'c_hat':>8}")
for method in ("M1", "M3", "M4"):
    for p in (1, 2):
        for level in (0, 1):
            res = run_diagnostics(method, level, p)
            chat = "-" if res["c_hat"] is None else f"{res['c_hat']:.4f}"
            print(f"{method:>6} {p:>2} {level:>5} {res['ndof_free']:>9} "
                  f"{res['kernel_dim']:>11} {res['c_bh']:>10.3f} {chat:>8}")
