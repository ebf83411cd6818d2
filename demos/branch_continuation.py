"""Follow a local branch of rotating patches away from the annulus.

At a simple eigenvalue Omega+/- of the m-fold block, a one-parameter
family of m-fold symmetric doubly connected patches bifurcates from the
annulus.  The discretized contour functional is solved by continuation
in the kernel-mode amplitude s: at each s a fixed-point iteration,
preconditioned by the annulus linearization (the dispersion blocks) and
accelerated by Anderson mixing, until the residual is below 1e-11.
"""

import numpy as np

from vstates import contour, dispersion, models


def main():
    model = models.euler_plane()
    b, m = 0.5, 5
    pt = dispersion.dispersion_point(model, [m], b)
    roots = {"+": pt.omega_plus[0], "-": pt.omega_minus[0]}
    print(f"Euler plane, b = {b}, fold m = {m}: "
          f"Omega+ = {roots['+']:.8f}, Omega- = {roots['-']:.8f}")

    for branch, omega0 in roots.items():
        pts = contour.branch_continue(model, b, m, branch=branch,
                                      s_max=5e-3, steps=5, n_modes=8)
        print(f"\nbranch {branch}:")
        print(f"{'s':>9} {'Omega':>12} {'Omega-Omega0':>13} "
              f"{'|a1_1|':>10} {'|a2_1|':>10} {'residual':>10}")
        for st in pts[1:]:  # pts[0] is the annulus itself
            res = contour.eval_f(model, st).norm()
            print(f"{st.s:>9.2e} {st.omega:>12.8f} "
                  f"{st.omega - omega0:>13.3e} {abs(st.a1[0]):>10.2e} "
                  f"{abs(st.a2[0]):>10.2e} {res:>10.2e}")

        st = pts[-1]
        inner, outer = contour.boundary_export(st, samples=720)
        dev_in = np.max(np.abs(np.abs(inner) - b))
        dev_out = np.max(np.abs(np.abs(outer) - 1.0))
        print(f"  boundary deviation from circles at s = {st.s:g}: "
              f"inner {dev_in:.2e}, outer {dev_out:.2e}")


if __name__ == "__main__":
    main()
