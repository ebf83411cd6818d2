"""Dispersion tables for the built-in models.

For each angular mode n the linearization around the annular patch reduces
to a 2x2 block; its discriminant decides whether the pair of rotation
speeds is real (stable) or leaves the axis (unstable).
"""

import numpy as np

from vstates import dispersion, models


def table(model, b, n_max=8):
    print(f"\n{model.describe()}  at b = {b}")
    print(f"{'n':>3} {'A':>11} {'B':>11} {'Delta':>12} "
          f"{'Omega+':>10} {'Omega-':>10}  class")
    p = dispersion.dispersion_point(model, np.arange(1, n_max + 1), b)
    for n, a, bb, delta, wp, wm, kind in zip(
            p.n, p.a_nb, p.b_nb, p.delta, p.omega_plus, p.omega_minus,
            p.classification):
        # the roots are NaN where Delta < 0
        op, om = ("   --" if np.isnan(w) else f"{w:.6f}" for w in (wp, wm))
        print(f"{n:>3} {a:>11.6f} {bb:>11.6f} {delta:>12.3e} "
              f"{op:>10} {om:>10}  {kind}")


def main():
    table(models.euler_plane(), 0.5)
    print("\nmodes 2 and 3 are degenerate at b = 0.5: the quadratic has a "
          "double root,\nso the first admissible symmetry there is m = 4:")
    print("  min_fold =", dispersion.min_fold(models.euler_plane(), 0.5)[0])

    table(models.qgsw_plane(2.0), 0.5)
    table(models.euler_annulus(0.1, 10.0), 0.5)

    print("\nlarge-n limit: Delta_n approaches (V^1 - V^2)^2")
    for model in (models.euler_plane(), models.qgsw_plane(2.0)):
        p = dispersion.dispersion_point(model, [120], 0.5)
        print(f"  {model.variant:>12}: Delta_120 = {p.delta[0]:.8f}, "
              f"limit = {(p.v1 - p.v2) ** 2:.8f}")


if __name__ == "__main__":
    main()
