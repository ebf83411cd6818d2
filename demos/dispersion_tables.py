"""Dispersion tables for the built-in models.

For each angular mode n the linearization around the annular patch reduces
to a 2x2 block; its discriminant decides whether the pair of rotation
speeds is real (stable) or leaves the axis (unstable).
"""

from vstates import dispersion, models


def table(model, b, n_max=8):
    print(f"\n{model.describe()}  at b = {b}")
    print(f"{'n':>3} {'A':>11} {'B':>11} {'Delta':>12} "
          f"{'Omega+':>10} {'Omega-':>10}  class")
    for p in dispersion.dispersion_points(model, range(1, n_max + 1), b):
        op = f"{p.omega_plus:.6f}" if p.omega_plus is not None else "   --"
        om = f"{p.omega_minus:.6f}" if p.omega_minus is not None else "   --"
        print(f"{p.n:>3} {p.a_nb:>11.6f} {p.b_nb:>11.6f} {p.delta:>12.3e} "
              f"{op:>10} {om:>10}  {p.classification}")


def main():
    table(models.euler_plane(), 0.5)
    print("\nmodes 2 and 3 are degenerate at b = 0.5: the quadratic has a "
          "double root,\nso the first admissible symmetry there is m = 4:")
    print("  min_fold =", dispersion.min_fold(models.euler_plane(), 0.5))

    table(models.qgsw_plane(2.0), 0.5)
    table(models.euler_annulus(0.1, 10.0), 0.5)

    print("\nlarge-n limit: Delta_n approaches (V^1 - V^2)^2")
    for model in (models.euler_plane(), models.qgsw_plane(2.0)):
        d_inf = dispersion.delta_inf(model, 0.5)
        d_120 = dispersion.dispersion_point(model, 120, 0.5).delta
        print(f"  {model.variant:>12}: Delta_120 = {d_120:.8f}, "
              f"limit = {d_inf:.8f}")


if __name__ == "__main__":
    main()
