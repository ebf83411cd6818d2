"""Define a model by its Bernstein measure instead of a named family.

Any kernel whose radial derivative is completely monotone is admissible;
the spectral coefficients are then integrals of the universal functions
against the measure.  Here the flat measure (which reconstructs the
logarithmic kernel) and a truncated measure with no closed form are run
through the same dispersion machinery.
"""

from vstates import cmkernel, dispersion, models


def main():
    print("flat measure: quadrature route vs the logarithmic closed forms")
    custom = models.custom_convolution(cmkernel.euler_flat())
    closed = models.euler_plane()
    print(f"{'n':>3} {'quadrature':>14} {'closed':>14} {'diff':>10}")
    ns = [1, 2, 4, 8]
    rq, rc = (dispersion.spectral_row(m, ns, 0.5) for m in (custom, closed))
    for n, q, c in zip(ns, rq.lam_nb, rc.lam_nb):
        print(f"{n:>3} {q:>14.10f} {c:>14.10f} {abs(q - c):>10.2e}")

    print("\ntruncated measure (density 1 on (0, 2), nothing closed-form):")
    mu = cmkernel.truncated_low(None, 2.0)
    model = models.custom_convolution(mu)
    p = dispersion.dispersion_point(model, [1, 2, 3, 4], 0.5)
    for n, delta, kind in zip(p.n, p.delta, p.classification):
        print(f"  n = {n}: Delta = {delta:.6e}  ({kind})")
    print(f"  velocity constants: V1 = {p.v1:.8f}, V2 = {p.v2:.8f}")
    print(f"  large-n discriminant limit: {(p.v1 - p.v2) ** 2:.8f}")


if __name__ == "__main__":
    main()
