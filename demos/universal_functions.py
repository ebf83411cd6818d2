"""Sample the universal trigonometric integrals.

phi_n and phi_{n,b} factor the spectral data of every completely monotone
convolution kernel; Psi_b controls the sign of the large-n discriminant
limit.  This script tabulates them, checks the two-sided algebraic bounds
on phi_n, and explores the small-b behaviour of phi_{1,b}.
"""

import numpy as np

from vstates import universal


def main():
    print("phi_n(x) against its algebraic envelope")
    print(f"{'n':>3} {'x':>7} {'lower':>12} {'phi_n':>12} {'upper':>12}")
    for n in (1, 2, 5, 10):
        for x in (0.5, 2.0, 10.0, 50.0):
            val = universal.phi_n([n], x)[0]
            base = x / (n * n + x * x)
            lo = 8 * n * n / (4 * n * n + 1.0) * base
            hi = 8 * n * n / (4 * n * n - 1.0) * base
            print(f"{n:>3} {x:>7.1f} {lo:>12.6f} {val:>12.6f} {hi:>12.6f}")

    print("\nPsi_b(x) stays positive for every b (a few samples):")
    for b in (0.3, 0.5, 0.7, 0.9):
        xs = np.linspace(0.2, 20.0, 25)
        vals = [universal.psi_b(b, float(x)) for x in xs]
        print(f"  b = {b}: min over (0, 20] sample = {min(vals):.4e}")

    print("\nsmall-b behaviour: (1/b) phi_1b(x) approaches pi x e^{-x}")
    x = 2.0
    want = np.pi * x * np.exp(-x)
    for b in (0.2, 0.05, 0.01, 0.002):
        got = universal.phi_nb([1], b, x)[0] / b
        print(f"  b = {b:<6} (1/b) phi_1b({x}) = {got:.6f}   limit {want:.6f}")

    print("\nthe scaled product b * phi_1b(x) over b (fixed x):")
    for x in (1.0, 5.0):
        row = ", ".join(f"{b:.1f}: {b * universal.phi_nb([1], b, x)[0]:.5f}"
                        for b in (0.1, 0.3, 0.5, 0.7, 0.9))
        print(f"  x = {x}: {row}")


if __name__ == "__main__":
    main()
