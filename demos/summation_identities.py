"""Bessel-zero summation identities used by the bounded-domain models.

The disc models expand the smooth kernel part in eigenfunctions, which
produces series over zeros of Bessel functions.  Two identities collapse
those series: a closed form for the shifted (QGSW) kernel, and the dual
summation formula (hypergeometric term plus a modified-Bessel integral)
for power-law kernels.  This script compares truncated series against the
closed expressions.
"""

from vstates import models


def main():
    print("shifted-kernel identity on the disc, truncation K = 500")
    print(f"{'X':>5} {'Y':>5} {'eps':>5} {'series':>15} {'closed':>15} "
          f"{'error':>10}")
    for x, y, e in [(0.9, 0.4, 1.0), (0.7, 0.7, 2.0), (0.5, 0.2, 0.5),
                    (0.95, 0.9, 3.0), (0.8, 0.6, 1.0)]:
        s, c = models.qgsw_disc_identity(x, y, e)
        print(f"{x:>5} {y:>5} {e:>5} {s:>15.10f} {c:>15.10f} "
              f"{abs(s - c):>10.2e}")

    print("\ndual Bessel summation (series K = 2000 vs closed + integral)")
    print(f"{'(b,g,n)':>9} {'q':>5} {'a':>5} {'b':>5} {'series':>14} "
          f"{'closed':>14} {'error':>10}")
    for bi, gi, n, q, a, b in [(1, 1, 1, 1.5, 0.6, 0.6),
                               (2, 2, 2, 1.5, 0.8, 0.8),
                               (1, 1, 1, 1.25, 0.4, 0.9)]:
        s = models.sneddon_series(bi, gi, n, q, a, b)
        c = models.sneddon_integral(bi, gi, n, q, a, b)
        print(f"{f'({bi},{gi},{n})':>9} {q:>5} {a:>5} {b:>5} "
              f"{s:>14.9f} {c:>14.9f} {abs(s - c):>10.2e}")


if __name__ == "__main__":
    main()
