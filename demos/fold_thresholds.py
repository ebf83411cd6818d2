"""Symmetry thresholds across the annulus parameter b.

The smallest fold m with a simple pair of rotation speeds depends on the
domain.  For the annular and exterior domains a closed inequality gives
the threshold independently of the discriminant scan, so both routes are
printed side by side.
"""

import numpy as np

from vstates import dispersion, models


def main():
    folds = np.arange(1, 100)
    annulus = models.euler_annulus(0.1, 10.0)
    print("Euler flow on the annulus 0.1 < |x| < 10")
    print(f"{'b':>5} {'scan':>6} {'closed':>8} {'V1':>9} {'V2':>9}")
    for b in np.linspace(0.2, 0.9, 8):
        b = round(float(b), 2)
        scan, v1, v2 = dispersion.min_fold(annulus, b)
        closed = folds[dispersion.annulus_fold_inequality(annulus, b,
                                                          folds)][0]
        print(f"{b:>5.2f} {scan:>6} {closed:>8} {v1:>9.4f} {v2:>9.4f}")

    exterior = models.euler_exterior(0.1)
    print("\nEuler flow outside the disc of radius 0.1")
    print(f"{'b':>5} {'scan':>6} {'closed':>8}")
    for b in (0.3, 0.5, 0.7, 0.9):
        scan = dispersion.min_fold(exterior, b)[0]
        closed = folds[dispersion.annulus_fold_inequality(exterior, b,
                                                          folds)][0]
        print(f"{b:>5.2f} {scan:>6} {closed:>8}")

    print("\nEuler plane for comparison (no smooth kernel part):")
    for b in (0.3, 0.5, 0.7):
        print(f"  b = {b}: min_fold = "
              f"{dispersion.min_fold(models.euler_plane(), b)[0]}")


if __name__ == "__main__":
    main()
