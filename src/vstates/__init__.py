"""Linear-spectral toolkit for doubly connected rotating vortex patches.

Submodules:
    specfun     every special function: Bessel I, K, J, zeros of J, Gauss 2F1
    cmkernel    completely monotone kernel engine (Bernstein measures)
    universal   universal trigonometric-integral functions phi, Psi
    models      geophysical kernel model catalog with closed-form spectra
    dispersion  dispersion relation, eigenvalue collisions, fold selection
    contour     discretized contour functional and branch continuation
"""

__version__ = "0.1.0"
