"""Linear-spectral toolkit for doubly connected rotating vortex patches.

Submodules:
    specfun     the Bessel products I_n(y) K_n(x) for columns of orders
    cmkernel    completely monotone kernel engine (Bernstein measures)
    universal   universal trigonometric-integral functions phi, Psi
    models      geophysical kernel model catalog with closed-form spectra
    dispersion  dispersion relation, eigenvalue collisions, fold selection
    contour     discretized contour functional and branch continuation
"""

__version__ = "0.1.0"
