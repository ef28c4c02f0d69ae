"""Spectral simulation and verification toolkit for the periodic KdV equation.

Subpackages by role:

* ``fields`` — Fourier-side field container, analysis/synthesis, norms,
  serialization.
* ``integrator`` — integrating-factor RK4 and leapfrog time steppers with
  trajectory records and conservation tracking.
* ``normal_form`` — differentiation-by-parts operators (B2/B3/B4),
  resonance classification, reduced-equation residual, estimate ratios.
* ``experiments`` — odd-Gaussian data, return/pullback experiments,
  width sweeps.
* ``shallow_water`` — physical-to-dimensionless parameter algebra.
* ``cli`` — command-line driver emitting CSV/JSON/SVG artifacts.

Each library module's ``__all__`` is its public API; the package exports
exactly the union of those lists.
"""

from . import experiments, fields, integrator, normal_form, shallow_water
from .fields import *
from .integrator import *
from .normal_form import *
from .experiments import *
from .shallow_water import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (fields, integrator, normal_form, experiments, shallow_water)
    for name in module.__all__
]
