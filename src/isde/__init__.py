"""Interpolating-SDE schedules, analytic scores, reverse-time samplers, and
reproducible numerical studies.

The forward model is the linear SDE dx = gamma(t)(y - x) dt + g(t) dw with
Gaussian perturbation kernel N((1-k)x0 + k y, sigma_t^2 I); five schedule
families are built by :func:`make_sde`. Reverse-time sampling runs the family
dx = [gamma(y - x) - ((1+kappa^2)/2) g^2 s] dt + kappa g dw_bar with either an
exponential integrator (:func:`isde_solve`, order 1 or 2) or classical
baselines, against analytic score models for delta, Gaussian, and mixture
priors. The harness turns configs into CSV studies; the ``isde`` console
script exposes them as subcommands.
"""

from . import errors, harness, score, sde_core, solvers
from .errors import *  # noqa: F401,F403 -- each submodule's __all__ is its public API
from .quadrature import QuadResult, integrate
from .sde_core import *  # noqa: F401,F403
from .score import *  # noqa: F401,F403
from .solvers import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*errors.__all__, "QuadResult", "integrate", *sde_core.__all__, *score.__all__,
           *solvers.__all__, *harness.__all__, "__version__"]
