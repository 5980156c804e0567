"""Desk-scale stochastic calculus for cylindrical martingale truncations.

Submodules:

* ``measures``     grid measures, suprema, difference quotients
* ``operators``    symmetric/PSD matrix calculus and projection selection
* ``martingales``  truncation simulation, brackets, operator densities
* ``integration``  stochastic integrals, covariation, stopping
* ``timechange``   bracket clock changes and substitution identities
* ``gammanorm``    Gaussian-series norms of kernels, exact and Monte Carlo
* ``bdg``          isometry / two-sided moment panels / chain-rule residual
* ``evolution``    mild-solution solver by blockwise fixed-point iteration
* ``harness``      experiment registry, reports, replay

The package exports the ``__all__`` of each library module above harness,
and its own ``__all__`` is their union; ``harness``, ``experiments`` and
``cli`` are imported on their own.
"""

from . import bdg, evolution, gammanorm, integration, martingales, measures, operators, timechange
from .bdg import *  # noqa: F403
from .evolution import *  # noqa: F403
from .gammanorm import *  # noqa: F403
from .integration import *  # noqa: F403
from .martingales import *  # noqa: F403
from .measures import *  # noqa: F403
from .operators import *  # noqa: F403
from .timechange import *  # noqa: F403

# no two of these modules share a name
_MODULES = (measures, operators, martingales, integration, timechange, gammanorm, bdg, evolution)
__all__ = [name for module in _MODULES for name in module.__all__]

__version__ = "0.1.0"
