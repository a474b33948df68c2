"""Low-energy partial-wave scattering off a small spherical obstacle.

The obstacle is described by a generalized surface condition at radius
``lam`` whose parameter, doubly rescaled into a coupling ``chi``, gives a
two-parameter shape-independent description of phase shifts, S-matrix,
bound states and resonances in any angular momentum channel.
"""

from . import boundary, cli, poles, scattering, specfun
from .boundary import *  # noqa: F401,F403
from .cli import *  # noqa: F401,F403
from .poles import *  # noqa: F401,F403
from .scattering import *  # noqa: F401,F403
from .specfun import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (boundary, cli, poles, scattering, specfun)
    for name in module.__all__
] + ["__version__"]
