"""Entropic transport and KL penalty solvers.

The package treats Sinkhorn-style matrix scaling and mirror descent on a
KL penalty objective as one family: ``kernel`` holds the KL divergence
(the entropy map's Bregman divergence and the penalty in one),
``projection`` the closed-form Bregman projections, ``penalty`` the
constraint systems and objective, ``solvers`` the five iterative methods,
``otx`` the optimal transport layer, ``oracle`` the independent
references, and ``cli`` the command line front end.

Each module's ``__all__`` is the one list of its public names; the
package re-exports them all.  ``cli`` is not imported here, so that
``import pinkhorn`` does not load its argparse, json and re.
"""

from . import kernel, projection, penalty, otx, solvers, oracle, checks
from .kernel import *  # noqa: F401,F403
from .projection import *  # noqa: F401,F403
from .penalty import *  # noqa: F401,F403
from .otx import *  # noqa: F401,F403
from .solvers import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .checks import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name for module in (kernel, projection, penalty, otx, solvers, oracle, checks) for name in module.__all__
]
