"""Link-level simulator for time-reversal precoded on-package wireless links."""

from . import chanmodel, detector, experiments, linksim, sigchain
from .chanmodel import *  # noqa: F403
from .detector import *  # noqa: F403
from .experiments import *  # noqa: F403
from .linksim import *  # noqa: F403
from .sigchain import *  # noqa: F403

__version__ = "0.1.0"

# The package exports what its modules export.
__all__ = sorted(
    {name for module in (chanmodel, detector, experiments, linksim, sigchain) for name in module.__all__}
)
