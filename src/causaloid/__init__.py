"""Operational compression of probabilistic theories.

The package turns scenario descriptions (chains of systems, instrument
families at locations, probed regions) into compressed causaloids:
per-region fiducial sets with expansion matrices, grouped entries for
region unions, adjacency classification, and heralded conditional
probabilities for unperformed experiments. A deterministic CLI wraps the
pipeline.
"""
from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .backends import *
from .causaloid import *
from .compositional import *
from .diagram import *
from .errors import *
from .heralding import *
from .operational import *
from .report import *
from .scenario import *
from .tables import *
from .tomographic import *

# each module's __all__ is its export list; the submodules bound by the
# imports above are not exported
__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
