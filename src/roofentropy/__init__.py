"""Entropy of a reduction channel with respect to a state.

The central quantity is the infimum, over pure-state decompositions of a
density operator, of the average entropy of the pushed-forward members;
subtracting it from the entropy of the pushed-forward state gives a
concave, non-negative entropy-like functional of the pair (state,
channel).  The package provides the optimizer, closed-form references for
two solvable families, accessible-information brackets, and a JSON
command line.

The package exports each module's ``__all__``; helpers outside those lists
are imported from their module, e.g. ``roofentropy.states.canonical_eigh``.
"""

from . import accinfo, channels, ensembles, jsonio, oracles, roof, states, verify
from .accinfo import *  # noqa: F401,F403
from .channels import *  # noqa: F401,F403
from .ensembles import *  # noqa: F401,F403
from .jsonio import *  # noqa: F401,F403
from .oracles import *  # noqa: F401,F403
from .roof import *  # noqa: F401,F403
from .states import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (states, ensembles, channels, roof, oracles, accinfo, jsonio, verify)
    for name in module.__all__
]
