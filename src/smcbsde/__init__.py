"""Discrete-time stochastic control of BSDEs driven by semi-Markov chain noise.

The package is organised bottom-up:

- ``chain``:    finite-state semi-Markov models, sojourn machinery, simulation
- ``lattice``:  sojourn-augmented state lattice, slice plan, noise geometry
- ``linalg``:   the two scalar hypothesis checks, on closed-form bracket norms
- ``bsde``:     backward solver and the comparison check
- ``duality``:  forward weight recursions, dual valuation, convention selection
- ``control``:  finite control grids, value recursion, policy oracles
- ``files``:    input schemas and artifact writers
- ``cli``:      command line front end
"""

from . import bsde, chain, control, duality, lattice, linalg
from .chain import *  # noqa: F401,F403
from .lattice import *  # noqa: F401,F403
from .linalg import *  # noqa: F401,F403
from .bsde import *  # noqa: F401,F403
from .duality import *  # noqa: F401,F403
from .control import *  # noqa: F401,F403

__version__ = "0.1.0"

# every public name of the modules above
__all__ = sorted(
    name
    for module in (chain, lattice, linalg, bsde, duality, control)
    for name in module.__all__
)
