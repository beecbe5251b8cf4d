"""qcorr: quantum correlation dynamics of a one-parameter two-qubit family
under single-qubit Pauli noise.

The package pairs closed-form results (concurrence, geometric discord,
quantum discord, death times) with independent numerical oracles (spin-flip
eigenvalues, Bloch decomposition, a measurement-sphere optimizer, Kraus and
RK4 evolution) so that every formula is checked by machinery that does not
share its derivation.
"""
from . import channels, dynamics, linalg, measures, states
from .states import *
from .linalg import *
from .channels import *
from .measures import *
from .dynamics import *

__version__ = "0.1.0"

# every name a module lists in its __all__ is public from the package too
__all__ = ["__version__"]
__all__ += states.__all__
__all__ += linalg.__all__
__all__ += channels.__all__
__all__ += measures.__all__
__all__ += dynamics.__all__
