"""Photoassociation of Raman-dressed spin-1 condensates.

Band structure and superposition coefficients of Raman-coupled atoms, the
two-pathway singlet interference that suppresses photoassociation, two-body
loss kinetics over Thomas-Fermi profiles, spectrum synthesis and fitting, and
Monte Carlo uncertainty bands. The `ramanpa` CLI exposes the same pipeline.
Each module's `__all__` is its public API; the package re-exports those names.
"""

from . import constants, dressed_states, interference, pa_kinetics, spectra, uncertainty
from .constants import *
from .dressed_states import *
from .interference import *
from .pa_kinetics import *
from .spectra import *
from .uncertainty import *

__version__ = "0.1.0"

__all__ = [name for module in (constants, dressed_states, interference, pa_kinetics,
                               spectra, uncertainty) for name in module.__all__]
__all__ += ["__version__"]
