"""qsolsim: quantum noise of damped optical solitons via cumulant closure.

The package propagates the first- and second-order cumulants of the
discretized pulse field (a Gaussian closure of the full hierarchy) and
evaluates the standard quantum-noise observables: local uncertainty
ellipses, squeezed-thermal parameters, balanced-homodyne squeezing spectra
and spectral photon-number correlations.  A truncated-Fock-space master
equation oracle certifies the closure and the observable formulas at small
mode counts.

Importing the package before numpy sets one BLAS thread as the default
(``OPENBLAS_NUM_THREADS``, ``MKL_NUM_THREADS``, ``BLIS_NUM_THREADS``; a
non-empty value already set wins, an empty one counts as unset).  The RK
step already runs its vector work as two fixed halves on up to two CPUs,
and a single-threaded BLAS keeps every result independent of the CPU count.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    if not os.environ.get(_var):  # BLAS reads an empty value as unset
        os.environ[_var] = "1"
del _var

__version__ = "0.1.0"

from .dynamics import (
    RHSCoefficients,
    photon_balance_residual,
    propagate,
    rhs,
)
from .integrator import StepControl, integrate, integrate_fixed
from .observables import (
    CorrelationResult,
    LOPulse,
    SpectrumResult,
    frequency_grid,
    intensity,
    photon_correlation,
    squeezing_spectrum,
)
from .params import (
    PhysicalInputs,
    ScaledInputs,
    ScaledParams,
    derive_scales,
    gaussian_validity_ratio,
    rhs_coefficients,
    thermal_occupation,
)
from .state import (
    CumulantDerivative,
    CumulantState,
    GridSpec,
    fundamental_soliton,
    reorder_s,
    thermal_state,
    validate,
)
from .tableaus import DORMAND_PRINCE_54, DORMAND_PRINCE_853, Tableau

__all__ = [
    "__version__",
    "CorrelationResult",
    "CumulantDerivative",
    "CumulantState",
    "DORMAND_PRINCE_54",
    "DORMAND_PRINCE_853",
    "GridSpec",
    "LOPulse",
    "PhysicalInputs",
    "RHSCoefficients",
    "ScaledInputs",
    "ScaledParams",
    "SpectrumResult",
    "StepControl",
    "Tableau",
    "derive_scales",
    "frequency_grid",
    "fundamental_soliton",
    "gaussian_validity_ratio",
    "integrate",
    "integrate_fixed",
    "intensity",
    "photon_balance_residual",
    "photon_correlation",
    "propagate",
    "reorder_s",
    "rhs",
    "rhs_coefficients",
    "squeezing_spectrum",
    "thermal_occupation",
    "thermal_state",
    "validate",
]
