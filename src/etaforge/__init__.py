"""etaforge: regularized integrals of log-polyhomogeneous functions,
parametric spectral traces, and higher eta-invariants.

The library computes finite-part integrals on R^p and the half-line by
fitting cumulative integrals against a declared power-log ladder, builds the
standard odd Clifford representations, wedges lazy matrix-valued forms, sums
explicit operator spectra with Euler-Maclaurin tails, and combines the
pieces into eta-invariants, winding numbers, and their identities.  The
``etaforge`` CLI replays every built-in identity as a batch experiment.
"""

from .asymptotics import (
    ExpansionModel,
    FittedExpansion,
    RadiusLadder,
    RegularizedValue,
    cov_correction,
    fit_expansion,
    mellin_reg,
    regint_halfline,
    regint_rp,
    regint_rp_radial,
    smooth_cutoff,
    stokes_defect,
)
from .clifford import CliffordRep, clifford_action, standard_rep, volume_trace
from .errors import (
    ConfigError,
    EtaforgeError,
    FitError,
    MissingCoefficientError,
    OrderError,
    QuadratureError,
    SingularFamilyError,
    TruncationError,
)
from .eta import (
    EtaResult,
    PathFamily,
    additivity_defect,
    c_k,
    divisor_flow,
    eta_k,
    eta_suspension,
    eta_variation,
    spectral_eta,
    winding,
)
from .forms import (
    MatrixFamily,
    MatrixForm,
    exterior_derivative,
    maurer_cartan_power,
    sphere_integrate,
    wedge,
)
from .partrace import (
    Kernel,
    SpectralFamily,
    TraceValue,
    WindowConfig,
    eta_kernel,
    l2_trace,
    resolvent,
    tr_param,
)

__version__ = "0.1.0"
