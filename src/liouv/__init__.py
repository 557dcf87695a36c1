"""Spectral analysis of quadratic fermionic Lindblad (Liouvillean) dynamics.

Pipeline: a model (Hamiltonian kernel K, Lindblad coupling vectors) maps to
the structure matrix A of the quadratic Liouvillean; the Jordan form of the
real matrix X = 2K + 2M_r gives the rapidities; the Lyapunov equation
X^T Z + Z X = M_i gives the driving solution; from (P, Z) the eigenvector
matrix V with V V^T = J brings A to canonical form; the many-body spectrum,
Jordan-block bounds, NESS classification and steady-state covariance follow.
A dense brute-force oracle cross-checks everything at small fermion number.
"""

from .analysis import (
    AnalysisResult,
    analyze,
    build_report,
    dumps_report,
    render_text,
    write_report,
)
from .combinatorics import (
    JordanBlockMultiset,
    nilpotent_blocks,
    nilpotent_map_matrix,
    restricted_binomial,
    restricted_binomial_row,
    seed_coefficients,
    tensor_sum_blocks,
    verify_conjecture,
)
from .lyapunov import DrivingSolution, lyapunov_residual, solve_lyapunov
from .model import (
    BathMatrices,
    QuadraticLindbladModel,
    StructureMatrix,
    build_bath_matrices,
    build_structure_matrix,
    build_X,
    skew_unit,
    tilde_unitary,
    validate_model,
)
from .normal_modes import (
    NormalFormDescriptor,
    NormalModeBasis,
    build_V,
    build_W,
    normal_form_coefficients,
)
from .randmodel import random_model
from .rapidity import (
    JordanBlockDescriptor,
    JordanForm,
    StabilityReport,
    jordan_decompose,
    spectral_gap,
    stability_check,
)
from .spectra import (
    LiouvilleanEigenvalue,
    NessReport,
    SpectrumEnumeration,
    classify_ness,
    enumerate_spectrum,
    ness_covariance,
)
from .tolerances import Tolerances

__version__ = "0.1.0"

__all__ = [
    "AnalysisResult",
    "BathMatrices",
    "DrivingSolution",
    "JordanBlockDescriptor",
    "JordanBlockMultiset",
    "JordanForm",
    "LiouvilleanEigenvalue",
    "NessReport",
    "NormalFormDescriptor",
    "NormalModeBasis",
    "QuadraticLindbladModel",
    "SpectrumEnumeration",
    "StabilityReport",
    "StructureMatrix",
    "Tolerances",
    "analyze",
    "build_bath_matrices",
    "build_report",
    "build_structure_matrix",
    "build_V",
    "build_W",
    "build_X",
    "classify_ness",
    "dumps_report",
    "enumerate_spectrum",
    "jordan_decompose",
    "lyapunov_residual",
    "ness_covariance",
    "nilpotent_blocks",
    "nilpotent_map_matrix",
    "normal_form_coefficients",
    "random_model",
    "render_text",
    "restricted_binomial",
    "restricted_binomial_row",
    "seed_coefficients",
    "skew_unit",
    "solve_lyapunov",
    "spectral_gap",
    "stability_check",
    "tensor_sum_blocks",
    "tilde_unitary",
    "validate_model",
    "verify_conjecture",
    "write_report",
]
