"""Every threshold of the pipeline, with its value, in one module.

Tolerances holds the thresholds that steer the pipeline: the cluster
radius, the rank cut, the imaginary-axis class, the eigenvalue merge and
the enumeration limit.  Each stage's function reads its default from
DEFAULTS; model files and CLI flags override fields of a Tolerances
instance.  All thresholds are relative to a scale the stage documents
(max|K|, ||X||_2, max|A|, ...).

The module constants below are fixed thresholds that judge results rather
than steer the pipeline: each only decides whether a check raises.  No
model file or flag sets them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import InputError


@dataclass(frozen=True)
class Tolerances:
    tol_cluster: float = 1e-7
    tol_rank: float = 1e-9
    tol_stability: float = 1e-8
    tol_merge: float = 1e-8
    spectrum_limit: int = 10**6

    def __post_init__(self):
        """Reject what would make a tolerance comparison meaningless: NaN,
        infinities, non-positive values and booleans; the limit must be a
        positive integer.  Model files and CLI flags both arrive here."""
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "spectrum_limit":
                ok = isinstance(value, int) and not isinstance(value, bool) and value > 0
                expected = "a positive integer"
            else:
                ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
                      and math.isfinite(value) and value > 0)
                expected = "a finite positive number"
            if not ok:
                raise InputError(f"tolerance '{f.name}': expected {expected}, got {value!r}")


DEFAULTS = Tolerances()

# a model is rejected when max|K + K^T| exceeds this times max(max|K|, 1)
INPUT_ANTISYMMETRY_MAX = 1e-10
# the bath matrix M counts as PSD when no eigenvalue is below -this * max(max|M|, 1)
BATH_PSD_MARGIN = 1e-10
# largest |A + A^T| and |conj(A) - JAJ| of the structure matrix, relative to max(max|A|, 1)
STRUCTURE_INVARIANT_MAX = 1e-12
# a singular Lyapunov position's omega coefficient must vanish within this * max|P^T M_i P|
OMEGA_MAX = 1e-8
# largest |V V^T - J| of the normal-mode matrix, relative to max(max|V|^2, 1)
NORMALIZATION_MAX = 1e-8

# `liouv verify` passes when the oracle agrees within these (absolute)
VERIFY_QUADRATIC_FORM_MAX = 1e-9
VERIFY_SPECTRUM_MAX = 1e-7
VERIFY_COVARIANCE_MAX = 1e-7
# `analyze` warns physicality_bound_exceeded when |4Z| exceeds this
PHYSICALITY_BOUND = 1 + 1e-7
# relative SVD cut of the oracle's kernel of the generator's sector blocks
ORACLE_TOL_KERNEL = 1e-9
# the oracle's steady state counts as positive when no eigenvalue is below -this
ORACLE_TOL_POS = 1e-9
# largest trace-preservation residual of the oracle's generator, relative to max|S|
ORACLE_TOL_TRACE = 1e-10
