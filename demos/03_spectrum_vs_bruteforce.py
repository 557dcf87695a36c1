#!/usr/bin/env python3
"""Every Liouvillean eigenvalue from 2n rapidities, checked against brute force.

The fast path never touches the 4^n-dimensional operator space: eigenvalues
are integer combinations lambda_m = -2 sum m_jk beta_jk over block occupations,
with predicted invariant-subspace dimensions and Jordan-block bounds.  The
eigenvalues of the dense generator's degree blocks confirm the multiset
including multiplicities.
"""

import numpy as np

from liouv import analyze, random_model
from liouv.oracle import (
    build_superoperator,
    eigenvalue_multiset_from_enumeration,
    match_multisets,
    verify_quadratic_form,
)

for seed in (5, 17):
    n = 2 if seed % 2 else 3
    model = random_model(n, seed=seed)
    result = analyze(model)
    qf = verify_quadratic_form(build_superoperator(model), result.structure)

    theory = eigenvalue_multiset_from_enumeration(result.spectrum.entries)
    dense = qf.eigenvalues()
    dev = match_multisets(theory, dense).deviation

    print(f"model n={n} seed={seed}:")
    print(f"  rapidities: {np.round([b.rapidity for b in result.jordan.blocks], 4)}")
    print(f"  occupation vectors: {len(result.spectrum.entries)} "
          f"(total dimension {result.spectrum.total_dim} = 4^{n})")
    print(f"  eigenvalue multiset deviation (minimal-weight matching): {dev:.2e}")
    print(f"  quadratic-form residual (even/odd parity sector): "
          f"{qf.residual_even:.2e} / {qf.residual_odd:.2e}")
    print()

print("merged spectrum of the last model (dim-weighted, * marks collisions):")
for e in result.spectrum.merged:
    star = "*" if e.lower_bound else " "
    print(f"  lambda = {e.lam.real:+9.4f} {e.lam.imag:+9.4f}i   "
          f"dim {e.total_dim:3d}   largest block >= {e.max_jordan_block}{star}")
