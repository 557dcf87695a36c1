#!/usr/bin/env python3
"""Two Ising-coupled qubits driven through one of them: a degenerate steady state.

The decoupled Majorana direction of the second qubit produces a zero rapidity,
so the stationary subspace is two-dimensional: a one-parameter family of
steady states.  The driving solution Z of X^T Z + Z X = M_i is nevertheless
unique (the zero mode has multiplicity one and antisymmetry pins its
coefficient), and all two-point functions are family-independent.
"""

import numpy as np

from liouv import analyze, ness_covariance, validate_model
from liouv.oracle import build_superoperator, fock_operator, oracle_ness, verify_quadratic_form

G1, G2, J = 0.3, 0.5, 0.7
GP, GM = G2 + G1, G2 - G1

K = np.zeros((4, 4))
K[1, 2], K[2, 1] = -J / 2, J / 2
bath_vector = np.sqrt(0.4) * np.array([1, -1j, 0, 0])
model = validate_model(2, K, [bath_vector])

result = analyze(model)
print("rapidities:")
for cls in result.stability.classes:
    print(f"  beta_{cls.j} = {cls.rapidity:+.4f}   ({cls.kind})")
print(f"\nspectral gap: {result.ness.gap}")
print(f"NESS unique: {result.ness.unique}")
print(f"stationary dimension: {result.ness.stationary_dim}")
print(f"zero-rapidity stationary directions (j,k): {result.ness.zero_rapidity_modes}")

Z_closed = (2 * GM / (2 * GP**2 + J**2)) * np.array(
    [[0, GP, J, 0], [-GP, 0, 0, 0], [-J, 0, 0, 0], [0, 0, 0, 0]]
)
print(f"\ndriving solution unique: {result.driving.unique} "
      f"(free parameters: {result.driving.free_parameter_count})")
print(f"|Z - closed form|_max = {np.abs(result.driving.Z - Z_closed).max():.2e}")

# brute force: the dense generator's kernel, from its two real parity blocks,
# and the correlators of the steady state the dynamics reaches from the
# maximally mixed state
on = oracle_ness(verify_quadratic_form(build_superoperator(model), result.structure))
print(f"\ndense-generator kernel dimension: {on.kernel_dim}")
C_fast = ness_covariance(result.driving.Z)
print(f"|C_oracle - (1 + 4i Z^T)|_max = {np.abs(on.covariance - C_fast).max():.2e}")

# one-point functions are the family-dependent observables; the Majorana w_j
# is 2^{n/2} times the monomial P_alpha with the single bit alpha = 1 << j
n = model.n
ones = [np.trace(2 ** (n / 2) * fock_operator(np.eye(4**n)[1 << j], n) @ on.rho).real
        for j in range(2 * n)]
print("one-point functions <w_j> of the oracle's steady state "
      f"(only w_4 may be nonzero): {np.round(ones, 6)}")
