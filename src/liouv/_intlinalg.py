"""Exact linear algebra over the integers (no floating point).

Only what the Jordan-structure computations need: matrix products and Bareiss
fraction-free rank in Python bigints, rank over GF(p) in int64 numpy arrays,
rank over GF(2) on Python-int bitsets, the rank staircase of a nilpotent
matrix, and the Jordan block sizes a nullity staircase determines (shared with
the numerical Jordan form, whose staircase comes from SVD ranks).
"""

from __future__ import annotations

import numpy as np

from .errors import InternalInvariantViolated

IntMatrix = list[list[int]]

# 2^31 - 1 is prime, and a product of two residues below it fits in an int64
PRIME = 2_147_483_647


def int_matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if not a or not b:
        return []
    if len(a[0]) != len(b):
        raise ValueError(f"incompatible shapes {len(a)}x{len(a[0])} @ {len(b)}x{len(b[0])}")
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def int_rank(mat: IntMatrix) -> int:
    """Exact rank via Bareiss fraction-free elimination.

    Rows at and below the pivot row are zero left of the pivot column, so
    each eliminated row is computed whole, (p x - f y) / prev entry by entry
    (exact division); a row with f = 0 is only rescaled by p / prev.
    """
    if not mat or not mat[0]:
        return 0
    m = [row[:] for row in mat]
    rows, cols = len(m), len(m[0])
    prev = 1
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        p = top[c]
        for i in range(r + 1, rows):
            row = m[i]
            f = row[c]
            if f:
                m[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
            elif p != prev:
                m[i] = [p * x // prev for x in row]
        prev = p
        r += 1
        if r == rows:
            break
    return r


def mod_rank(mat: np.ndarray) -> int:
    """Rank over GF(PRIME) of an int64 matrix, by Gaussian elimination on its
    residues, one vectorised row update per pivot.

    Every minor that vanishes over Q vanishes mod PRIME, so the result is at
    most the rank over Q; a rank equal to the smaller dimension is the rank
    over Q.
    """
    m = np.asarray(mat, dtype=np.int64) % PRIME
    rows = m.shape[0]
    r = 0
    for c in range(m.shape[1]):
        nonzero = np.flatnonzero(m[r:, c])
        if nonzero.size == 0:
            continue
        piv = r + nonzero[0]
        m[[r, piv]] = m[[piv, r]]
        factors = m[r + 1:, c] * pow(int(m[r, c]), -1, PRIME) % PRIME
        m[r + 1:] = (m[r + 1:] - factors[:, None] * m[r]) % PRIME
        r += 1
        if r == rows:
            break
    return r


def gf2_rank(mat: np.ndarray) -> int:
    """Rank over GF(2) of an integer matrix, by XOR elimination on its rows
    (or columns, whichever are fewer) packed into Python-int bitsets.

    Like `mod_rank`, the result is at most the rank over Q, and a rank equal
    to the smaller dimension is the rank over Q.
    """
    bits = np.asarray(mat) % 2 == 1
    if bits.shape[0] > bits.shape[1]:
        bits = bits.T
    packed = np.packbits(bits, axis=1)
    data, width = packed.tobytes(), packed.shape[1]
    # v ^ b < v iff v has the leading bit of b; each basis vector is zero at
    # the leading bits of those before it, so reducing v in basis order
    # clears every leading bit of v, and a nonzero remainder is independent
    basis: list[int] = []
    for i in range(0, len(data), width):
        v = int.from_bytes(data[i:i + width], "big")
        for b in basis:
            if v ^ b < v:
                v ^= b
        if v:
            basis.append(v)
    return len(basis)


def nilpotent_staircase(mat: IntMatrix) -> list[int]:
    """Ranks of mat^1, mat^2, ... of a nilpotent integer matrix, until zero.

    Raises if the matrix is not nilpotent within dim steps.
    """
    ranks = []
    power = mat
    for _ in range(len(mat)):
        r = int_rank(power)
        ranks.append(r)
        if r == 0:
            return ranks
        power = int_matmul(power, mat)
    if int_rank(power) != 0:
        raise ValueError("matrix is not nilpotent within the allowed power")
    return ranks


def jordan_profile(nullities: list[int]) -> list[tuple[int, int]]:
    """Jordan block multiset (size, count), largest first, from a nullity staircase.

    nullities[p-1] = nu_p = dim ker N^p for the nilpotent part N on one
    eigenvalue, up to the power where it stops growing.  The number of blocks
    of size >= p is nu_p - nu_{p-1}, so blocks of size exactly p number
    2*nu_p - nu_{p-1} - nu_{p+1}.
    """
    nu = [0, *nullities, *nullities[-1:]]
    out = []
    for p in range(len(nu) - 2, 0, -1):
        count = 2 * nu[p] - nu[p - 1] - nu[p + 1]
        if count < 0:
            raise InternalInvariantViolated("rank staircase is not a Jordan profile")
        if count > 0:
            out.append((p, count))
    return out
