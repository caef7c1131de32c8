"""Independent brute-force oracles for the test suite.

Nothing here shares code with the package: coefficients come from exact
integer factorial arithmetic, expansions from first-quantized enumeration
over all d^M level assignments, and the one-body marginal and the optimal
cloning maps from an explicit embedding into the full tensor-product space.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np


def amplitude_squared(j, k) -> Fraction:
    """Exact squared cloning coefficient of |j+k>_a |k>_b for basis input j."""
    d, m, l = len(j), sum(j), sum(k)
    value = Fraction(math.factorial(m + d - 1) * math.factorial(l),
                     math.factorial(m + l + d - 1))
    for ji, ki in zip(j, k):
        value *= Fraction(math.factorial(ji + ki),
                          math.factorial(ji) * math.factorial(ki))
    return value


def compositions(total, modes):
    """Stars-and-bars enumeration of occupation tuples, order unspecified."""
    if modes == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, modes - 1):
            yield (first,) + rest


def identical_expansion(x, M) -> dict:
    """Occupation amplitudes of M identical qudits by first-quantized counting.

    Sums prod_m x[levels[m]] over all d^M level assignments and divides each
    occupation class by the square root of its multiplicity.
    """
    d = len(x)
    sums: dict = {}
    for assignment in product(range(d), repeat=M):
        occ = tuple(assignment.count(i) for i in range(d))
        term = 1.0 + 0.0j
        for level in assignment:
            term *= x[level]
        sums[occ] = sums.get(occ, 0.0) + term
    out = {}
    for occ, total in sums.items():
        multiplicity = math.factorial(M) // math.prod(math.factorial(n) for n in occ)
        out[occ] = total / math.sqrt(multiplicity)
    return out


def symmetric_embedding(vectors, d, L) -> np.ndarray:
    """Isometry from the L-boson occupation sector into (C^d)^(tensor L)."""
    emb = np.zeros((d**L, len(vectors)))
    for col, occ in enumerate(vectors):
        multiplicity = math.factorial(L) // math.prod(math.factorial(n) for n in occ)
        weight = 1.0 / math.sqrt(multiplicity)
        for assignment in product(range(d), repeat=L):
            if tuple(assignment.count(i) for i in range(d)) == tuple(occ):
                idx = 0
                for level in assignment:
                    idx = idx * d + level
                emb[idx, col] = weight
    return emb


def symmetric_projector(d, n) -> np.ndarray:
    """Projector S_n onto the symmetric subspace of (C^d)^(tensor n)."""
    emb = symmetric_embedding(list(compositions(n, d)), d, n)
    return emb @ emb.T


def _scaled_lift(rho_sector, vectors, d, L) -> np.ndarray:
    """(d[M] / d[L]) rho ⊗ I^(tensor L-M) for a density of the M-boson sector `vectors`."""
    M = sum(vectors[0])
    emb = symmetric_embedding(vectors, d, M)
    ratio = math.comb(M + d - 1, d - 1) / math.comb(L + d - 1, d - 1)
    return ratio * np.kron(emb @ rho_sector @ emb.T, np.eye(d ** (L - M)))


def werner_clone_map(rho_sector, vectors, d, L) -> np.ndarray:
    """Werner's optimal M -> L cloner (d[M]/d[L]) S_L (rho ⊗ I^(tensor l)) S_L, first-quantized.

    rho_sector is a density of the M-boson sector indexed by `vectors`, with d[n] the
    dimension of the n-boson sector (Werner, Phys. Rev. A 58, 1827 (1998)).
    """
    s_L = symmetric_projector(d, L)
    return s_L @ _scaled_lift(rho_sector, vectors, d, L) @ s_L


def anticlone_map(rho_sector, vectors, d, L) -> np.ndarray:
    """The b-register map (d[M]/d[L]) (Tr_M[(rho ⊗ I^(tensor l)) S_L])^T on l = L - M qudits.

    It is the optimal measure-and-prepare map of the complex conjugate; for qubits,
    the universal NOT (Buzek, Hillery & Werner, Phys. Rev. A 60, R2626 (1999)).
    """
    joint = _scaled_lift(rho_sector, vectors, d, L) @ symmetric_projector(d, L)
    n = d ** sum(vectors[0])
    k = d ** L // n
    return np.einsum("iaib->ab", joint.reshape(n, k, n, k)).T


def first_quantized_single_marginal(rho_sector, vectors, d, L) -> np.ndarray:
    """One-qudit marginal by embedding into the full tensor space and tracing."""
    emb = symmetric_embedding(vectors, d, L)
    rho_full = emb @ rho_sector @ emb.conj().T
    rho_full = rho_full.reshape(d, d ** (L - 1), d, d ** (L - 1))
    return np.einsum("ikjk->ij", rho_full)


def random_density(dim, rank, rng) -> np.ndarray:
    """Random rank-limited density matrix."""
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real
