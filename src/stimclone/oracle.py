"""Brute-force verification against the full Fock-space Hamiltonian.

The interaction gamma * sum_i(a_i b_i) c^dag + h.c. conserves n_{a_i} - n_{b_i}
per mode and n_c + sum_i n_{b_i}.  Fixing the input label j and the atom
number N therefore pins the reachable configurations to one finite sector,
on which the emission operator A^dag = sum_i a_i^dag b_i^dag c is built
densely from nothing but the raw raising/lowering amplitudes sqrt(n+1) and
sqrt(n).  The Hamiltonian is gamma (A^dag + A), and the l-th clone state is
A^dag^l |j, 0, N>, normalized.  The ladder matrix, the cloning coefficients
and the evolution amplitudes are then re-derived here with no shared code
path, which is what makes this module an oracle for the rest of the package:
`clone_coefficients` and the ladder module are only read as the references
being checked.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fock import OccupationVector, clone_coefficients, enumerate_sector, rank
from .ladder import evolve, ladder_matrix

# Cap on the dense sector dimension; desk-scale verification uses a few
# dozen states.
MAX_SECTOR_DIM = 4096

LADDER_ACTION_TOL = 1e-10
OFF_LADDER_TOL = 1e-10
CLONE_TABLE_TOL = 1e-12
RESTRICTION_TOL = 1e-12
AMPLITUDE_TOL = 1e-9
UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class FullSectorBasis:
    """All (a, b, c) configurations reachable from input j with N excited atoms.

    Configurations satisfy n_{a_i} - n_{b_i} = j_i and c + sum_i n_{b_i} = N,
    so there are sum_{l=0}^{N} C(l+d-1, d-1) of them, grouped by the emission
    count l = sum_i n_{b_i} in canonical order.
    """

    d: int
    N: int
    j: OccupationVector
    states: tuple[tuple[OccupationVector, OccupationVector, int], ...]

    def __len__(self) -> int:
        return len(self.states)

    def index(self, a, b, c: int) -> int:
        return self._index[(tuple(a), tuple(b), c)]

    @cached_property
    def _index(self) -> dict:
        return {(tuple(a), tuple(b), c): i for i, (a, b, c) in enumerate(self.states)}

    @cached_property
    def emission(self) -> np.ndarray:
        """Dense A^dag = sum_i a_i^dag b_i^dag c on this sector.

        The entry taking a configuration to its mode-i successor is the raw
        amplitude sqrt((n_{a_i}+1)(n_{b_i}+1) n_c).  Each step raises l by
        one, so in the l-grouped order the matrix is strictly lower-triangular.
        """
        e = np.zeros((len(self), len(self)))
        for src, (a, b, c) in enumerate(self.states):
            if c == 0:
                continue
            for i in range(self.d):
                a_up = list(a)
                b_up = list(b)
                a_up[i] += 1
                b_up[i] += 1
                e[self.index(a_up, b_up, c - 1), src] = math.sqrt((a[i] + 1) * (b[i] + 1) * c)
        e.setflags(write=False)
        return e


def full_sector_basis(d: int, N: int, j) -> FullSectorBasis:
    """Enumerate the conserved sector for input label j and N excited atoms."""
    j = OccupationVector(j)
    if d != j.d:
        raise ValueError(f"input label has {j.d} modes, expected d={d}")
    if N < 1:
        raise ValueError(f"number of excited atoms must be >= 1, got {N}")
    size = sum(math.comb(l + d - 1, d - 1) for l in range(N + 1))
    if size > MAX_SECTOR_DIM:
        raise ValueError(f"sector dimension {size} exceeds the limit {MAX_SECTOR_DIM}")
    states = []
    for l in range(N + 1):
        for k in enumerate_sector(d, l):
            a = OccupationVector(ji + ki for ji, ki in zip(j, k))
            states.append((a, k, N - l))
    return FullSectorBasis(d=d, N=N, j=j, states=tuple(states))


def build_full_hamiltonian(d: int, N: int, j,
                           gamma: float = 1.0) -> tuple[FullSectorBasis, np.ndarray]:
    """Dense sector Hamiltonian gamma (A^dag + A) from the raw emission operator.

    Each mode i contributes the photon-emitting term a_i^dag b_i^dag c with
    amplitude sqrt((n_{a_i}+1)(n_{b_i}+1) n_c), plus its conjugate.  Nothing
    from the closed-form cloning coefficients enters the construction.
    """
    basis = full_sector_basis(d, N, j)
    e = basis.emission
    return basis, gamma * (e + e.T)


def embed_clone_state(basis: FullSectorBasis, l: int) -> np.ndarray:
    """Coordinates of the l-th cloning output state in the full sector basis.

    The state is A^dag^l |j, 0, N>, normalized after each application of
    `basis.emission`; the clone formula is not used.
    """
    if not 0 <= l <= basis.N:
        raise ValueError(f"emission count l={l} outside 0..{basis.N}")
    vec = np.zeros(len(basis))
    vec[basis.index(basis.j, (0,) * basis.d, basis.N)] = 1.0
    for _ in range(l):
        vec = basis.emission @ vec
        vec /= np.linalg.norm(vec)
    return vec


def _check(name: str, deviation: float, tolerance: float) -> dict:
    return {
        "name": name,
        "max_deviation": float(deviation),
        "tolerance": tolerance,
        "pass": bool(deviation <= tolerance),
    }


def _report(params: dict, checks: list[dict]) -> dict:
    return {"params": params, "checks": checks, "pass": all(c["pass"] for c in checks)}


def verify_ladder(d: int, N: int, j, gamma: float = 1.0, perturbation: float = 0.0) -> dict:
    """Check the ladder structure of the full Hamiltonian on one sector.

    Embeds each cloning output state, applies the full Hamiltonian, and
    compares against the tridiagonal ladder coefficients, including both
    boundary rows.  The embedded states, grouped by l, are also compared
    with the row of input j in `clone_coefficients` (`clone_table_match`).
    A nonzero `perturbation` scales the reference coupling and serves as a
    fault-injection hook: the two checks that read that coupling,
    `ladder_action` and `ladder_restriction`, must then fail.
    `off_ladder_residual` and `clone_table_match` do not read it.

    Returns a JSON-ready report; failures are carried in the report rather
    than raised.
    """
    j = OccupationVector(j)
    basis, h = build_full_hamiltonian(d, N, j, gamma)
    reference = ladder_matrix(d, N, j.total(), gamma * (1.0 + perturbation))
    embedded = np.column_stack([embed_clone_state(basis, l) for l in range(N + 1)])

    action_dev = 0.0
    off_ladder_dev = 0.0
    for l in range(N + 1):
        image = h @ embedded[:, l]
        expected = np.zeros(len(basis))
        if l < N:
            expected += reference.offdiag[l] * embedded[:, l + 1]
        if l > 0:
            expected += reference.offdiag[l - 1] * embedded[:, l - 1]
        action_dev = max(action_dev, float(np.max(np.abs(image - expected))))
        # Residual of H|F_l> outside span{|F_{l-1}>, |F_{l+1}>}.
        neighbors = [m for m in (l - 1, l + 1) if 0 <= m <= N]
        span = embedded[:, neighbors]
        residual = image - span @ (span.T @ image)
        off_ladder_dev = max(off_ladder_dev, float(np.linalg.norm(residual)))

    # The F_l have disjoint supports, so their sum lists every l block in order.
    row = rank(j)
    table = np.concatenate([clone_coefficients(d, j.total(), l)[row] for l in range(N + 1)])
    table_dev = float(np.max(np.abs(embedded.sum(axis=1) - table)))
    restriction = embedded.T @ h @ embedded
    restriction_dev = float(np.max(np.abs(restriction - reference.matrix())))

    params = {"d": d, "N": N, "j": list(j), "gamma": gamma, "perturbation": perturbation}
    checks = [
        _check("ladder_action", action_dev, LADDER_ACTION_TOL),
        _check("off_ladder_residual", off_ladder_dev, OFF_LADDER_TOL),
        _check("clone_table_match", table_dev, CLONE_TABLE_TOL),
        _check("ladder_restriction", restriction_dev, RESTRICTION_TOL),
    ]
    return _report(params, checks)


def verify_evolution(d: int, N: int, j, gamma: float = 1.0, t: float = 1.0,
                     perturbation: float = 0.0) -> dict:
    """Check the ladder evolution amplitudes against a dense matrix exponential.

    Applies expm(-i H t) of the full sector Hamiltonian to the embedded
    initial state and compares each overlap with the embedded output states
    to the tridiagonal-eigendecomposition amplitudes.  A nonzero
    `perturbation` scales the reference coupling: `amplitude_match` must
    then fail, while `unitarity` does not read it.
    """
    from scipy.linalg import expm

    j = OccupationVector(j)
    basis, h = build_full_hamiltonian(d, N, j, gamma)
    embedded = np.column_stack([embed_clone_state(basis, l) for l in range(N + 1)])
    evolved = expm(-1j * h * t) @ embedded[:, 0]
    overlaps = embedded.T @ evolved

    reference = evolve(ladder_matrix(d, N, j.total(), gamma * (1.0 + perturbation)), t)
    amp_dev = float(np.max(np.abs(overlaps - reference.amplitudes)))
    unit_dev = float(abs(np.sum(np.abs(overlaps) ** 2) - 1.0))

    params = {"d": d, "N": N, "j": list(j), "gamma": gamma, "t": t, "perturbation": perturbation}
    checks = [
        _check("amplitude_match", amp_dev, AMPLITUDE_TOL),
        _check("unitarity", unit_dev, UNITARITY_TOL),
    ]
    return _report(params, checks)
