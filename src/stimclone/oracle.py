"""Brute-force verification against the full Fock-space Hamiltonian.

The interaction gamma * sum_i(a_i b_i) c^dag + h.c. conserves n_{a_i} - n_{b_i}
per mode and n_c + sum_i n_{b_i}.  Fixing the input label j and the atom
number N therefore pins the reachable configurations to one finite sector,
on which the emission operator A^dag = sum_i a_i^dag b_i^dag c is built
densely from nothing but the raw raising/lowering amplitudes sqrt(n+1) and
sqrt(n).  The oracle runs at gamma = 1, where the Hamiltonian is A^dag + A
(any other gamma only rescales it, and time with it).  The clone states
F_l = A^dag^l |j, 0, N>, normalized, are built once per sector as the
columns of `FullSectorBasis.clone_states`.  The ladder matrix, the cloning
coefficients and the evolution amplitudes are then re-derived here with no
shared code path, which is what makes this module an oracle for the rest of
the package: `clone_coefficients` and the ladder module are only read as the
references being checked.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fock import OccupationVector, check_count, clone_coefficients, enumerate_sector, rank
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

    @cached_property
    def clone_states(self) -> np.ndarray:
        """The clone states F_l = A^dag^l |j, 0, N>, normalized, as columns l = 0..N.

        Built in one pass from column 0, |j, 0, N>, the first configuration:
        each next column is `emission` applied to the last, normalized.
        """
        vec = np.zeros(len(self))
        vec[0] = 1.0
        columns = [vec]
        for _ in range(self.N):
            vec = self.emission @ vec
            vec /= np.linalg.norm(vec)
            columns.append(vec)
        f = np.column_stack(columns)
        f.setflags(write=False)
        return f


def full_sector_basis(d: int, N: int, j) -> FullSectorBasis:
    """Enumerate the conserved sector for input label j and N excited atoms."""
    j = OccupationVector(j)
    d = check_count(f"qudit dimension (j has {j.d} modes)", d, j.d, j.d)
    N = check_count("number of excited atoms", N, 1)
    size = sum(math.comb(l + d - 1, d - 1) for l in range(N + 1))
    if size > MAX_SECTOR_DIM:
        raise ValueError(f"sector dimension {size} exceeds the limit {MAX_SECTOR_DIM}")
    states = []
    for l in range(N + 1):
        for k in enumerate_sector(d, l):
            a = OccupationVector(ji + ki for ji, ki in zip(j, k))
            states.append((a, k, N - l))
    return FullSectorBasis(d=d, N=N, j=j, states=tuple(states))


def build_full_hamiltonian(d: int, N: int, j) -> tuple[FullSectorBasis, np.ndarray]:
    """Dense sector Hamiltonian A^dag + A (gamma = 1) from the raw emission operator.

    Each mode i contributes the photon-emitting term a_i^dag b_i^dag c with
    amplitude sqrt((n_{a_i}+1)(n_{b_i}+1) n_c), plus its conjugate.  Nothing
    from the closed-form cloning coefficients enters the construction.
    """
    basis = full_sector_basis(d, N, j)
    e = basis.emission
    return basis, e + e.T


def embed_clone_state(basis: FullSectorBasis, l: int) -> np.ndarray:
    """Coordinates of the l-th cloning output state in the full sector basis.

    Column l of `basis.clone_states`: A^dag^l |j, 0, N>, normalized after each
    application of `basis.emission`; the clone formula is not used.
    """
    return basis.clone_states[:, check_count("emission count", l, 0, basis.N)]


def _check(name: str, deviation: float, tolerance: float) -> dict:
    return {
        "name": name,
        "max_deviation": float(deviation),
        "tolerance": tolerance,
        "pass": bool(deviation <= tolerance),
    }


def _report(checks: list[dict]) -> dict:
    return {"checks": checks, "pass": all(c["pass"] for c in checks)}


def verify_ladder(d: int, N: int, j, perturbation: float = 0.0) -> dict:
    """Check the ladder structure of the full Hamiltonian on one sector.

    With F the clone states as columns and R the tridiagonal ladder matrix,
    `ladder_action` compares H F with F R, boundary rows included, and
    `ladder_restriction` compares F^T H F with R.  `off_ladder_residual` is
    the largest norm of a column of H F - F (F^T H F), the part of H F_l
    outside span(F).  H changes l by exactly one and F_l lives on the l block
    alone, so F^T H F is exactly tridiagonal with a zero diagonal and this is
    also the part outside span{F_{l-1}, F_{l+1}}; a deviation inside span(F)
    is `ladder_restriction`'s to catch.  The states, grouped by l, are also
    compared with row j of `clone_coefficients`, the one row it is asked for
    (`clone_table_match`).  A nonzero `perturbation` scales the reference
    coupling and serves as a fault-injection hook: the two checks that read
    R, `ladder_action` and `ladder_restriction`, must then fail.

    Returns a JSON-ready report; failures are carried in the report rather
    than raised.
    """
    basis, h = build_full_hamiltonian(d, N, j)
    f = basis.clone_states
    off = ladder_matrix(d, N, basis.j.total(), 1.0 + perturbation)
    reference = np.diag(off, 1) + np.diag(off, -1)
    image = h @ f
    restriction = f.T @ image
    action_dev = np.max(np.abs(image - f @ reference))
    off_ladder_dev = np.max(np.linalg.norm(image - f @ restriction, axis=0))
    restriction_dev = np.max(np.abs(restriction - reference))
    # The F_l have disjoint supports, so their sum lists every l block in order.
    row, M = rank(basis.j), basis.j.total()
    table = np.concatenate([clone_coefficients(d, M, l, row)[0] for l in range(N + 1)])
    table_dev = np.max(np.abs(f.sum(axis=1) - table))
    return _report([
        _check("ladder_action", action_dev, LADDER_ACTION_TOL),
        _check("off_ladder_residual", off_ladder_dev, OFF_LADDER_TOL),
        _check("clone_table_match", table_dev, CLONE_TABLE_TOL),
        _check("ladder_restriction", restriction_dev, RESTRICTION_TOL),
    ])


def verify_evolution(d: int, N: int, j, t: float, perturbation: float = 0.0) -> dict:
    """Check the ladder evolution amplitudes against a dense matrix exponential.

    Applies expm(-i H t) of the full sector Hamiltonian to the initial state
    F_0 and compares each overlap with the clone states F_l to the
    tridiagonal-eigendecomposition amplitudes.  A nonzero `perturbation`
    scales the reference coupling: `amplitude_match` must then fail, while
    `unitarity` does not read it.
    """
    from scipy.linalg import expm

    basis, h = build_full_hamiltonian(d, N, j)
    f = basis.clone_states
    overlaps = f.T @ (expm(-1j * h * t) @ f[:, 0])
    reference = evolve(ladder_matrix(d, N, basis.j.total(), 1.0 + perturbation), t)
    amp_dev = np.max(np.abs(overlaps - reference.amplitudes))
    unit_dev = abs(np.sum(np.abs(overlaps) ** 2) - 1.0)
    return _report([
        _check("amplitude_match", amp_dev, AMPLITUDE_TOL),
        _check("unitarity", unit_dev, UNITARITY_TOL),
    ])
