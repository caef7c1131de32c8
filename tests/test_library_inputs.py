"""Every input rule of the library's public functions, as one table of calls.

A row is (call, match[, seconds]).  `call` is Python source, evaluated with
`NAMES`, so it doubles as the row's id.  match None means the call returns; a
pattern means it raises ValueError with a message that matches it.  A row
with `seconds` must also finish within that time: the bounds that reject an
oversized input before anything is allocated.  No row may warn.  A new
library rule adds a row here; the CLI's exit codes are `EXIT_CODES` in
`test_cli.py`.
"""

import contextlib
import math
import time
import warnings

import numpy as np
import pytest

from stimclone import cloner, fock, ladder, oracle, reduction

# The names a row may call: the public names of the five library modules, np,
# math, a 2x2 densities' sector and a 6-level input, |J| = C(199, 5) at M = 194.
NAMES = {name: value for module in (fock, ladder, cloner, reduction, oracle)
         for name, value in vars(module).items() if not name.startswith("_")}
_V6 = np.array([0.5, 0.4, 0.4, 0.4, 0.4, 0.346])
NAMES.update(np=np, math=math, BASIS=fock.enumerate_sector(2, 1),
             X6=cloner.PureQudit(_V6 / np.linalg.norm(_V6)))
NOT_HERMITIAN = "^density matrix is not Hermitian$"

LIBRARY_INPUTS = [
    ("OccupationVector((3,))", "at least 2 modes"),
    ("OccupationVector((1, -1))", "non-negative"),
    ("OccupationVector((1.9, 0))", "integers"),
    ("OccupationVector((0, 0.5))", "integers"),
    ("OccupationVector((np.float64(2.5), 1))", "integers"),
    ("OccupationVector(('1', 0))", "integers"),
    # Entries that int() cannot convert raise the same message, not int()'s own error.
    ("OccupationVector((math.inf, 0))", "integers"),
    ("OccupationVector((None, 0))", "integers"),
    ("OccupationVector(('a', 0))", "integers"),
    ("OccupationVector((math.nan, 0))", "integers"),
    # The cloner rejects it as well, rather than cloning the truncation (1, 0).
    ("clone_basis_state((1.9, 0), 1)", "integers"),
    ("enumerate_sector(1, 3)", "qudit dimension"),
    ("enumerate_sector(2, -1)", "total photon number"),
    # Every count is an int or numpy integer (fock.check_count); integral floats are not.
    ("enumerate_sector(2, 2.5)", "total photon number"),
    ("enumerate_sector(np.int64(2), np.int64(1))", None),
    # The sector caches are typed: after the int call warms them, the float call
    # still reaches its check instead of returning the int's entry.
    ("(sector_array(2, 1), sector_array(2.0, 1))", "qudit dimension"),
    ("(enumerate_sector(2, 1), enumerate_sector(2.0, 1))", "qudit dimension"),
    ("(log_multinomials(2, 1), log_multinomials(2.0, 1))", "qudit dimension"),
    # C(10005, 5) ~ 8.4e17, C(125, 5) ~ 2.3e8 and C(1003, 3) ~ 1.7e8 vectors, all far
    # above MAX_CLONE_ENTRIES; building any of them would take GBs or minutes.
    ("enumerate_sector(6, 10_000)", "sector too large", 0.1),
    ("enumerate_sector(6, 120)", "sector too large", 0.1),
    ("sector_array(4, 1000)", "sector too large", 0.1),
    ("expand_identical(PureQudit(np.full(4, 0.5)), 1000)", "sector too large", 0.1),
    ("enumerate_sector(3, 4).index((4, 1, 0))", "is not in the"),
    ("enumerate_sector(3, 2).index((1, 1))", "is not in the"),
    ("log_multinomials(2, MAX_FACTORIAL + 1)", "factorial bound exceeded"),
    ("log_multinomials(1, 3)", "qudit dimension"),
    ("log_multinomials(2, -1)", "total photon number"),
    # M + l + d - 1 is the largest factorial argument; one past the table must
    # raise ValueError, not index off its end.
    ("clone_coefficients(2, 150, MAX_FACTORIAL - 150)", "factorial bound exceeded"),
    ("clone_coefficients(2, 0, MAX_FACTORIAL)", "factorial bound exceeded"),
    ("clone_coefficients(3, MAX_FACTORIAL, 1)", "factorial bound exceeded"),
    ("clone_coefficients(1, 1, 1)", "qudit dimension"),
    ("clone_coefficients(2, -1, 1)", "input photon number"),
    ("clone_coefficients(2, 1, -1)", "additional copies"),
    ("clone_coefficients(2, 1, 1.5)", "additional copies"),
    # |J| x |K| above MAX_CLONE_ENTRIES: 462 x 8568 just above, 1 x C(199, 5) far above.
    ("clone_coefficients(6, 6, 13)", "clone table too large", 0.1),
    ("clone_coefficients(6, 0, 194)", "clone table too large", 0.1),
    ("ladder_matrix(1, 1, 1)", "qudit dimension"),
    ("ladder_matrix(2, 0, 1)", "excited atoms"),
    ("ladder_matrix(2, 1, -1)", "input photon number"),
    ("ladder_matrix(2, 1, 1, gamma=0.0)", "gamma"),
    ("ladder_matrix(2, 1, 1, gamma=math.inf)", "gamma"),
    ("ladder_matrix(2, 3, 10**400)", "input photon number"),
    # Above 4,300 digits Python prints no int: the message gives the count's digits.
    ("ladder_matrix(2, 3, 10**5000)", "input photon number"),
    ("ladder_matrix(2, 2.5, 1)", "excited atoms"),
    ("ladder_matrix(2.5, 2, 1)", "qudit dimension"),
    ("ladder_matrix(2, 2, 1.5)", "input photon number"),
    ("ladder_matrix(np.int64(2), np.int64(2), np.int64(1))", None),
    ("ladder_matrix(2, MAX_LADDER_ATOMS, 0)", None),
    ("ladder_matrix(2, MAX_LADDER_ATOMS + 1, 0)", "excited atoms", 0.1),
    ("ladder_matrix(2, 10**9, 0)", "excited atoms", 0.1),
    ("evolve(ladder_matrix(2, 1, 1), math.inf)", "finite"),
    ("evolve(ladder_matrix(2, 1, 1), math.nan)", "finite"),
    # sigma * t overflows to inf: a ValueError, not nan probabilities and a RuntimeWarning.
    ("evolve(ladder_matrix(6, 100, 6), 1e307)", "finite"),
    # At tau = 1e17 one ulp of sigma * tau exceeds a radian, so the probabilities
    # at tau and at the next float are unrelated.
    ("evolve(ladder_matrix(3, 5, 2), 1e17)", "finite"),
    ("evolve(ladder_matrix(3, 5, 2), -1e17)", "finite"),
    ("evolve(np.array([]), 1.0)", "couplings"),
    ("evolve(np.ones((2, 2)), 1.0)", "couplings"),
    ("evolve(np.array([1.0, np.nan]), 1.0)", "couplings"),
    # One coupling past the ladder bound: rejected before a 5,001-row eigensolve.
    ("evolve(np.ones(MAX_LADDER_ATOMS + 1), 1.0)", "couplings", 0.1),
    ("PureQudit(np.array([1.0, 1.0]))", "not normalized"),
    ("PureQudit(np.array([0.5, 0.5]))", "not normalized"),
    ("PureQudit(np.array([np.nan, 1.0]))", "must be finite"),
    ("PureQudit(np.array([np.inf, 1.0]))", "must be finite"),
    ("SymmetricDensity(BASIS, np.diag([0.7, 0.7]))", "trace"),
    ("SymmetricDensity(BASIS, np.array([[0.5, 1.0], [0.0, 0.5]]))", "not Hermitian"),
    ("SymmetricDensity(BASIS, np.full((2, 2), np.nan))", "must be finite"),
    ("SymmetricDensity(BASIS, np.array([[1.0, np.inf], [np.inf, 0.0]]))", "must be finite"),
    ("SymmetricDensity(BASIS, np.array([[0.5, 0.3j], [-0.3j, 0.5]]))", None),
    ("SymmetricDensity(BASIS, np.array([[0.5, 5e-13j], [0.0, 0.5]]))", None),
    # |mat - mat^H| peaks at 0.6, 2e-12, 2e-12 and 4e-12, the last on the diagonal.
    ("SymmetricDensity(BASIS, np.array([[0.5, 0.3j], [0.3j, 0.5]]))", NOT_HERMITIAN),
    ("SymmetricDensity(BASIS, np.array([[0.5, 2e-12], [0.0, 0.5]]))", NOT_HERMITIAN),
    ("SymmetricDensity(BASIS, np.array([[0.5, 2e-12j], [0.0, 0.5]]))", NOT_HERMITIAN),
    ("SymmetricDensity(BASIS, np.array([[0.5 + 2e-12j, 0.0], [0.0, 0.5]]))", NOT_HERMITIAN),
    ("SymmetricDensity(enumerate_sector(2, 1), np.eye(3) / 3)", "expected a 2x2 matrix"),
    # Hermitian and unit trace, but with a clearly negative eigenvalue.
    ("clone_mixed(SymmetricDensity(BASIS, np.diag([1.05, -0.05])), 1)", "negative eigenvalue"),
    ("clone_basis_state((1, 0), -1)", "additional copies"),
    ("clone_basis_state((1, 0), 1.5)", "additional copies"),
    ("clone_pure(PureQudit(np.array([1.0, 0.0])), 2.5, 1)", "input photon number"),
    ("expand_identical(PureQudit(np.array([1.0, 0.0])), 1.5)", "number of copies"),
    ("expand_identical(PureQudit(np.array([1.0, 0.0])), 0)", "number of copies"),
    ("expand_identical(PureQudit(np.array([1.0, 0.0])), MAX_FACTORIAL + 1)", "factorial bound exceeded"),
    # |J| alone is above the entry bound: rejected before the input is expanded.
    ("clone_pure(X6, 194, 0)", "clone table too large", 0.1),
    ("clone_basis_state((194, 0, 0, 0, 0, 0), 0)", "clone table too large", 0.1),
    # |J| = 2 for (d, M) = (2, 1): three inputs, one input, or a third axis is not a clone output.
    ("reduce_to_single(CloneOutput(2, 1, 1, np.ones(3)))", "must have shape"),
    ("trace_out_b(CloneOutput(2, 1, 1, np.array([1.0])))", "must have shape"),
    ("CloneOutput(2, 1, 1, np.ones((1, 1, 2)))", "must have shape"),
    # An input off unit norm, or a non-finite one, is no state.
    ("trace_out_b(CloneOutput(3, 2, 1, np.zeros(6)))", "unit norm"),
    ("fidelity_global(CloneOutput(2, 1, 1, np.array([2.0, 0.0])), PureQudit(np.array([1.0, 0.0])))",
     "unit norm"),
    ("CloneOutput(2, 1, 1, np.array([math.sqrt(1 + 5e-10), 0.0]))", None),
    ("CloneOutput(2, 1, 1, np.array([math.sqrt(1 + 2e-9), 0.0]))", "unit norm"),
    # PureQudit |x|^2 = 1 + 9e-13 clones to |inputs|^2 = 1 + 1.8e-12 (M = 2), 1 + 1.1e-11 (M = 12).
    ("trace_out_b(clone_pure(PureQudit(np.array([math.sqrt(1 + 9e-13), 0.0])), 2, 2))", None),
    ("trace_out_b(clone_pure(PureQudit(np.array([math.sqrt(1 + 9e-13), 0.0])), 12, 2))", None),
    ("CloneOutput(2, 1, 1, np.array([np.nan, 0.0]))", "must be finite"),
    ("CloneOutput(2, 1, 1, np.array([np.inf, 0.0]))", "must be finite"),
    ("CloneOutput(2, 1, 1, [1.0, 0.0])", None),
    ("CloneOutput(2, 1.0, 1, np.ones(2))", "input photon number"),
    ("full_sector_basis(3, 28, (1, 1, 0))", "exceeds the limit"),
    ("full_sector_basis(3, 2, (1, 0))", "modes"),
    ("full_sector_basis(2.0, 1, (1, 0))", "modes"),
    ("full_sector_basis(2, 0, (1, 0))", "excited atoms"),
    ("full_sector_basis(2, 1.5, (1, 0))", "excited atoms"),
    ("embed_clone_state(full_sector_basis(2, 2, (1, 0)), 3)", "emission count"),
    ("embed_clone_state(full_sector_basis(2, 2, (1, 0)), 1.5)", "emission count"),
    ("reduce_to_single(SymmetricDensity(enumerate_sector(2, 0), np.array([[1.0]])))",
     "at least one boson"),
    ("reduce_to_single(clone_basis_state((0, 0), 0))", "at least one boson"),
    ("SingleQuditDensity(np.ones(3) / 3)", "square matrix"),
    ("fidelity_single(SingleQuditDensity(np.diag([5 / 6, 1 / 6])), PureQudit(np.array([1.0, 0.0, 0.0])))",
     "dimension mismatch"),
    ("fidelity_global(clone_basis_state((1, 0), 1), PureQudit(np.ones(3) / math.sqrt(3)))",
     "dimension mismatch"),
    ("shrinking_factor(SingleQuditDensity(np.eye(2) / 2), SingleQuditDensity(np.eye(3) / 3))",
     "different dimensions"),
    ("closed_form_single(2, 1, 2)", "output copy number"),
    ("closed_form_single(0, 1, 2)", "input copy number"),
    ("closed_form_single(1, 2, 1)", "qudit dimension"),
    ("closed_form_global(3, 2, 2)", "output copy number"),
    ("closed_form_single(1, 2.5, 2)", "output copy number"),
    ("closed_form_global(1, 2.5, 2)", "output copy number"),
    ("closed_form_single(np.int64(1), np.int64(2), np.int64(2))", None),
]


@pytest.fixture(autouse=True)
def cold_sector_caches():
    # Each row starts from cold sector caches, whatever earlier rows or modules warmed.
    for cached in (fock.sector_array, fock.enumerate_sector, fock.log_multinomials):
        cached.cache_clear()


@pytest.mark.parametrize("row", LIBRARY_INPUTS, ids=lambda row: row[0])
def test_library_input_rules(row):
    call, match, seconds = (*row, None)[:3]
    expect = contextlib.nullcontext() if match is None else pytest.raises(ValueError, match=match)
    start = time.perf_counter()
    with warnings.catch_warnings(), expect:
        warnings.simplefilter("error")
        eval(call, NAMES)
    if seconds is not None:
        assert time.perf_counter() - start < seconds
