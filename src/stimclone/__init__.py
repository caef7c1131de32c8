"""Stimulated-emission cloning of symmetric d-level bosonic states.

Library layout:

* `fock`: occupation-vector bases and the cloning-coefficient table
* `ladder`: emission-ladder couplings and their time evolution
* `cloner`: output states for basis, identical-pure and mixed inputs
* `reduction`: partial traces, fidelities and closed-form references
* `oracle`: brute-force full-Fock-space verifier; derives the clone states
  from the raw emission operator
* `cli`: command-line interface (`stimclone ...`)
"""

from .fock import (
    MAX_FACTORIAL,
    OccupationVector,
    SectorBasis,
    enumerate_sector,
)
from .ladder import (
    EvolutionProfile,
    evolve,
    ladder_matrix,
)
from .cloner import (
    CloneOutput,
    PureQudit,
    SymmetricDensity,
    clone_basis_state,
    clone_mixed,
    clone_pure,
    expand_identical,
)
from .reduction import (
    ShrinkingFit,
    SingleQuditDensity,
    closed_form_global,
    closed_form_single,
    fidelity_global,
    fidelity_single,
    reduce_to_single,
    shrinking_factor,
    trace_out_b,
)
from .oracle import (
    FullSectorBasis,
    build_full_hamiltonian,
    embed_clone_state,
    full_sector_basis,
    verify_evolution,
    verify_ladder,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_FACTORIAL",
    "OccupationVector",
    "SectorBasis",
    "enumerate_sector",
    "EvolutionProfile",
    "evolve",
    "ladder_matrix",
    "CloneOutput",
    "PureQudit",
    "SymmetricDensity",
    "clone_basis_state",
    "clone_mixed",
    "clone_pure",
    "expand_identical",
    "ShrinkingFit",
    "SingleQuditDensity",
    "closed_form_global",
    "closed_form_single",
    "fidelity_global",
    "fidelity_single",
    "reduce_to_single",
    "shrinking_factor",
    "trace_out_b",
    "FullSectorBasis",
    "build_full_hamiltonian",
    "embed_clone_state",
    "full_sector_basis",
    "verify_evolution",
    "verify_ladder",
]
