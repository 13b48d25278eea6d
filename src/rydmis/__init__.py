"""Blockade-graph MIS preparation toolkit.

Builds blockade graphs from atom arrays, counts independent sets and
hardness parameters, computes spectral-gap profiles along pulse
schedules, synthesizes gap-guided detuning schedules, integrates the
time-dependent Schrodinger equation, and samples measurement histograms
with a readout-error channel.
"""

from .dynamics import (
    EvolutionResult,
    EvolveOptions,
    QuantumState,
    TwoLevelModel,
    build_two_level_model,
    evolve,
    evolve_two_level,
)
from .errors import ConvergenceError, DimensionLimitError, RydmisError
from .geometry import (
    AtomArray,
    BlockadeGraph,
    PhysicalParams,
    blockade_graph,
    builtin_instance,
    from_mhz,
    generate_kpxp_chain,
    to_mhz,
)
from .hamiltonian import (
    BasisSet,
    HamiltonianTerms,
    assemble,
    build_basis,
    dump_matrix,
    hamiltonian_terms,
    hamiltonian_time_derivative,
)
from .isets import ISetStats, classify_bitstring, count_isets, mis_projector_support
from .measurement import ShotHistogram, SpamModel, histogram_report, sample_shots
from .schedule import (
    EtaPolynomials,
    PulseSchedule,
    adglb_schedule,
    fit_eta_polynomials,
    standard_schedule,
    transfer_schedule,
)
from .spectrum import GapProfile, eigenpairs_lowest2, scan_gap, track_mis_overlap

__all__ = [
    "AtomArray",
    "BasisSet",
    "BlockadeGraph",
    "ConvergenceError",
    "DimensionLimitError",
    "EtaPolynomials",
    "EvolutionResult",
    "EvolveOptions",
    "GapProfile",
    "HamiltonianTerms",
    "ISetStats",
    "PhysicalParams",
    "PulseSchedule",
    "QuantumState",
    "RydmisError",
    "ShotHistogram",
    "SpamModel",
    "TwoLevelModel",
    "adglb_schedule",
    "assemble",
    "blockade_graph",
    "build_basis",
    "build_two_level_model",
    "builtin_instance",
    "classify_bitstring",
    "count_isets",
    "dump_matrix",
    "eigenpairs_lowest2",
    "evolve",
    "evolve_two_level",
    "fit_eta_polynomials",
    "from_mhz",
    "generate_kpxp_chain",
    "hamiltonian_terms",
    "hamiltonian_time_derivative",
    "histogram_report",
    "mis_projector_support",
    "sample_shots",
    "scan_gap",
    "standard_schedule",
    "to_mhz",
    "track_mis_overlap",
    "transfer_schedule",
]

__version__ = "0.1.0"
