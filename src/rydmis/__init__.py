"""Blockade-graph MIS preparation toolkit.

Builds blockade graphs from atom arrays, counts independent sets and
hardness parameters, computes spectral-gap profiles along pulse
schedules, synthesizes gap-guided detuning schedules, integrates the
time-dependent Schrodinger equation, and samples measurement histograms
with a readout-error channel.

Importing the package puts BLAS on one thread (OPENBLAS_NUM_THREADS=1)
unless numpy is already loaded or OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS
or OMP_NUM_THREADS is set, so ``forks.share`` may run the jobs of a gap
scan or of the evolutions in two processes, one per core, as in every
``rydmis`` command.  A library caller that imports numpy first keeps its
BLAS threads; with more than one, nothing forks.
"""

import os as _os
import sys as _sys

if "numpy" not in _sys.modules and not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                        "OMP_NUM_THREADS"} & _os.environ.keys():
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"

from types import ModuleType as _ModuleType

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
    hamiltonian_terms,
)
from .isets import ISetStats, classify_bitstring, count_isets, mis_projector_support
from .measurement import ShotHistogram, SpamModel, histogram_report, sample_shots
from .schedule import (
    PulseSchedule,
    adglb_schedule,
    standard_schedule,
    transfer_schedule,
)
from .spectrum import GapProfile, eigenpairs_lowest2, scan_gap, track_mis_overlap

# the names imported above; the submodules they come from stay unexported
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))

__version__ = "0.1.0"
