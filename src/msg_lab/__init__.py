"""Metric and centralizer computations for finite classical and
alternating groups at desk scale.

Submodules: gf (finite fields), linalg (matrices over them), groups
(permutations and classical elements), metrics (three bi-invariant
metrics), constructions (near-root splitting, approximate centralizing,
block certificates, commutators), centralizers (factorizations and the
characteristic fingerprint), geodesics (stepwise chains), experiments
and suites (reproducible reports), textio (one-line text formats), cli.
"""

import importlib

from .centralizers import (CentralizerDescriptor, FactorRecord,
                           FingerprintRecord, centralizer_factorization,
                           characteristic_fingerprint,
                           perm_centralizer_structure)
from .constructions import (NiceblockCertificate, SplitDecomposition,
                            approx_centralize, build_niceblock,
                            check_split_condition, commutator_witness,
                            commutator_witness_table, prepare_near_root,
                            project_to_sl)
from .errors import (BoundViolationError, BudgetError, MsgLabError,
                     UnsupportedCaseError)
from .geodesics import (ChainPath, VerifyReport, hamming_chain,
                        rank_metric_chain, verify_chain)
from .gf import GF, Field
from .groups import (GL, PSL_REP, SL, SP, AlternatingDescriptor,
                     ClassicalElement, Permutation, PSLDescriptor,
                     enumerate_alternating, enumerate_gl2, enumerate_psl2,
                     enumerate_sl2, psl_canonical, random_even_perm,
                     random_invertible, random_perm, random_sl, random_sp,
                     standard_symplectic_form)
from .linalg import Matrix, commutant_basis, span_invertible_counts
from .metrics import (CONJ, HAMMING, PRANK, ClassLog, MetricValue,
                      class_size_matrix, class_size_perm, conjugacy_distance,
                      hamming_distance, length, perm_centralizer_order,
                      projective_rank_distance)

__version__ = "0.1.0"

# The reporting layer, which no computation uses, is imported on the first
# use of one of its names (PEP 562), so that `import msg_lab` does not
# compile experiments, suites, textio and statistics in every process.
_REPORTING = {
    "ExperimentReport": "experiments", "FamilyDescriptor": "experiments",
    "derive_seed": "experiments", "equivalence_experiment": "experiments",
    "fingerprint_experiment": "experiments", "format_family": "experiments",
    "parse_family": "experiments", "rng_for": "experiments",
    "SUITES": "suites", "run_suite": "suites",
}


def __getattr__(name):
    if name not in _REPORTING:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module("." + _REPORTING[name], __name__),
                    name)
    globals()[name] = value
    return value
