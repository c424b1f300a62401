"""Metric and centralizer computations for finite classical and
alternating groups at desk scale.

Submodules: gf (finite fields), linalg (matrices over them), groups
(permutations and classical elements), metrics (three bi-invariant
metrics), constructions (near-root splitting, approximate centralizing,
block certificates, commutators), centralizers (factorizations and the
characteristic fingerprint), geodesics (stepwise chains), experiments
and suites (reproducible reports), textio (one-line text formats), cli.
"""

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
from .experiments import (ExperimentReport, FamilyDescriptor, derive_seed,
                          equivalence_experiment, fingerprint_experiment,
                          format_family, parse_family, rng_for)
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
from .metrics import (CONJ, HAMMING, PRANK, MetricValue, class_size_matrix,
                      class_size_perm, conjugacy_distance, hamming_distance,
                      length, perm_centralizer_order,
                      projective_rank_distance)
from .suites import SUITES, run_suite

__version__ = "0.1.0"
