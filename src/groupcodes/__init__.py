"""Codes over finite alphabets and group codes over finite groups.

Parameter computation, structural classification, decomposition into
indecomposable components, isomorphism and automorphism search, and
cyclic constructions, all at exhaustively verifiable desk scale.
"""

from .classify import (Classification, ball_size, classify, constant_weight_general,
                       constant_weight_group, is_degenerate, is_mds, is_perfect,
                       is_trivial, perfect_by_enumeration)
from .codes import (Code, GroupCode, ParameterReport, Word, all_words, code_distance,
                    direct_sum, direct_sum_all, full_space, generate_group_code,
                    hamming_distance, min_distance, min_weight_nonidentity, parameters,
                    projection, weight, word_inv, word_mul)
from .cyclic import (ComponentStructure, CyclicReport, GcdCertificate, cyclic_report,
                     cyclic_shift, cyclic_structure, gcd_certificate, interleave,
                     interleave_permutation, is_cyclic, join, shift_orbit_sizes)
from .decompose import (CERT_CONSTANT_WEIGHT, CERT_MDS, CERT_PERFECT, CERT_PRIME,
                        Decomposition, Partition, applicable_certificates, decompose,
                        indecomposability_certificate, is_decomposable, split_test)
from .errors import (ClosureError, GroupCodesError, IncompatibleError, InvalidWordError,
                     NotAGroupError, PreconditionError, ResourceLimitError, SchemaError,
                     TheoremViolationError)
from .groups import (FiniteGroup, GroupAutomorphism, automorphisms, cyclic_group,
                     group_from_table, klein_four_group, product_group)
from .isometry import (Configuration, Equivalence, Isometry, apply_pull, apply_push,
                       apply_to_code, compose, enumerate_isometries, from_permutation,
                       identity_isometry, inverse, isometry_group_order,
                       preserves_distances)
from .isomorphy import (AutGroupReport, GroupCodeIso, aut_group, code_equivalent,
                        gc_isomorphic, verify_block_preservation)

__version__ = "0.1.0"
