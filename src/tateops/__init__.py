"""tateops: exact operator algebra on formal Laurent-series spaces.

Decidable bounded/discrete/trace-class operator ideals, lattice-factorization
traces, the corner 2-cocycle with the abstract residue and its Hochschild
form, Kac-Moody cocycles of loop Lie algebras, recursive level-n operators
with the full cubical ideal family, and the p-adic non-sliced counterexample.
All arithmetic is exact.
"""

__version__ = "0.1.0"

from .fields import (FieldMismatchError, NotPrimeError, PrimeField, QQ,
                     RationalField, Scalar)
from .laurent import LaurentParseError, LaurentPoly, parse_laurent
from .operators import (ANTI, DIAG, EvSeq, IdealMembership, InvalidOperatorError,
                        LatticeFactorization, LevelMismatchError, StandardLattice,
                        TateOp, commutator, double_lattice_factorization,
                        ideal_membership, split_plus_minus)
from .trace import (InsufficientWindowError, NotTraceClassError, RestrictQuotient,
                    TraceCertificate, certificate, restrict_and_quotient, trace,
                    trace_oracle, trace_product)
from .cocycles import (BlockOp, COCYCLE_TO_RESIDUE_SIGN,
                       HOCHSCHILD_TO_RESIDUE_SIGN, KacMoodyCell, LieAlgebraData,
                       LieAlgebraError, ad_block, block_cocycle, corner,
                       hochschild_residue, kac_moody_grid, lie_from_json,
                       residue, residue_oracle, sl2, tate_cocycle)
from .cubical import (CubicalReport, WordFactorization, cubical_membership,
                      good_idempotents, is_fully_finite, level2_flip, split_i,
                      stored_two_letter_pair, trace_n, word_factorization)
from .counterexamples import (NotPAdicError, QpEndo, QpIdealFlags,
                              check_not_sliced, qp_ideal_membership)
from .serial import SchemaError, dump_op, load_op, op_from_json, op_to_json

__all__ = [
    "ANTI", "BlockOp", "COCYCLE_TO_RESIDUE_SIGN", "CubicalReport", "DIAG",
    "EvSeq", "FieldMismatchError", "HOCHSCHILD_TO_RESIDUE_SIGN",
    "IdealMembership", "InsufficientWindowError", "InvalidOperatorError",
    "KacMoodyCell", "LatticeFactorization", "LaurentParseError", "LaurentPoly",
    "LevelMismatchError", "LieAlgebraData", "LieAlgebraError",
    "NotPAdicError", "NotPrimeError",
    "NotTraceClassError", "PrimeField", "QQ", "QpEndo", "QpIdealFlags",
    "RationalField", "RestrictQuotient", "Scalar", "SchemaError",
    "StandardLattice", "TateOp", "TraceCertificate", "WordFactorization",
    "ad_block", "block_cocycle", "certificate", "check_not_sliced",
    "commutator", "corner", "cubical_membership", "double_lattice_factorization",
    "dump_op", "good_idempotents", "hochschild_residue", "ideal_membership",
    "is_fully_finite", "kac_moody_grid", "level2_flip", "lie_from_json",
    "load_op", "op_from_json", "op_to_json",
    "parse_laurent", "qp_ideal_membership", "residue", "residue_oracle",
    "restrict_and_quotient", "sl2", "split_i",
    "split_plus_minus", "stored_two_letter_pair", "tate_cocycle", "trace",
    "trace_n", "trace_oracle", "trace_product", "word_factorization",
]
