"""Verification toolkit for the 3x3x3 / 4x4x4 / 5x5x5 cube groups and the
exact number theory behind their realizations as Galois groups: sticker
permutation models with certified orders, square-class discriminant
checks, and Frobenius cycle-type evidence."""

from .perm import CycleType, Permutation, block_system, orbits, parse_cycles, print_cycles
from .bsgs import PermutationGroup, ProductReplacementSampler, normal_closure
from .sqclass import is_square, square_class_equal
from .polyq import (PolyQ, discriminant, load_poly, resultant, save_poly,
                    trinomial_disc, trinomial_poly)
from .polymod import PolyFp, ddf_cycle_type, frobenius_type, powmod, primes, reduce_mod_p
from .evidence import (EvidenceProfile, LinkageReport, SymmetricCertificate,
                       certify_symmetric, parity_linkage, predict_wreath_types,
                       scan, triple_parity_linkage)
from .cubes import (ConfigTuple, StickerModel, cube_model, decode_config,
                    encode_config, induced_cubie_perm, orientation_sum,
                    r3_model, r4_model, r5_model, resolve_sign_assignment,
                    sign_vector, superflip_permutation, validity_check)
from .structure import (WreathElement, abelianization_order, enumerate_restricted,
                        fiber_order, r3_predicted_order, r4_predicted_order,
                        r5_predicted_order, restricted_wreath_order,
                        superflip_abstract)
from .theorems import (CheckReport, SuiteOptions, TheoremParameters,
                       derive_parameters, verify_theorem)

__version__ = "1.0.0"
