"""Construction and verification toolkit for constant-dimension
subspace codes."""

from .gf import FieldSpec, ext_field, field_new
from .linalg import MatrixGF, gaussian_binomial, rref
from .subspace import Subspace, distance, intersection_dim, orthogonal_complement
from .rankmetric import gabidulin_mrd, mrd_size, nested_subcode, rank_distribution
from .cdc import (Cdc, SpreadFamily, lifted_mrd, parallelism_2_of_F_q4,
                  partial_spread_subcode, spread)
from .constructions import (FORMULAS, RECIPES, CompositionProfile,
                            cor1_bound, coset_addon, duplication,
                            multiblock_linkage, pairing_construction,
                            product_addon, xi_extension)
from .bounds import (BoundResult, bound_table, exact_registry, johnson_upper,
                     lower_bound_registry, singleton_like_upper)
from .verify import (VerificationReport, coverage_check, enumerate_subspaces,
                     full_pairwise_check, sampled_check)
from .codefile import export, import_code, import_with_subcode

__version__ = "0.1.0"
