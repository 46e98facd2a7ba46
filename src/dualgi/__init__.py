"""Generalized inverses of matrices over the dual numbers.

Dual matrices Ahat = A + eps*B (eps**2 = 0) do not always admit dual
generalized inverses.  This package provides the real-matrix kernel
(Moore-Penrose, Drazin, core-EP inverse and decomposition), dual-matrix
arithmetic, the dual generalized inverses (MPDGI, DMPGI, DDGI, dual
group, dual core, dual core-EP) with numerical existence certificates,
the dual core-EP decomposition, relationship predicates, and a solver
for inconsistent dual linear systems.
"""

from .dual import DualMatrix, DualScalar, DualVector, dual_power, s_matrix
from .decomposition import (DualCNSplit, DualCoreEPDecomposition,
                            dcepgi_from_decomposition, dual_cn_split,
                            dual_core_ep_decompose)
from .errors import (DimensionError, DualgiError, HypothesisError,
                     InverseNotExistError)
from .inverses import (ExistenceCertificate, core_ep_residuals, dcepgi,
                       dcepgi_compact, dcepgi_exists, ddgi, ddgi_exists,
                       dmpgi, dmpgi_exists, drazin_residuals,
                       dual_core_inverse, dual_group, mpdgi,
                       penrose_residuals)
from .realkernel import (DEFAULT_TOL, CoreEPBlocks, core_ep_decompose,
                         core_ep_inverse, drazin, index, moore_penrose,
                         numerical_rank)
from .relations import (EquivalenceReport, OrderLawReport, RangeNullReport,
                        first_order_form_report, order_law_check,
                        range_null_report, rank_test)
from .solver import SolutionReport, solve_general, solve_unique_in_range

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL",
    "CoreEPBlocks",
    "DimensionError",
    "DualCNSplit",
    "DualCoreEPDecomposition",
    "DualMatrix",
    "DualScalar",
    "DualVector",
    "DualgiError",
    "EquivalenceReport",
    "ExistenceCertificate",
    "HypothesisError",
    "InverseNotExistError",
    "OrderLawReport",
    "RangeNullReport",
    "SolutionReport",
    "core_ep_decompose",
    "core_ep_inverse",
    "core_ep_residuals",
    "dcepgi",
    "dcepgi_compact",
    "dcepgi_exists",
    "dcepgi_from_decomposition",
    "ddgi",
    "ddgi_exists",
    "dmpgi",
    "dmpgi_exists",
    "drazin",
    "drazin_residuals",
    "dual_cn_split",
    "dual_core_ep_decompose",
    "dual_core_inverse",
    "dual_group",
    "dual_power",
    "first_order_form_report",
    "index",
    "moore_penrose",
    "mpdgi",
    "numerical_rank",
    "order_law_check",
    "penrose_residuals",
    "range_null_report",
    "rank_test",
    "s_matrix",
    "solve_general",
    "solve_unique_in_range",
]
