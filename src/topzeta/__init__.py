"""Exact-arithmetic topological zeta functions for suspensions and
Le-Yomdin surface singularities, with monodromy and holomorphy
conjecture checks."""

from .binomial import BinomialGerm, euler_specialize, motivic_w, w_top
from .checks import check_holomorphy, check_monodromy
from .cyclo import CycloProduct
from .errors import ConsistencyError, ValidationError
from .lys import LysSurface, lys_charpoly, lys_orders, lys_ztop
from .ratfun import RatFun
from .resolution import CurveResolutionGraph, StratifiedResolution, acampo, \
    solve_multiplicities, strata_of_graph, ztop_from_strata
from .suspension import GermSummary, ZetaProfile, fbad_set, suspend_G, \
    suspend_orders

__version__ = "0.1.0"
