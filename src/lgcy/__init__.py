"""Exact genus-zero series engine for Fermat Landau-Ginzburg pairs.

Computes the J-, I-, and H-functions attached to a Fermat pair and its
Calabi-Yau partner geometries, implements the symplectic operators
relating them, and mechanically verifies the structural identities
(MLK relabeling, Gamma factorization, Mellin-Barnes continuation,
refined crepant-transformation conditions) as termwise equalities of
truncated formal series over cyclotomic rationals.
"""
from .exactalg import (
    Cyclotomic,
    GammaAtom,
    SectorValue,
    SeriesRing,
    ZLaurentSeries,
    bernoulli_number,
    series_exp,
    series_invert,
)
from .lgmodel import (
    AdmissibleGroup,
    FermatData,
    GroupElement,
    LGPair,
    SectorBasisElement,
    group_from_generators,
    load_pair,
    pair_twisted,
)
from .cohseries import CohSeries, Orders
from .genfun import (
    fjrw_i_function,
    gamma_pole_residue,
    h_continued,
    h_factorization,
    i_function_x,
    i_function_y,
    psi_integral_oracle,
    serialize_series,
    untwisted_j,
)
from .transforms import (
    DeltaDiamond,
    PullbackToZ,
    delta_c_generic,
    delta_c_specialized,
    delta_circ,
    gamma_class_op,
    i_c,
    u_bar,
)
from .verify import ALL_CHECKS, VerificationReport, recommended_orders, run_checks
from .catalog import shipped_pairs

__version__ = "0.1.0"
