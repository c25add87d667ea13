"""Decoders and probability analyses for locally repairable and partial MDS codes."""

from .galois import Field, lagrange_interpolate
from .grs import GrsCode, gs_max_radius
from .lrc import LrcCode, construct_tamo_barg
from .radii import CodeShape, RadiusReport, compute_report, optimal_distance
from .listdec import (
    DecodeConfig,
    DecodingList,
    BudgetExceeded,
    list_decode_lrc,
    unique_decode_probabilistic,
    pe_tilde,
    success_prob_grs,
)
from .interleaved import InterleavedWord, mk_decode, is_t1_independent
from .pmds import PmdsCode, random_pmds, verify_pmds, failure_prob_exact, mk_success_prob

__version__ = "0.1.0"

__all__ = [
    "Field",
    "lagrange_interpolate",
    "GrsCode",
    "gs_max_radius",
    "LrcCode",
    "construct_tamo_barg",
    "optimal_distance",
    "CodeShape",
    "RadiusReport",
    "compute_report",
    "DecodeConfig",
    "DecodingList",
    "BudgetExceeded",
    "list_decode_lrc",
    "unique_decode_probabilistic",
    "pe_tilde",
    "success_prob_grs",
    "InterleavedWord",
    "mk_decode",
    "is_t1_independent",
    "PmdsCode",
    "random_pmds",
    "verify_pmds",
    "failure_prob_exact",
    "mk_success_prob",
]
