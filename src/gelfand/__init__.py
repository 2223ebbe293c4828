"""Exact-arithmetic toolkit for origin-only-vanishing polynomial forms,
finite maximal spectra with their Zariski topology, and certified
nowhere-vanishing combinations from covers."""

from .anisotropic import (
    ExhaustivePassed,
    Failed,
    SampledPassed,
    Tower,
    ValuationPassed,
    build_fn,
    norm_form_eval,
    valuation_identity_check,
    verify_vanishing_exhaustive,
)
from .covers import (
    CombinationCertificate,
    Cover,
    certify,
    check_cover,
    combine_case1,
    combine_case2,
    image_points,
    indicator_poly,
    unit_combination_case3,
)
from .field_core import (
    FieldDescriptor,
    FieldElement,
    Fp,
    Fq,
    Q,
    Qsqrt,
    enumerate_field,
    find_rootfree_monic,
    format_element,
    format_field,
    parse_element,
    parse_field,
    rootfree_scan_position,
)
from .function_ring import (
    FiniteSpace,
    IdealRepr,
    RingElement,
    ZariskiSpace,
    check_guards,
    check_homeomorphism,
    enumerate_ideals_bruteforce,
    gelfand_map,
    max_spectrum,
    maximal_ideals,
)
from .poly import (
    MultiPoly,
    compose_last,
    format_poly,
    homogenize2,
    parse_poly,
    univariate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
