"""Desk-scale computational homological algebra over quotients of polynomial
rings: Groebner bases, syzygies, free resolutions, Gorenstein-projectivity
tests, and Grothendieck-group computations, all in exact arithmetic.
"""

from .errors import (
    DegreeGuardExceeded,
    GprojError,
    InputError,
    MapNotWellDefined,
    MathRejection,
    NoCoresolutionAvailable,
    NotMonic,
    NotRegularOnModule,
    NotRegularOnQuotient,
    ParseError,
    PdInfiniteOrUnresolved,
    RingMismatch,
    RingNotInCatalog,
    RingNotRecognizedAsDomain,
    UnitElement,
    ZeroDivisorInRing,
)
from .fields import GF, QQ, Field, PrimeField, RationalField
from .rings import (
    DEFAULT_DEGREE_GUARD,
    Ideal,
    Poly,
    PolyRing,
    QuotRing,
    extend_ring,
    format_poly,
    groebner_basis,
    parse_poly,
    polynomial_ring,
)
from .modules import (
    DualModule,
    FPModule,
    ModuleMap,
    SubmoduleOfFree,
    annihilator_of_element,
    double_dual_map,
    dual_map,
    dual_module,
    intersect_with_truncation,
    intersection_criterion_check,
    is_regular_element,
    kernel_of_map,
    maps_equal,
    module_over_cover,
    module_rank,
    polynomial_extension,
    quotient_by_regular_element,
    restrict_scalars_monic,
)
from .resolutions import (
    FreeResolution,
    PdVerdict,
    TruncationSequence,
    free_resolution,
    horseshoe_resolution,
    infinite_pd_detector,
    pd_bounded,
    truncation_sequence,
    verify_exactness,
    verify_short_exact,
)
from .gorenstein import (
    CompleteResolutionFailure,
    CompleteResolutionWindow,
    ExtResult,
    GClassReport,
    GpdVerdict,
    complete_resolution_check,
    ext_module,
    g_class_test,
    gpd_bounded,
    gpd_extension_compare,
)
from .kgroups import (
    AbGroupPresentation,
    Catalog,
    KClass,
    SNFResult,
    catalog_for,
    class_decompose,
    euler_class,
    euler_map_report,
    group_from_relations,
    pushdown_class,
    smith_normal_form,
)
from .cli import ModelFile, Report, main, parse_model_file, run_command

__version__ = "0.1.0"
