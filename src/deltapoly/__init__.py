"""Basic polynomial sequences of the delta operators a*D - b*D^(p+1),
Fuss-Catalan generating functions, Bessel polynomials, and the
inverse-Gaussian distribution family whose moments they are."""

from .series import (
    FormalPowerSeries,
    Poly,
    PolySequence,
    format_rational,
    fps_exp,
    fps_recip,
    fps_reverse,
    fps_sqrt,
    poly_eval,
    poly_to_strings,
)
from .delta import (
    AbTriple,
    BinomialSequence,
    DeltaOperator,
    apply_delta,
    basic_sequence_closed,
    basic_sequence_generic,
    binomial_identity_check,
    f_series,
)
from .fuss import FussSeries, fuss_number, fuss_series
from .bessel import CARLITZ, bessel_egf_check, bessel_poly, w_bessel_relation_check
from .quadrature import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    QuadratureError,
    QuadResult,
    integrate_half_line,
    integrate_interval,
)
from .distributions import (
    BesselMeasure,
    Dilated,
    DistSpec,
    GammaHalf,
    InverseGaussian,
    Report,
    bessel_k_half,
    bessel_k_quadrature,
    convolution_factorization_check,
    density,
    ig_sample,
    kolmogorov_check,
    log_density,
    moment_quadrature,
    semigroup_check,
    worst_abs_dev,
)
from .sequences import SEQUENCE_IDS, SPECS, SequenceSpec, crosscheck, generate
from .verify import CRITERIA, REPORT_TOL, CriterionResult, random_triples, run_all

__version__ = "0.1.0"

__all__ = [
    "AbTriple", "BesselMeasure", "BinomialSequence", "CARLITZ", "CRITERIA",
    "CriterionResult", "DEFAULT_CONFIG", "DeltaOperator",
    "Dilated", "DistSpec", "FormalPowerSeries", "FussSeries", "GammaHalf",
    "InverseGaussian", "Poly", "PolySequence", "QuadResult",
    "QuadratureConfig", "QuadratureError", "REPORT_TOL", "Report",
    "SEQUENCE_IDS", "SPECS", "SequenceSpec", "apply_delta",
    "basic_sequence_closed", "basic_sequence_generic", "bessel_egf_check",
    "bessel_k_half", "bessel_k_quadrature", "bessel_poly",
    "binomial_identity_check",
    "convolution_factorization_check", "crosscheck", "density",
    "f_series", "format_rational", "fps_exp", "fps_recip",
    "fps_reverse", "fps_sqrt", "fuss_number", "fuss_series",
    "generate", "ig_sample", "integrate_half_line", "integrate_interval",
    "kolmogorov_check", "log_density", "moment_quadrature",
    "poly_eval", "poly_to_strings",
    "random_triples", "run_all", "semigroup_check",
    "w_bessel_relation_check", "worst_abs_dev",
]
