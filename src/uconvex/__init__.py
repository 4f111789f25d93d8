"""Moduli of convexity and separated sequences in finite-dimensional l^p.

Computes the modulus of convexity of l^p-type spaces (closed form,
implicit equation, randomized adversarial estimation), constructs
separated sequences on unit spheres via Ramsey dichotomy plus greedy
normalized differences, and verifies the quantitative uniform Kadec-Klee
statements by randomized search with reproducible counterexample reports.
"""

from .errors import (BisectionError, CapacityError, CertificateError,
                     DimensionMismatchError, InsufficientClusterError,
                     PreconditionError, SamplerExhaustedError, UconvexError,
                     ZeroVectorError)
from .modulus import (ModulusCurve, ModulusPoint, TheoremBounds, build_curve,
                      clarkson_delta, delta_from_constraint, empirical_delta,
                      hanner_delta, lp_delta, theorem_bounds)
from .sequences import (BaselineResult, ConstructionTrace, ExtractionResult,
                        SeparationCertificate, TraceStep, baseline_extract,
                        certify, pair_enumeration, ramsey_extract, riesz_seed,
                        separation, shifted_basis_seed, theorem1_extract,
                        theorem3_construct, unit_basis_seed)
from .spaces import (SpaceSpec, as_vector, norm, norming_functional,
                     normalize)
from .verify import (VerificationReport, check_lemma23,
                     check_modulus_properties, check_remark45,
                     check_thm2_condition3, reverify_violation, run_grid,
                     summary_line)

__version__ = "0.1.0"

__all__ = [
    "BaselineResult", "BisectionError", "CapacityError", "CertificateError",
    "ConstructionTrace", "DimensionMismatchError", "ExtractionResult",
    "InsufficientClusterError", "ModulusCurve", "ModulusPoint",
    "PreconditionError", "SamplerExhaustedError", "SeparationCertificate",
    "SpaceSpec", "TheoremBounds", "TraceStep", "UconvexError",
    "VerificationReport", "ZeroVectorError", "as_vector", "baseline_extract",
    "build_curve", "certify", "check_lemma23", "check_modulus_properties",
    "check_remark45", "check_thm2_condition3", "clarkson_delta",
    "delta_from_constraint", "empirical_delta", "hanner_delta",
    "lp_delta", "norm", "norming_functional", "normalize", "pair_enumeration",
    "ramsey_extract", "reverify_violation", "riesz_seed", "run_grid",
    "separation", "shifted_basis_seed", "summary_line", "theorem1_extract",
    "theorem3_construct", "theorem_bounds", "unit_basis_seed", "__version__",
]
