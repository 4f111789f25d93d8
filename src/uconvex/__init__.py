"""Moduli of convexity and separated sequences in finite-dimensional l^p.

Computes the modulus of convexity of l^p-type spaces (closed form,
implicit equation, randomized adversarial estimation), constructs
separated sequences on unit spheres via Ramsey dichotomy plus greedy
normalized differences, and verifies the quantitative uniform Kadec-Klee
statements by randomized search with reproducible counterexample reports.

The public names are resolved on first use (PEP 562), so ``import uconvex``
loads no submodule and no numpy; :mod:`uconvex.cli` relies on this to set
up numpy's environment before numpy is imported.
"""

import importlib

__version__ = "0.1.0"

# Submodule of each public name.
_EXPORTS = {
    **dict.fromkeys(
        ("CapacityError", "CertificateError", "DimensionMismatchError",
         "InsufficientClusterError", "PreconditionError",
         "SamplerExhaustedError", "UconvexError", "ZeroVectorError"),
        "errors"),
    **dict.fromkeys(
        ("ModulusCurve", "ModulusPoint", "build_curve", "clarkson_delta",
         "delta_from_constraint", "empirical_delta", "hanner_delta",
         "lp_delta"), "modulus"),
    **dict.fromkeys(
        ("BaselineResult", "ConstructionTrace", "ExtractionResult",
         "SeparationCertificate", "TraceStep", "baseline_extract", "certify",
         "ramsey_extract", "riesz_seed", "separation", "shifted_basis_seed",
         "theorem1_extract", "theorem3_construct", "unit_basis_seed"),
        "sequences"),
    **dict.fromkeys(
        ("SpaceSpec", "as_vector", "norm", "norming_functional",
         "normalize"), "spaces"),
    **dict.fromkeys(
        ("VerificationReport", "check_lemma23", "check_modulus_properties",
         "check_remark45", "check_thm2_condition3", "reverify_violation",
         "run_grid", "summary_line"), "verify"),
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
