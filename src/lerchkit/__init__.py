"""Lerch transcendent toolkit.

Evaluation of Phi(s, z, c) = sum_{n>=0} z^n (n+c)^{-s} as a multivalued
function (principal branch, cuts attached to the upper half-plane),
closed-form monodromy over homotopy words, exact rational values at
non-positive integer s, the c-deformed polylogarithm Fuchsian ODE with
its monodromy representation, and ``verify``: residual and exact checks
of the identities the family satisfies.

The names of ``deformed_polylog`` and ``verify`` load their module on
first access, so ``import lerchkit`` (and every CLI command that needs
neither) skips both; ``verify`` loads ``deformed_polylog``.
``monodromy`` stays eager: the package attribute ``lerchkit.monodromy``
is the function, and a lazy load of the submodule would rebind it to
the module.

The result types (``EvalResult``, ``BranchValue``, ``ResidualReport``
and the rest) are named tuples, so the package never imports
``dataclasses``; ``r._replace(value=...)`` makes a changed copy.
"""

import importlib

from .branch_numerics import (branched_power, complex_gamma, principal_log,
                              reciprocal_gamma, semi_principal_log)
from .errors import (AccuracyError, BranchError, DomainError, LerchError,
                     PoleError, StratumError, TransportError)
from .eval_core import (EvalResult, StratumClass, classify_stratum,
                        extended_polylog, hurwitz_zeta, lerch_zeta,
                        periodic_zeta, phi, phi_series)
from .monodromy import (BranchValue, GeneratorLetter, HomotopyWord,
                        branch_value, f_elementary, monodromy,
                        monodromy_space_basis, parse_word, reduce_word,
                        z_profile)
from .special_values import (BivariateRational, laurent_coeffs,
                             negative_polylog, q_ratio, r_poly)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError", "BivariateRational", "BranchError", "BranchValue",
    "DomainError", "EvalResult", "FuchsianBasis", "GeneratorLetter",
    "HomotopyWord", "LerchError",
    "MonodromyMatrix", "PoleError", "ResidualReport", "StratumClass",
    "StratumError", "SuiteReport", "TransportError", "WeylOperator",
    "basis", "branch_value", "branched_power", "classify_stratum",
    "complex_gamma", "extended_polylog", "f_elementary",
    "hurwitz_zeta", "laurent_coeffs", "lerch_zeta", "li_star", "monodromy",
    "monodromy_space_basis", "negative_polylog", "numeric_transport",
    "parse_word", "periodic_zeta", "phi", "phi_series", "principal_log",
    "q_ratio", "r_poly", "reduce_word", "reciprocal_gamma", "rho",
    "rho_word", "run_suite", "semi_principal_log", "unipotency_class",
    "weyl_expand", "z0_loop", "z1_loop", "z_profile",
]

_LAZY = {
    **dict.fromkeys(("FuchsianBasis", "MonodromyMatrix", "WeylOperator",
                     "basis", "li_star", "numeric_transport", "rho",
                     "rho_word", "unipotency_class", "weyl_expand",
                     "z0_loop", "z1_loop"), "deformed_polylog"),
    **dict.fromkeys(("ResidualReport", "SuiteReport", "run_suite"), "verify"),
}


def __getattr__(name):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    return getattr(importlib.import_module("." + home, __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
