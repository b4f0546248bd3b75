"""Power-series solutions of the Heun equation and general multi-term
recurrences.

The package computes exact Frobenius coefficient streams, the guaranteed
absolute-convergence domain and its boundary radius, and the verification
machinery for the boundary-divergence argument: case classification, proof
constants with exact positivity certificates, modulus majorants and the
domination bound, lattice-path series rearrangement, factorial-ratio lower
bounds, and the divergent minorant.  Long-run float64 probes and a Gauss-type
boundary test provide the empirical counterpart.

Evaluation and the domain need none of proofs, special, rearrange, audit and
probes (the one numpy module), so the package exports their names lazily
(_LAZY): each loads on the first access to one of its names, or to itself.
"""

from ._version import __version__
from .convergence import boundary_radius, domain_sum, eta_z, membership_sum
from .errors import (AllZeroLimits, DegreeMismatch, DomainError, HeunLabError,
                     IndicialPole, InputError, InsufficientData, InvalidC,
                     InvalidParams, MagnitudeOverflow, NotFoundWithin,
                     OutsideDomain, PoleAtIndex, TruncationTooLarge)
from .heun import (HeunParams, absolute_profile_sum, heun_eval,
                   heun_recurrence, indicial_roots, ode_residual,
                   series_limits)
from .instances import (Instance, document_bytes, load_instance,
                        parse_instance, render_value, trace_bytes,
                        write_trace)
from .polynomials import (PolynomialInN, RationalFnInN, nonneg_integer_roots,
                          poly_from)
from .recurrence import RecurrenceSystem, limit_profile, stream_coefficients
from .scalars import (DEFAULT_PRECISION, as_mp, fmt_scalar, is_exact,
                      parse_number, parse_point, parse_precision,
                      precision_from_env, to_scalar)

# name -> the module it is exported from on first access (see __getattr__)
_LAZY = {name: module for module, names in (
    ("audit", ("run_system_audit",)),
    ("probes", ("discrepancy_report", "empirical_radius", "gauss_test",
                "term_scan", "term_trace")),
    ("proofs", ("CASE1", "CASE2", "CASE3", "CASE4", "H_LABELS",
                "classify_case", "find_proof_constants", "minorant_partial",
                "verify_proof_constants", "z_power_tail")),
    ("rearrange", ("grouped_partial_sum", "path_table",
                   "path_table_enumerate", "table_matches_stream")),
    ("special", ("Hyp2F1Params", "hyp2f1_series", "min_index_for_ratio_bound",
                 "pochhammer_ratio_lower_bound")),
) for name in names}

__all__ = [
    "__version__",
    "boundary_radius", "domain_sum", "eta_z", "membership_sum",
    "AllZeroLimits", "DegreeMismatch", "DomainError", "HeunLabError",
    "IndicialPole", "InputError", "InsufficientData", "InvalidC",
    "InvalidParams", "MagnitudeOverflow", "NotFoundWithin", "OutsideDomain",
    "PoleAtIndex", "TruncationTooLarge",
    "HeunParams", "absolute_profile_sum", "heun_eval", "heun_recurrence",
    "indicial_roots", "ode_residual", "series_limits",
    "Instance", "document_bytes", "load_instance", "parse_instance",
    "render_value", "trace_bytes", "write_trace",
    "PolynomialInN", "RationalFnInN", "nonneg_integer_roots", "poly_from",
    "RecurrenceSystem", "limit_profile", "stream_coefficients",
    "DEFAULT_PRECISION", "as_mp", "fmt_scalar", "is_exact", "parse_number",
    "parse_point", "parse_precision", "precision_from_env", "to_scalar",
    *_LAZY,
]


def __getattr__(name):
    # PEP 562: a lazy name, or one of its modules not imported yet
    from importlib import import_module

    if name in _LAZY:
        value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _LAZY.values():
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
