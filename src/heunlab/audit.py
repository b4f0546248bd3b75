"""End-to-end boundary-divergence audit for a single equation instance.

run_system_audit, the one entry point, runs every stage of the divergence
argument against one three-term system (for a Heun instance, the system of
heun.heun_recurrence) and collects the results into a plain-dict document
plus a per-term trace.  The document contains no timestamps, no environment
echoes, and only deterministically rendered numbers, so two runs with the
same inputs are byte-identical once serialized with sorted keys.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp
from mpmath.libmp import fone, fzero, mpf_add, mpf_mul, round_nearest, to_float

from ._version import __version__
from .convergence import boundary_radius, eta_z, radius_bracketed
from .errors import DomainError, InvalidParams, TruncationTooLarge
from .instances import render_value as _num
from .proofs import (H_LABELS, find_proof_constants, minorant_partial,
                     verify_proof_constants)
from .rearrange import (grouped_partial_sum, path_table, path_table_enumerate,
                        table_matches_stream)
from .recurrence import (domination_bounds, domination_verdict, iter_cleared,
                         stream_coefficients)
from .scalars import fmt_scalar, is_exact, log_abs, rational_to_mp
from .special import min_index_for_ratio_bound, pochhammer_ratio_lower_bound

# the trace's terms d_0 .. d_{N+M} come from the exact pass when N + M is at
# most this and from the stream at the precision beyond it: over 30 audit-pool
# audits the exact pass took 114 ms against 298 ms for the 256-bit stream, but
# its integers grow with the index: 5001 terms of the wide-rational instance
# took 29 s exact against 0.14 s at 256 bits (process time, 2-core x86)
EXACT_TRACE_CAP = 5000
# the audit's path table holds (M+1)^2 integers whose size grows with M: on
# the a=2 sample a whole proof-audit peaks at 34 MB at depth 100, then at 38,
# 47 and 65 MB at depths 200, 300 and 400 (ru_maxrss of one process)
AUDIT_DEPTH_CAP = 256


def _exact_terms(system, count: int, prec: int):
    """d_0 .. d_{count-1} each correctly rounded to prec bits, from one pass
    of the integer stepper: d_n = P_n / Q_n with Q_n = Q_{n-1} g_n."""
    terms, q = [], 1
    for _, (p, g) in zip(range(count), iter_cleared(system)):
        q *= g
        terms.append(rational_to_mp(p, q, prec))
    return terms


def run_system_audit(system, *, root_echo=None, eps=Fraction(1, 100),
                     N_check: int = 10 ** 5, M: int = 30, m_trunc: int = 2,
                     K=Fraction(1, 2), j_max: int = 64, k_max: int = 4096,
                     prec: int = 256, enum_depth: int = 14,
                     instance_echo: dict | None = None):
    """Audit one three-term system with rational coefficients; returns
    (document, trace_rows).

    The lag limits are system.limits, and root_echo, the indicial exponent
    of a Heun instance, is echoed as the document's root.  trace_rows carry
    (n, value_re, value_im, log_mag, term_at_r, partial_sum) for
    d_0 .. d_{N+M}, evaluated at the boundary radius: each term correctly
    rounded from its exact value while N + M <= EXACT_TRACE_CAP, from the
    stream at the precision beyond it.
    """
    if M < 1:
        raise InvalidParams(f"audit depth {M} must be at least 1")
    if M > AUDIT_DEPTH_CAP:
        raise TruncationTooLarge(
            f"audit depth {M} would build a {M + 1} x {M + 1} exact path table; "
            f"cap is {AUDIT_DEPTH_CAP}")
    constants = find_proof_constants(system, eps, N_check)
    reverify = verify_proof_constants(system, constants)

    A, B = system.limits
    r_closed = boundary_radius((A, B), prec)
    with mp.workprec(prec):
        weights = eta_z((A, B), r_closed, prec)
        eta_v, z_v = weights
        eta_plus_z = eta_v + z_v

    h_slot = constants.h_lag2  # the minorant's h2 slot always takes the lag-2 constant
    ratio_rows = []
    ratio_all_hold = True
    for r_idx in (0, 1, 2):
        for i2r in (m_trunc, m_trunc + 3):
            # the exact search certifies that floor - 1 fails, so the floor is sharp
            floor = min_index_for_ratio_bound(constants.N, h_slot, r_idx, i2r)
            lhs, rhs, holds = pochhammer_ratio_lower_bound(
                constants.N, h_slot, r_idx, i2r, floor, prec)
            ratio_all_hold = ratio_all_hold and holds
            ratio_rows.append({
                "r": r_idx, "i2r": i2r, "floor": floor,
                "lhs": _num(lhs, prec), "rhs": _num(rhs, prec),
                "holds": bool(holds), "sharp_below": True,
            })

    try:
        mino = minorant_partial(constants.N, h_slot, (A, B), eps, m_trunc, K,
                                j_max, k_max, prec, allow_divergent=True)
        mino_doc = {
            "w": _num(mino.w, prec),
            "regime": mino.regime,
            "regime_strict": mino.regime_strict,
            "growing": mino.growing,
            "value": _num(mino.value, prec),
            "value_closed": _num(mino.value_closed, prec) if mino.value_closed is not None else None,
            "prefactor": _num(mino.prefactor, prec),
            "j_sum": _num(mino.j_sum, prec),
            "z_tail": _num(mino.z_tail, prec),
            "z_tail_remainder": _num(mino.z_tail_remainder, prec),
            "h2_slot": {"label": H_LABELS[constants.case][1], "value": h_slot},
            "m": m_trunc, "K": _num(K, prec), "eps": _num(eps, prec),
        }
        minorant_divergent = mino.regime == "divergent"
    except DomainError as exc:
        mino_doc = {"error": str(exc)}
        minorant_divergent = False

    if constants.N + M <= EXACT_TRACE_CAP:
        terms = _exact_terms(system, constants.N + M + 1, prec)
    else:
        terms = stream_coefficients(system, constants.N + M + 1, prec).values
    dom_holds, least, least_den = domination_verdict(domination_bounds(system, constants.N, M))

    tbl = path_table(system, constants.N, M)
    tbl_ok = table_matches_stream(tbl, system)
    enum_d = min(enum_depth, M)
    enum_tbl = path_table_enumerate(system, constants.N, enum_d)
    # the DP at depth enum_d is tbl's top-left corner: entry n reads only smaller n
    corner = tuple(row[:enum_d + 1] for row in tbl.num[:enum_d + 1])
    enum_ok = enum_tbl.num == corner and enum_tbl.den == tbl.den[:enum_d + 1]
    with mp.workprec(prec):
        grouped = grouped_partial_sum(tbl, abs(A), abs(B), r_closed)
        direct = mp.mpf(0)
        p = mp.mpf(1)
        # the checked column sums are the majorant c_n = P_n / Q_n
        for s, q in zip(tbl.columns, tbl.den):
            direct += rational_to_mp(s, q, prec) * p
            p *= r_closed
        regroup_diff = mp.fabs(grouped - direct)

    # on raw mpf values, each step rounded to nearest at prec as mpf
    # arithmetic would; to_float saturates to +-inf
    trace_rows = []
    rs, rnd = r_closed._mpf_, round_nearest
    partial, p = fzero, fone
    for n, mv in enumerate(terms):
        v = mv._mpf_
        term = mpf_mul(v, p, prec, rnd)
        partial = mpf_add(partial, term, prec, rnd)
        trace_rows.append((
            n,
            to_float(v, rnd=rnd),
            0.0,
            log_abs(mv),
            to_float(term, rnd=rnd),
            to_float(partial, rnd=rnd),
        ))
        p = mpf_mul(p, rs, prec, rnd)

    verdicts = {
        "constants_verified": bool(constants.verified and reverify.ok),
        "ratio_bound_all_hold": bool(ratio_all_hold),
        "minorant_divergent_regime": bool(minorant_divergent),
        "domination_holds": bool(dom_holds),
        "rearrangement_ok": bool(tbl_ok and enum_ok),
    }
    verdicts["overall"] = all(verdicts.values())

    document = {
        "kind": "proof-audit",
        "version": __version__,
        "precision": prec,
        "instance": instance_echo or {},
        # an int root renders like a Fraction: "0", never 0
        "root": fmt_scalar(root_echo) if is_exact(root_echo) else _num(root_echo, prec),
        "options": {
            "eps": _num(eps, prec), "N_check": N_check, "M": M,
            "m": m_trunc, "K": _num(K, prec), "j_max": j_max, "k_max": k_max,
            "enum_depth": enum_d,
        },
        "classification": {
            "case": constants.case,
            "h_labels": list(H_LABELS[constants.case]),
        },
        "constants": {
            "h_lag1": constants.h_lag1,
            "h_lag2": constants.h_lag2,
            "N": constants.N,
            "N_eps": constants.N_eps,
            "last_violation_lag1": constants.sweep_lag1.last_violation,
            "last_violation_lag2": constants.sweep_lag2.last_violation,
            "cert_valid_from_lag1": constants.cert_lag1.valid_from,
            "cert_valid_from_lag2": constants.cert_lag2.valid_from,
            "verified": constants.verified,
        },
        "reverification": {
            "ok": reverify.ok,
            "window": [reverify.checked_lo, reverify.checked_hi],
            "min_margin_lag1": reverify.min_margin_lag1,
            "min_margin_lag2": reverify.min_margin_lag2,
            "violations": reverify.violations,
            "eps_floor_ok": reverify.eps_floor_ok,
            "ratio_bound_precondition_ok": reverify.ratio_bound_precondition_ok,
            "tail_certified": reverify.tail_certified,
        },
        "boundary": {
            "r_star": _num(r_closed, prec),
            "r_star_bracketed": radius_bracketed((A, B), r_closed, prec),
            "eta": _num(eta_v, prec),
            "z": _num(z_v, prec),
            "eta_plus_z": _num(eta_plus_z, prec),
        },
        "ratio_bound": ratio_rows,
        "minorant": mino_doc,
        "domination": {
            "N": constants.N, "M": M, "holds": dom_holds,
            "precision": "exact",
            "min_margin": _num(rational_to_mp(least, least_den, prec), prec),
        },
        "rearrangement": {
            "depth": M,
            "table_matches_stream": bool(tbl_ok),
            "enumeration_depth": enum_d,
            "enumeration_matches": bool(enum_ok),
            "regroup_abs_diff": _num(regroup_diff, prec),
        },
        "verdicts": verdicts,
    }
    return document, trace_rows
