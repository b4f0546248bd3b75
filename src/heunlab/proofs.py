"""Boundary-divergence proof machinery: case split, certified constants, minorant.

The divergence argument for sum |c_n| r^n at the boundary radius runs through
four stages, each of which is an operation here so that every constant the
argument quotes can be found, certified, and re-verified mechanically:

1. classify the recurrence by comparing sub-leading coefficients of the
   normalized lag numerators and denominators (four sign cases);
2. find positive integers h and a start index N with |A_n| > 1 - h/n > 1 - eps
   for all n >= N: an exact polynomial positivity certificate covers every n
   from its start index on, and each smaller n is decided in integers;
3. bound Pochhammer ratios from below past a computable index floor;
4. assemble the explicit minorant whose growth forces the divergence verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp
from mpmath.libmp import (from_int, fzero, mpf_add, mpf_div, mpf_mul, mpf_mul_int,
                          mpf_pos, mpf_sqrt, round_nearest)

from .convergence import boundary_radius, eta_z, exact_membership_sum
from .errors import (DegreeMismatch, DomainError, InputError, InvalidParams,
                     NotFoundWithin)
from .polynomials import PolynomialInN, cauchy_bound, exact_div
from .recurrence import (LimitProfile, RecurrenceSystem, cleared_steps,
                         limit_profile)
from .scalars import DEFAULT_PRECISION, as_mp, is_exact
from .special import Hyp2F1Params, hyp2f1_series

CASE1, CASE2, CASE3, CASE4 = "CASE1", "CASE2", "CASE3", "CASE4"

# which named constant plays each lag's role, by case
H_LABELS = {
    CASE1: ("h1", "h2"),
    CASE2: ("h3", "h4"),
    CASE3: ("h3", "h2"),
    CASE4: ("h1", "h4"),
}


@dataclass(frozen=True)
class CaseReport:
    case: str
    subleading: tuple  # the profile's (num_sub, den_sub) of each monic lag ratio
    strictly_less: tuple  # per lag: num_sub < den_sub


# the case of each (lag 1, lag 2) strictly-less pattern
_CASES = {(True, True): CASE1, (False, False): CASE2, (False, True): CASE3, (True, False): CASE4}


def classify_case(profile: LimitProfile) -> CaseReport:
    """Sort a three-term system into one of the four sub-leading sign cases.

    The sub-leading data is rational, so each comparison is exact.  Systems
    where a lag limit vanishes or the degrees differ fall outside the
    hypothesis and are rejected.
    """
    if len(profile.limits) != 2:
        raise InvalidParams("case classification is stated for three-term recurrences")
    if any(s is None for s in profile.subleading):
        raise DegreeMismatch("both lag coefficients need matching numerator/denominator degree")
    if any(L == 0 for L in profile.limits):
        raise InvalidParams("case classification needs nonzero lag limits")
    less = tuple(o < w for o, w in profile.subleading)
    return CaseReport(_CASES[less], profile.subleading, less)


@dataclass(frozen=True)
class BoundCertificate:
    """Exact witness that |num(n)/den(n)| > 1 - h/n for every n past `valid_from`.

    The cleared inequality n*num(n) - (n-h)*den(n) > 0 has positive leading
    coefficient by the choice of h; past a Cauchy root bound the sign is
    locked, and likewise num and den are positive past their own bounds, so
    the absolute values drop.  valid_from is the max of the three bounds.
    """

    leading: object
    valid_from: int


def _monic(poly: PolynomialInN) -> PolynomialInN:
    """The polynomial divided by its leading coefficient, with Fraction coefficients."""
    lead = poly.leading
    return PolynomialInN(tuple(Fraction(exact_div(c, lead)) for c in poly.coeffs))


def _bound_certificate(num_m: PolynomialInN, den: PolynomialInN, h: int) -> BoundCertificate:
    n_poly = PolynomialInN((0, 1))
    cleared = n_poly * num_m - PolynomialInN((-h, 1)) * den
    if cleared.is_zero or cleared.leading <= 0:
        raise NotFoundWithin(f"cleared margin polynomial is not eventually positive for h = {h}")
    bound = max(h + 1, *(cauchy_bound(p.coeffs) for p in (cleared, num_m, den)))
    return BoundCertificate(cleared.leading, bound)


@dataclass(frozen=True)
class SweepResult:
    last_violation: int  # 0 when the bound holds on the whole range
    min_margin: float  # the exact minimum margin, rounded once to float
    rechecked: int  # indices decided


def _decide(system: RecurrenceSystem, i: int, h: int, n_lo: int, n_hi: int) -> SweepResult:
    """Decide |alpha_i(n) / c_i| > 1 - h/n for every n in [n_lo, n_hi], exactly.

    c_i = p / q, the ratio of lag i's leading coefficients, makes alpha_i / c_i
    the monic ratio.  With alpha_i(n) = A / g from cleared_steps the margin is
    (|A| q n - (n - h) g |p|) / (n g |p|), the least kept as an integer pair by
    cross-multiplying; G(n) != 0 at n >= 1, as no lag of k = 2 has a pole there.
    """
    fn = system.lags[i - 1]
    c = exact_div(fn.num.leading, fn.den.leading)
    q, p = c.denominator, abs(c.numerator)
    last_violation, num, den = 0, None, 1
    for n, (values, g) in zip(range(n_lo, n_hi + 1), cleared_steps(system, n_lo)):
        gap = abs(values[i - 1]) * q * n - (n - h) * g * p
        if gap <= 0:
            last_violation = n
        d = n * g * p
        if num is None or gap * den < num * d:
            num, den = gap, d
    return SweepResult(last_violation, float(Fraction(num, den)), n_hi - n_lo + 1)


@dataclass(frozen=True)
class ProofConstants:
    case: str
    h_lag1: int
    h_lag2: int
    N: int
    eps: object
    N_check: int
    N_eps: int  # part of N forced by h/n < eps
    cert_lag1: BoundCertificate
    cert_lag2: BoundCertificate
    sweep_lag1: SweepResult
    sweep_lag2: SweepResult
    verified: bool


def _smallest_h_less(num_sub, den_sub) -> int:
    # smallest positive integer h with (den_sub - num_sub) - h < 0
    return max(math.floor(den_sub - num_sub) + 1, 1)


def _require_exact(eps) -> None:
    if not is_exact(eps):
        raise InputError("proof constants are decided exactly: eps must be rational")


def find_proof_constants(system: RecurrenceSystem, eps=Fraction(1, 100),
                         N_check: int = 10 ** 5) -> ProofConstants:
    """Find (h, N) making |A_n| > 1 - h/n > 1 - eps for every n >= N.

    In the strictly-less cases h is forced by the sub-leading gap; in the
    greater-or-equal cases h = 1 suffices once n clears the relevant roots.
    Each lag's positivity certificate covers every n from its valid_from on,
    which must not exceed N_check, and every smaller n is decided in
    integers.  N is the smallest index past every violation and past the eps
    floor (n > h/eps), and must not exceed N_check either.  eps must be
    rational, like the system: nothing here is decided by a float comparison.
    """
    _require_exact(eps)
    if not (0 < eps < 1):
        raise InvalidParams("eps must lie in (0, 1)")
    report = classify_case(limit_profile(system))
    h1, h2 = (_smallest_h_less(*sub) if less else 1
              for sub, less in zip(report.subleading, report.strictly_less))
    cert1, cert2 = (_bound_certificate(_monic(fn.num), _monic(fn.den), h)
                    for fn, h in zip(system.lags, (h1, h2)))
    if max(cert1.valid_from, cert2.valid_from) > N_check:
        raise NotFoundWithin("certificate root bound exceeds the checked range")
    sweep1, sweep2 = (_decide(system, i, h, 1, cert.valid_from - 1)
                      for i, h, cert in ((1, h1, cert1), (2, h2, cert2)))

    h_max = max(h1, h2)
    N_eps = math.floor(Fraction(h_max) / eps) + 1
    N = max(sweep1.last_violation + 1, sweep2.last_violation + 1, N_eps, 2)
    if N > N_check:
        raise NotFoundWithin(f"no admissible N at or below N_check = {N_check}")
    verified = (sweep1.last_violation < N and sweep2.last_violation < N
                and N - h2 > 0 and N > Fraction(h_max) / eps)
    return ProofConstants(report.case, h1, h2, N, eps, N_check, N_eps,
                          cert1, cert2, sweep1, sweep2, bool(verified))


@dataclass(frozen=True)
class ConstantsVerification:
    ok: bool
    checked_lo: int
    checked_hi: int
    min_margin_lag1: float
    min_margin_lag2: float
    violations: int
    eps_floor_ok: bool
    ratio_bound_precondition_ok: bool
    tail_certified: bool


def verify_proof_constants(system: RecurrenceSystem, pc: ProofConstants,
                           n_lo: int | None = None, n_hi: int | None = None) -> ConstantsVerification:
    """Independent exact re-check of stored constants over an index window.

    Each lag's certificate is rebuilt from the stored h; the inequality is
    decided on [lo, min(hi, valid_from - 1)], always including lo, and the
    certificate covers the rest.  A lag with no certificate for its h has the
    whole window decided, and its tail is not certified.
    """
    lo = pc.N if n_lo is None else n_lo
    hi = pc.N_check if n_hi is None else n_hi
    if not 1 <= lo <= hi:
        raise InvalidParams("verification window must satisfy 1 <= lo <= hi")
    _require_exact(pc.eps)
    if system.k != 2:
        raise InvalidParams("proof constants are stated for three-term recurrences")
    sweeps, tail_ok = [], True
    for i, (fn, h) in enumerate(zip(system.lags, (pc.h_lag1, pc.h_lag2)), start=1):
        try:
            valid_from = _bound_certificate(_monic(fn.num), _monic(fn.den), h).valid_from
        except NotFoundWithin:
            valid_from = math.inf
        tail_ok = tail_ok and valid_from <= hi
        sweeps.append(_decide(system, i, h, lo, max(lo, min(hi, valid_from - 1))))
    s1, s2 = sweeps
    violations = sum(s.last_violation >= lo for s in sweeps)
    eps_floor_ok = bool(Fraction(max(pc.h_lag1, pc.h_lag2)) / pc.eps < pc.N)
    ratio_ok = pc.N - pc.h_lag2 > 0  # the Pochhammer bound needs N - h2 > 0
    ok = violations == 0 and eps_floor_ok and ratio_ok and tail_ok
    return ConstantsVerification(bool(ok), lo, hi, s1.min_margin, s2.min_margin,
                                 violations, bool(eps_floor_ok), bool(ratio_ok), bool(tail_ok))


def z_power_tail(z, h2: int, m: int, k_max: int, prec: int = DEFAULT_PRECISION):
    """(sum_{k=m}^{k_max} z^k / k^(h2/2), bound on the dropped remainder).

    z^k is carried as a running product at prec + 32 guard bits and rounded
    once per term, and k^(h2/2) is the integer k^(h2 // 2), times sqrt(k) when
    h2 is odd, so each term is within an ulp of z**k / k**(h2/2) at prec.
    The terms decrease, so once one leaves the rounded total unchanged no
    later term can move it: the loop stops there, and the sum is bit for bit
    the sum of all terms up to k_max at that precision.
    """
    if m < 1 or k_max < m or not isinstance(h2, int) or h2 < 0:
        raise InvalidParams("need 1 <= m <= k_max and an integer h2 >= 0")
    with mp.workprec(prec):
        zv = as_mp(z, prec)
        if not (0 < zv < 1):
            raise DomainError("z-power tail needs 0 < z < 1")
        half, odd = divmod(h2, 2)
        guard = prec + 32
        with mp.workprec(guard):
            zk = zv ** m
        # on raw mpf values, each step rounded to nearest as mpf arithmetic
        # would: sqrt(k) at prec, then times the integer k^(h2 // 2)
        zk, zt, rnd, total = zk._mpf_, zv._mpf_, round_nearest, fzero
        for k in range(m, k_max + 1):
            den = (mpf_mul_int(mpf_sqrt(from_int(k), prec, rnd), k ** half, prec, rnd)
                   if odd else from_int(k ** half))
            new = mpf_add(total, mpf_div(mpf_pos(zk, prec, rnd), den, prec, rnd), prec, rnd)
            if new == total:
                break
            total = new
            zk = mpf_mul(zk, zt, guard, rnd)
        total = mp.make_mpf(total)
        rem = zv ** (k_max + 1) / ((1 - zv) * mp.mpf(k_max + 1) ** (mp.mpf(h2) / 2))
        return total, rem


@dataclass(frozen=True)
class MinorantReport:
    value: object  # truncated lower-bound partial value
    value_closed: object  # closed-form route, None in the divergent regime
    growing: bool
    w: object
    regime: str  # "divergent" or "summable"
    regime_strict: bool  # eps/(1-eps)^(m+1) < eta strictly
    prefactor: object
    j_sum: object
    z_tail: object
    z_tail_remainder: object


_CLOSED_ROUTE_TERMS = 10 ** 6  # most terms of each Gauss series in the cross-check


def minorant_partial(N: int, h2: int, limits, eps=Fraction(1, 100), m: int = 2,
                     K=Fraction(1, 2), j_max: int = 64, k_max: int = 4096,
                     prec: int = DEFAULT_PRECISION,
                     allow_divergent: bool = False) -> MinorantReport:
    """Evaluate the explicit minorant of sum |c_n| r^n at the boundary.

    The minorant is prefactor * J * T with prefactor = (1-K) eps / 2,

        J = sum_{j>=1} [Gamma((1+N+2m+j)/2) / Gamma((1+N+2m-h2+j)/2)] w^j,
        T = sum_{k>=m} z^k / k^(h2/2),      w = (1-eps)^(m+1) eta / eps,

    where eta = |L_1| r* and z = |L_2| r*^2 are the boundary weights of the
    rational lag limits (L_1, L_2), taken at the closed-form r*.  J also
    collapses to two Gauss series in w^2 (even and odd j split); that closed
    route is returned alongside for cross-checking when w < 1 and both
    series reach their tolerance within _CLOSED_ROUTE_TERMS terms (None
    otherwise; a w^2 too near 1 for that is skipped without summing).  When
    w >= 1 the j-series grows without bound: that is the regime the
    divergence argument needs, and it is reported, not silently summed, so
    the call raises unless allow_divergent is set.

    The regime is decided exactly from the rational eps and limits: with
    c = eps/(1-eps)^(m+1), w >= 1 iff eta >= c iff sum_i |L_i| (c/|L_1|)^i
    <= 1, since the sum increases in r and is 1 at r*; regime_strict is the
    strict form.  w is still rendered from mpmath.
    """
    if not (N - h2 > 0):
        raise DomainError(f"need N - h2 > 0, got N = {N}, h2 = {h2}")
    if m < 1 or j_max < 4 or k_max < m:
        raise InvalidParams("need m >= 1, j_max >= 4, k_max >= m")
    if len(limits) != 2:
        raise InvalidParams(f"the minorant takes two lag limits, got {len(limits)}")
    if not (is_exact(eps) and all(is_exact(L) for L in limits)):
        raise InputError("the minorant's regime is decided exactly: eps and the limits must be rational")
    eta_v, z_v = eta_z(limits, boundary_radius(limits, prec), prec)
    with mp.workprec(prec):
        eps_v, K_v = as_mp(eps, prec), as_mp(K, prec)
        # eta_v and z_v are exactly 0 when L_1 or L_2 is, so this refuses those
        if not (0 < eta_v < 1 and 0 < z_v < 1):
            raise DomainError("minorant needs 0 < eta < 1 and 0 < z < 1")
        if not (0 < eps_v < 1 and 0 < K_v < 1):
            raise InvalidParams("need 0 < eps < 1 and 0 < K < 1")
        w = (1 - eps_v) ** (m + 1) * eta_v / eps_v
        c = Fraction(eps) / (1 - Fraction(eps)) ** (m + 1)
        total = exact_membership_sum(limits, c / abs(Fraction(limits[0])))
        divergent, regime_strict = total <= 1, total < 1
        if divergent and not allow_divergent:
            raise DomainError(
                f"w = {mp.nstr(w, 8)} >= 1: the j-series diverges (this is the "
                f"divergence regime); pass allow_divergent to get partial sums"
            )
        c0 = 1 + N + 2 * m
        lg = mp.loggamma
        # g_i = Gamma((c0 + i)/2) / Gamma((c0 - h2 + i)/2); the j-th term is
        # g_j w^j, and g_{j+2} = g_j (c0 + j) / (c0 - h2 + j)
        g0 = mp.exp(lg(mp.mpf(c0) / 2) - lg(mp.mpf(c0 - h2) / 2))
        g1 = mp.exp(lg(mp.mpf(c0 + 1) / 2) - lg(mp.mpf(c0 + 1 - h2) / 2))
        w2 = w * w
        terms = [g1 * w, g0 * w2 * c0 / (c0 - h2)]
        for j in range(1, j_max - 1):
            terms.append(terms[j - 1] * w2 * (c0 + j) / (c0 - h2 + j))
        j_sum = mp.mpf(0)
        for t in terms:
            j_sum += t
        growing = bool(terms[-1] > terms[len(terms) // 2])
        z_tail, z_rem = z_power_tail(z_v, h2, m, k_max, prec)
        prefactor = (1 - K_v) * eps_v / 2
        value = prefactor * j_sum * z_tail
        value_closed = None
        x, tol, cap = w2, mp.mpf(2) ** (8 - prec), _CLOSED_ROUTE_TERMS
        # with h2 >= 0 the k-th term of each 2F1(1, b; b - h2/2; x) is at
        # least x^k, so when x^cap > e tol (e covers the sums' rounding)
        # neither can reach tol within cap terms: the capped sums would
        # drop the cross-check anyway
        if not divergent and (h2 < 0 or cap * mp.log(x) <= mp.log(tol) + 1):
            f1, ok1 = hyp2f1_series(
                Hyp2F1Params(1, Fraction(c0, 2), Fraction(c0 - h2, 2)), x, tol, cap, prec)
            f2, ok2 = hyp2f1_series(
                Hyp2F1Params(1, Fraction(c0 + 1, 2), Fraction(c0 + 1 - h2, 2)), x, tol, cap, prec)
            if ok1 and ok2:
                value_closed = prefactor * (-g0 + g0 * f1 + w * g1 * f2) * z_tail
        return MinorantReport(value, value_closed, growing, w,
                              "divergent" if divergent else "summable",
                              regime_strict, prefactor, j_sum, z_tail, z_rem)
