"""Goodness, homogeneity, speciality and excellence for vertex-set pairs.

All predicates compare exact rationals with strict inequalities: a count
sitting exactly on a threshold fails both the low and the high clause.
Thresholds arrive as `Fraction`s. For eps = p/q and a set of size s, the
integer bounds of `cutoffs` are -(-p*s // q) and (q - p)*s // q, so the hot
loops compare plain ints and never allocate rationals.
Per call, a predicate checks its inputs once. `_check_pair` checks both sides
and every threshold, in the order its docstring gives, and returns each
threshold's numerator and denominator, read once. Each bound is computed
inline from them, and `_split`, the one lopsidedness loop, walks a set with
a lowest-bit loop over a local `adj`. Homogeneity checks its threshold, lets
`Graph.density_pair` check the sets and count, and compares that count with
p and q directly. Good sets, also the candidates that excellence tries,
share one scan of checked input. So a call on a tiny graph costs a
microsecond or two.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import config
from .errors import CapacityError, InputError
from .graphs import Graph

Side = str  # "low" | "high"


@dataclass(frozen=True)
class PairVerdict:
    """Homogeneity classification of an ordered set pair at threshold eps."""

    kind: str  # homogeneous-low | homogeneous-high | not-homogeneous
    density: Fraction
    threshold: Fraction


@dataclass(frozen=True)
class SpecialWitness:
    Xp: int
    Yp: int
    side: Side


def cutoffs(size: int, eps: Fraction) -> tuple[int, int]:
    """Integer bounds (lo, hi) such that, for every integer count c,
    c is low (c < eps * size) iff c < lo and high (c > (1 - eps) * size)
    iff c > hi.

    With eps = p/q: c < p size / q iff c < ceil(p size / q), and
    c > (q - p) size / q iff c > floor((q - p) size / q). Both bands hold at
    once when eps > 1/2; `band` gives the one verdict, and low wins. How far
    c lies inside a band, max(eps - c/size, c/size - (1 - eps)), equals
    |c/size - 1/2| + eps - 1/2 and is positive exactly when c is low or high.
    """
    p, q = eps.numerator, eps.denominator
    return -(-p * size // q), (q - p) * size // q


def parse_fraction(text: str) -> Fraction:
    """Parse "p/q" or "p"; decimal notation is rejected to keep thresholds exact."""
    text = text.strip()
    if "." in text:
        raise InputError(f"decimal thresholds are not accepted, write a fraction: {text!r}")
    try:
        if "/" in text:
            num_s, den_s = text.split("/", 1)
            return Fraction(int(num_s), int(den_s))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {text!r}") from exc


BANDS = ("low", "high", "fail")


def band(count, lo, hi):
    """Index into `BANDS` of a count against `cutoffs` bounds, low winning,
    on ints and elementwise on numpy arrays. The predicates in this module do
    not call it: the goodness scan, which excellence shares, keeps
    `lo <= c <= hi` inline, as a call per row of V costs about two thirds
    more; `_kind` compares the count with eps's numerator and denominator;
    `_split` keeps two flags, as `lopsided` reports members in both bands
    when eps > 1/2."""
    return (count >= lo) * (2 - (count > hi))


def margin(counts, size: int, eps: Fraction) -> Fraction:
    """min over c in counts of max(eps - c/size, c/size - (1 - eps)), from
    the count nearest size/2 (see `cutoffs`): positive exactly when every
    count is low or high. So for eps > 0, X is eps-good iff the margin of
    |N(b) & X| over b in V is positive."""
    return eps - Fraction(1, 2) + Fraction(min(abs(2 * c - size) for c in counts), 2 * size)


def lopsided(g: Graph, X: int, Y: int, eps: Fraction) -> tuple[int, int]:
    """(low, high): the members a of X with |E(a, Y)| < eps|Y|, and those
    with |E(a, Y)| > (1 - eps)|Y|. Inputs are checked as by the predicates."""
    p, q = _check_pair(g, X, Y, eps)
    size = Y.bit_count()
    return _split(g.adj, X, Y, -(-p * size // q), (q - p) * size // q)


def _split(adj: tuple[int, ...], X: int, Y: int, lo: int, hi: int) -> tuple[int, int]:
    """`lopsided` on checked sets, with its bounds `cutoffs(|Y|, eps)`
    already resolved: a count c is low when c < lo and high when c > hi."""
    low = high = 0
    while X:
        bit = X & -X
        c = (adj[bit.bit_length() - 1] & Y).bit_count()
        if c < lo:
            low |= bit
        if c > hi:
            high |= bit
        X ^= bit
    return low, high


def _check_pair(g: Graph, X: int, Y: int, eps: Fraction, *more: Fraction) -> tuple[int, ...]:
    """(p, q) of eps = p/q and then of each further threshold, once X and Y
    are nonempty, every threshold is positive and X and Y lie within V,
    checked in that order."""
    if X == 0:
        raise InputError("X must be nonempty")
    if Y == 0:
        raise InputError("Y must be nonempty")
    p = eps.numerator
    if p <= 0:
        raise InputError("threshold must be positive")
    ratios = p, eps.denominator
    for t in more:
        p = t.numerator
        if p <= 0:
            raise InputError("threshold must be positive")
        ratios += p, t.denominator
    # (X | Y) >> n is nonzero exactly when X or Y has a member outside V,
    # negative sets included
    if (X | Y) >> g.n:
        raise InputError("vertex set references vertices out of range")
    return ratios


def is_good_set(g: Graph, X: int, eps: Fraction) -> bool:
    """Every vertex sees either < eps|X| or > (1-eps)|X| members of X."""
    return good_set_violation(g, X, eps) is None


def good_set_violation(g: Graph, X: int, eps: Fraction) -> int | None:
    """First parameter b whose neighborhood in X lands in the middle band."""
    p, q = _check_pair(g, X, X, eps)
    return _violation(g.adj, X, p, q)


def _violation(adj: tuple[int, ...], X: int, p: int, q: int) -> int | None:
    """`good_set_violation` of a checked X at eps = p/q.

    A singleton X is good at every eps > 0 and is not scanned: a count of 0
    is below eps * 1 and a count of 1 is above (1 - eps) * 1. The scan stops
    at the first violation, which is why it does not build `lopsided` masks
    over all of V.
    """
    size = X.bit_count()
    if size == 1:
        return None
    lo, hi = -(-p * size // q), (q - p) * size // q
    for b, row in enumerate(adj):
        if lo <= (row & X).bit_count() <= hi:
            return b
    return None


def threshold_sets(
    g: Graph, X: int, Y: int, delta: Fraction, eps: Fraction
) -> tuple[int, int]:
    """(X0, Y1) with X0 = {a in X : |E(a,Y)| < delta|Y|} and
    Y1 = {b in Y : |E(X,b)| > (1-eps)|X|}."""
    dp, dq, p, q = _check_pair(g, X, Y, delta, eps)
    sx, sy = X.bit_count(), Y.bit_count()
    X0 = _split(g.adj, X, Y, -(-dp * sy // dq), (dq - dp) * sy // dq)[0]
    Y1 = _split(g.adj, Y, X, -(-p * sx // q), (q - p) * sx // q)[1]
    return X0, Y1


_KINDS = ("homogeneous-low", "homogeneous-high", "not-homogeneous")


def _kind(g: Graph, X: int, Y: int, eps: Fraction) -> tuple[str, int, int]:
    """(kind, edge pair count, |X||Y|) of the pair at eps = p/q; low wins.

    The threshold is checked before `density_pair` checks the sets. A count
    c over d pairs is low when c*q < p*d and high when c*q > (q - p)*d, the
    verdict of `band(c, *cutoffs(d, eps))`.
    """
    p = eps.numerator
    if p <= 0:
        raise InputError("threshold must be positive")
    q = eps.denominator
    num, den = g.density_pair(X, Y)
    scaled = num * q
    return _KINDS[0 if scaled < p * den else 1 if scaled > (q - p) * den else 2], num, den


def homogeneity(g: Graph, X: int, Y: int, eps: Fraction) -> PairVerdict:
    kind, num, den = _kind(g, X, Y, eps)
    return PairVerdict(kind, Fraction(num, den), eps)


def is_homogeneous(g: Graph, X: int, Y: int, eps: Fraction) -> bool:
    return _kind(g, X, Y, eps)[0] != "not-homogeneous"


def is_good_pair(g: Graph, X: int, Y: int, eps: Fraction) -> bool:
    """Both one-sided neighborhood fractions lopsided for every single vertex."""
    p, q = _check_pair(g, X, Y, eps)
    for A, B in ((X, Y), (Y, X)):
        size = B.bit_count()
        low, high = _split(g.adj, A, B, -(-p * size // q), (q - p) * size // q)
        if low | high != A:
            return False
    return True


def special_witness(g: Graph, X: int, Y: int, eps: Fraction) -> SpecialWitness | None:
    """Maximal witnessing subsets for eps-speciality, or None.

    The defining per-element conditions reference only X and Y, so the
    maximal candidate sets witness if and only if any sets do. The low side
    is tried first.
    """
    p, q = _check_pair(g, X, Y, eps)
    sx, sy = X.bit_count(), Y.bit_count()
    x_hi, y_hi = (q - p) * sx // q, (q - p) * sy // q
    x_low, x_high = _split(g.adj, X, Y, -(-p * sy // q), y_hi)
    y_low, y_high = _split(g.adj, Y, X, -(-p * sx // q), x_hi)
    for Xp, Yp, side in ((x_low, y_low, "low"), (x_high, y_high, "high")):
        if Xp.bit_count() > x_hi and Yp.bit_count() > y_hi:
            return SpecialWitness(Xp, Yp, side)
    return None


def is_special(g: Graph, X: int, Y: int, eps: Fraction) -> bool:
    return special_witness(g, X, Y, eps) is not None


def is_almost_good(
    g: Graph, X: int, Y: int, eps: Fraction, largeness: Fraction | None = None
) -> bool:
    """Good-pair condition relaxed to large subsets on both sides.

    `largeness` bounds the excluded fractions (subsets must exceed
    (1-largeness) of each side); it defaults to eps. Maximal candidate sets
    decide, as for speciality.
    """
    if largeness is None:
        largeness = eps
    p, q, lp, lq = _check_pair(g, X, Y, eps, largeness)
    for A, B in ((X, Y), (Y, X)):
        size = B.bit_count()
        low, high = _split(g.adj, A, B, -(-p * size // q), (q - p) * size // q)
        if (low | high).bit_count() <= (lq - lp) * A.bit_count() // lq:
            return False
    return True


@dataclass(frozen=True)
class ExcellenceReport:
    value: bool
    mode: str  # "exhaustive" | "candidates"
    counterexample: int | None  # the offending Y, when value is False


def excellence_report(
    g: Graph,
    X: int,
    eps: Fraction,
    delta: Fraction,
    candidates: list[int] | None = None,
) -> ExcellenceReport:
    """Excellence of X: eps-goodness plus a lopsided delta-threshold split
    against every delta-good set Y.

    Without an explicit candidate list every nonempty Y <= V is enumerated,
    which is only allowed up to the configured capacity bound; with a list,
    the verdict is relative to the candidates supplied.
    """
    p, q, dp, dq = _check_pair(g, X, X, eps, delta)

    if candidates is None:
        bound = config.capacity_bound("excellent")
        if g.n > bound:
            raise CapacityError(
                f"exhaustive excellence enumerates 2^{g.n} sets; bound is n <= {bound}"
            )
        pool = range(1, 1 << g.n)
        mode = "exhaustive"
    else:
        pool = candidates
        mode = "candidates"

    adj, n = g.adj, g.n
    if _violation(adj, X, p, q) is not None:
        return ExcellenceReport(False, mode, None)
    size = X.bit_count()
    lo, hi = -(-p * size // q), (q - p) * size // q
    for Y in pool:
        if Y == 0:
            raise InputError("candidate sets must be nonempty")
        if Y >> n:
            raise InputError("vertex set references vertices out of range")
        if _violation(adj, Y, dp, dq) is not None:
            continue
        s = Y.bit_count()
        if lo <= _split(adj, X, Y, -(-dp * s // dq), (dq - dp) * s // dq)[0].bit_count() <= hi:
            return ExcellenceReport(False, mode, Y)
    return ExcellenceReport(True, mode, None)


def is_excellent(
    g: Graph,
    X: int,
    eps: Fraction,
    delta: Fraction,
    candidates: list[int] | None = None,
) -> bool:
    return excellence_report(g, X, eps, delta, candidates).value
