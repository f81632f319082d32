"""Goodness, homogeneity, speciality and excellence for vertex-set pairs.

All predicates compare exact rationals with strict inequalities: a count
sitting exactly on a threshold fails both the low and the high clause.
Thresholds arrive as `Fraction`s; `cutoffs` turns one into a pair of integer
bounds per set size, so the hot loops compare plain ints and never allocate
rationals.
Per call, the kernel walks a set with an inline lowest-bit loop over a local
`adj`, checks thresholds by their numerator and ranges by `X >> n`, so a call
on a tiny graph costs a few microseconds.
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
    on ints and elementwise on numpy arrays. The goodness and excellence
    scans keep `lo <= c <= hi` inline, as a call per row of V costs about two
    thirds more, and `_split` keeps two flags: `lopsided` reports members in
    both bands when eps > 1/2."""
    return (count >= lo) * (2 - (count > hi))


def margin(counts, size: int, eps: Fraction) -> Fraction:
    """min over c in counts of max(eps - c/size, c/size - (1 - eps)), from
    the count nearest size/2 (see `cutoffs`): positive exactly when every
    count is low or high. So for eps > 0, X is eps-good iff the margin of
    |N(b) & X| over b in V is positive."""
    return eps - Fraction(1, 2) + Fraction(min(abs(2 * c - size) for c in counts), 2 * size)


def lopsided(g: Graph, X: int, Y: int, eps: Fraction) -> tuple[int, int]:
    """(low, high): the members a of X with |E(a, Y)| < eps|Y|, and those
    with |E(a, Y)| > (1 - eps)|Y|. Inputs are not validated."""
    lo, hi = cutoffs(Y.bit_count(), eps)
    return _split(g.adj, X, Y, lo, hi)


def _split(adj: tuple[int, ...], X: int, Y: int, lo: int, hi: int) -> tuple[int, int]:
    """`lopsided` with its bounds `cutoffs(|Y|, eps)` already resolved; the
    predicates call it directly, so each bound is resolved once per set size
    and call."""
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


def _check_eps(*thresholds: Fraction) -> None:
    for t in thresholds:
        if t.numerator <= 0:
            raise InputError("threshold must be positive")


def _check_pair(g: Graph, X: int, Y: int, *thresholds: Fraction) -> None:
    """Both sides nonempty and within V, every threshold positive."""
    if X == 0:
        raise InputError("X must be nonempty")
    if Y == 0:
        raise InputError("Y must be nonempty")
    _check_eps(*thresholds)
    g._check_set(X)
    g._check_set(Y)


def is_good_set(g: Graph, X: int, eps: Fraction) -> bool:
    """Every vertex sees either < eps|X| or > (1-eps)|X| members of X."""
    return good_set_violation(g, X, eps) is None


def good_set_violation(g: Graph, X: int, eps: Fraction) -> int | None:
    """First parameter b whose neighborhood in X lands in the middle band.

    A singleton X is good at every eps > 0 and is not scanned: a count of 0
    is below eps * 1 and a count of 1 is above (1 - eps) * 1. The scan stops
    at the first violation, which is why it does not build `lopsided` masks
    over all of V.
    """
    _check_pair(g, X, X, eps)
    size = X.bit_count()
    if size == 1:
        return None
    lo, hi = cutoffs(size, eps)
    for b, row in enumerate(g.adj):
        if lo <= (row & X).bit_count() <= hi:
            return b
    return None


def threshold_sets(
    g: Graph, X: int, Y: int, delta: Fraction, eps: Fraction
) -> tuple[int, int]:
    """(X0, Y1) with X0 = {a in X : |E(a,Y)| < delta|Y|} and
    Y1 = {b in Y : |E(X,b)| > (1-eps)|X|}."""
    _check_pair(g, X, Y, delta, eps)
    y_lo, y_hi = cutoffs(Y.bit_count(), delta)
    x_lo, x_hi = cutoffs(X.bit_count(), eps)
    return _split(g.adj, X, Y, y_lo, y_hi)[0], _split(g.adj, Y, X, x_lo, x_hi)[1]


def _kind(g: Graph, X: int, Y: int, eps: Fraction) -> tuple[str, int, int]:
    """(kind, edge pair count, |X||Y|) of the pair at eps; low wins."""
    _check_eps(eps)
    num, den = g.density_pair(X, Y)
    lo, hi = cutoffs(den, eps)
    kinds = ("homogeneous-low", "homogeneous-high", "not-homogeneous")
    return kinds[band(num, lo, hi)], num, den


def homogeneity(g: Graph, X: int, Y: int, eps: Fraction) -> PairVerdict:
    kind, num, den = _kind(g, X, Y, eps)
    return PairVerdict(kind, Fraction(num, den), eps)


def is_homogeneous(g: Graph, X: int, Y: int, eps: Fraction) -> bool:
    return _kind(g, X, Y, eps)[0] != "not-homogeneous"


def is_good_pair(g: Graph, X: int, Y: int, eps: Fraction) -> bool:
    """Both one-sided neighborhood fractions lopsided for every single vertex."""
    _check_pair(g, X, Y, eps)
    for A, B in ((X, Y), (Y, X)):
        lo, hi = cutoffs(B.bit_count(), eps)
        low, high = _split(g.adj, A, B, lo, hi)
        if low | high != A:
            return False
    return True


def special_witness(g: Graph, X: int, Y: int, eps: Fraction) -> SpecialWitness | None:
    """Maximal witnessing subsets for eps-speciality, or None.

    The defining per-element conditions reference only X and Y, so the
    maximal candidate sets witness if and only if any sets do. The low side
    is tried first.
    """
    _check_pair(g, X, Y, eps)
    x_lo, x_hi = cutoffs(X.bit_count(), eps)
    y_lo, y_hi = cutoffs(Y.bit_count(), eps)
    x_low, x_high = _split(g.adj, X, Y, y_lo, y_hi)
    y_low, y_high = _split(g.adj, Y, X, x_lo, x_hi)
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
    _check_pair(g, X, Y, eps, largeness)
    for A, B in ((X, Y), (Y, X)):
        lo, hi = cutoffs(B.bit_count(), eps)
        low, high = _split(g.adj, A, B, lo, hi)
        if (low | high).bit_count() <= cutoffs(A.bit_count(), largeness)[1]:
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
    _check_pair(g, X, X, eps, delta)

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

    if not is_good_set(g, X, eps):
        return ExcellenceReport(False, mode, None)
    lo, hi = cutoffs(X.bit_count(), eps)
    for Y in pool:
        if Y == 0:
            raise InputError("candidate sets must be nonempty")
        if not is_good_set(g, Y, delta):
            continue
        y_lo, y_hi = cutoffs(Y.bit_count(), delta)
        if lo <= _split(g.adj, X, Y, y_lo, y_hi)[0].bit_count() <= hi:
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
