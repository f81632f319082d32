"""Goodness, homogeneity, speciality and excellence for vertex-set pairs.

All predicates compare exact rationals with strict inequalities: a count
sitting exactly on a threshold fails both the low and the high clause.
Thresholds arrive as `Fraction`s; comparisons cross-multiply in integers so
the hot loops never allocate rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import config
from .errors import CapacityError, InputError
from .graphs import Graph, bits

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


def _require_nonempty(X: int, name: str) -> None:
    if X == 0:
        raise InputError(f"{name} must be nonempty")


def _below(count: int, size: int, eps: Fraction) -> bool:
    # count < eps * size, exactly
    return count * eps.denominator < eps.numerator * size


def _above(count: int, size: int, eps: Fraction) -> bool:
    # count > (1 - eps) * size
    return count * eps.denominator > (eps.denominator - eps.numerator) * size


def _check_eps(eps: Fraction) -> None:
    if eps <= 0:
        raise InputError("threshold must be positive")


def is_good_set(g: Graph, X: int, eps: Fraction) -> bool:
    """Every vertex sees either < eps|X| or > (1-eps)|X| members of X."""
    return good_set_violation(g, X, eps) is None


def good_set_violation(g: Graph, X: int, eps: Fraction) -> int | None:
    """First parameter b whose neighborhood in X lands in the middle band.

    A singleton X is good at every eps > 0 and is not scanned: a count of 0
    is below eps * 1 and a count of 1 is above (1 - eps) * 1.
    """
    _require_nonempty(X, "X")
    _check_eps(eps)
    g._check_set(X)
    size = X.bit_count()
    if size == 1:
        return None
    for b in range(g.n):
        count = (g.adj[b] & X).bit_count()
        if not (_below(count, size, eps) or _above(count, size, eps)):
            return b
    return None


def threshold_sets(
    g: Graph, X: int, Y: int, delta: Fraction, eps: Fraction
) -> tuple[int, int]:
    """(X0, Y1) with X0 = {a in X : |E(a,Y)| < delta|Y|} and
    Y1 = {b in Y : |E(X,b)| > (1-eps)|X|}."""
    _require_nonempty(X, "X")
    _require_nonempty(Y, "Y")
    g._check_set(X)
    g._check_set(Y)
    nx, ny = X.bit_count(), Y.bit_count()
    X0 = 0
    for a in bits(X):
        if _below((g.adj[a] & Y).bit_count(), ny, delta):
            X0 |= 1 << a
    Y1 = 0
    for b in bits(Y):
        if _above((g.adj[b] & X).bit_count(), nx, eps):
            Y1 |= 1 << b
    return X0, Y1


def homogeneity(g: Graph, X: int, Y: int, eps: Fraction) -> PairVerdict:
    _check_eps(eps)
    num, den = g.density_pair(X, Y)
    if num * eps.denominator < eps.numerator * den:
        kind = "homogeneous-low"
    elif num * eps.denominator > (eps.denominator - eps.numerator) * den:
        kind = "homogeneous-high"
    else:
        kind = "not-homogeneous"
    return PairVerdict(kind, Fraction(num, den), eps)


def is_homogeneous(g: Graph, X: int, Y: int, eps: Fraction) -> bool:
    return homogeneity(g, X, Y, eps).kind != "not-homogeneous"


def is_good_pair(g: Graph, X: int, Y: int, eps: Fraction) -> bool:
    """Both one-sided neighborhood fractions lopsided for every single vertex."""
    _require_nonempty(X, "X")
    _require_nonempty(Y, "Y")
    _check_eps(eps)
    g._check_set(X)
    g._check_set(Y)
    nx, ny = X.bit_count(), Y.bit_count()
    for a in bits(X):
        c = (g.adj[a] & Y).bit_count()
        if not (_below(c, ny, eps) or _above(c, ny, eps)):
            return False
    for b in bits(Y):
        c = (g.adj[b] & X).bit_count()
        if not (_below(c, nx, eps) or _above(c, nx, eps)):
            return False
    return True


def special_witness(g: Graph, X: int, Y: int, eps: Fraction) -> SpecialWitness | None:
    """Maximal witnessing subsets for eps-speciality, or None.

    The defining per-element conditions reference only X and Y, so the
    maximal candidate sets witness if and only if any sets do. The low side
    is tried first.
    """
    _require_nonempty(X, "X")
    _require_nonempty(Y, "Y")
    _check_eps(eps)
    g._check_set(X)
    g._check_set(Y)
    nx, ny = X.bit_count(), Y.bit_count()

    x_low = x_high = 0
    for a in bits(X):
        c = (g.adj[a] & Y).bit_count()
        if _below(c, ny, eps):
            x_low |= 1 << a
        if _above(c, ny, eps):
            x_high |= 1 << a
    y_low = y_high = 0
    for b in bits(Y):
        c = (g.adj[b] & X).bit_count()
        if _below(c, nx, eps):
            y_low |= 1 << b
        if _above(c, nx, eps):
            y_high |= 1 << b

    if _above(x_low.bit_count(), nx, eps) and _above(y_low.bit_count(), ny, eps):
        return SpecialWitness(x_low, y_low, "low")
    if _above(x_high.bit_count(), nx, eps) and _above(y_high.bit_count(), ny, eps):
        return SpecialWitness(x_high, y_high, "high")
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
    _require_nonempty(X, "X")
    _require_nonempty(Y, "Y")
    _check_eps(eps)
    if largeness is None:
        largeness = eps
    _check_eps(largeness)
    g._check_set(X)
    g._check_set(Y)
    nx, ny = X.bit_count(), Y.bit_count()
    x_ok = 0
    for a in bits(X):
        c = (g.adj[a] & Y).bit_count()
        if _below(c, ny, eps) or _above(c, ny, eps):
            x_ok |= 1 << a
    y_ok = 0
    for b in bits(Y):
        c = (g.adj[b] & X).bit_count()
        if _below(c, nx, eps) or _above(c, nx, eps):
            y_ok |= 1 << b
    return _above(x_ok.bit_count(), nx, largeness) and _above(
        y_ok.bit_count(), ny, largeness
    )


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
    _require_nonempty(X, "X")
    _check_eps(eps)
    _check_eps(delta)
    g._check_set(X)

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
    nx = X.bit_count()
    for Y in pool:
        if Y == 0:
            raise InputError("candidate sets must be nonempty")
        if not is_good_set(g, Y, delta):
            continue
        ny = Y.bit_count()
        X0 = 0
        for a in bits(X):
            if _below((g.adj[a] & Y).bit_count(), ny, delta):
                X0 |= 1 << a
        c = X0.bit_count()
        if not (_below(c, nx, eps) or _above(c, nx, eps)):
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
