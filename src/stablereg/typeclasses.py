"""Neighborhood type classes and majority-vote definability.

Two vertices share a type class when their adjacency rows agree everywhere
off the two cells naming themselves; in an undirected graph this is an
equivalence. Each class carries a signature mask: the common answer to
"adjacent to b?" for every parameter b, with a member's own cell answered by
the remaining members (a clique pair's signature covers both endpoints).

The classes come from hashing rows, not from comparing pairs. Distinct u, v
share a class iff adj[u] == adj[v] (non-adjacent twins: the rows have no
self cells, so equal rows leave u, v non-adjacent, and non-adjacent rows
agreeing off {u, v} agree on u and v too) or adj[u] | 1<<u == adj[v] | 1<<v
(adjacent twins: both closed rows hold u and v exactly when u and v are
adjacent). No vertex has twins of both kinds: were v a non-adjacent and w
an adjacent twin of u, then w would not see v (the rows of u and w agree at
v, and u does not see v) while v would see w (the rows of u and v agree at
w, and u sees w). So a vertex's class is its group of equal open rows if
that group has a second member, and its group of equal closed rows
otherwise.

Definability runs on the *class-patched* adjacency: vertex a answers
parameter a itself by its own class's signature bit, and every other
parameter by the real edge relation. Under patched adjacency every member
of a class has exactly the signature as its row, so each class is a
realized row and the inductive witness construction below never strands;
the emitted k-of-2k vote is evaluated with the same patched adjacency.
Bipartite (two-sided) types use literal rows, where no self cells exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .errors import InputError
from .graphs import Graph, bits, mask_of
from .rng import derive_rng, derive_seed
from .stability import Ladder, Relation, find_relation_ladder


@dataclass(frozen=True)
class TypeClass:
    signature: int
    members: int

    @property
    def size(self) -> int:
        return self.members.bit_count()


@dataclass(frozen=True)
class TypeSpectrum:
    n: int
    classes: tuple[TypeClass, ...]

    def masses(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c.size, self.n) for c in self.classes)

    def class_of(self, v: int) -> TypeClass:
        if v < 0:
            raise InputError(f"vertex {v} out of range")
        for c in self.classes:
            if (c.members >> v) & 1:
                return c
        raise InputError(f"vertex {v} out of range")


def type_spectrum(g: Graph) -> TypeSpectrum:
    """Partition of V into type classes, ordered by decreasing mass then
    least member."""
    open_rows: dict[int, int] = {}
    closed_rows: dict[int, int] = {}
    for v, row in enumerate(g.adj):
        bit = 1 << v
        open_rows[row] = open_rows.get(row, 0) | bit
        closed_rows[row | bit] = closed_rows.get(row | bit, 0) | bit
    classes: list[TypeClass] = []
    for v, row in enumerate(g.adj):
        bit = 1 << v
        members = open_rows[row]
        if members == bit:
            members = closed_rows[row | bit]
        if members & -members == bit:  # each class once, at its least member
            classes.append(TypeClass(_class_signature(g, members), members))
    classes.sort(key=lambda c: (-c.size, (c.members & -c.members).bit_length()))
    return TypeSpectrum(g.n, tuple(classes))


def _class_signature(g: Graph, members: int) -> int:
    m0 = (members & -members).bit_length() - 1
    sig = g.adj[m0]
    rest = members & ~(1 << m0)
    if rest:
        m1 = (rest & -rest).bit_length() - 1
        if (g.adj[m1] >> m0) & 1:
            sig |= 1 << m0
    return sig


def patched_rows(g: Graph) -> tuple[int, ...]:
    """Per-vertex class-patched adjacency; row of v equals v's class signature."""
    spectrum = type_spectrum(g)
    rows = [0] * g.n
    for cls in spectrum.classes:
        for v in bits(cls.members):
            rows[v] = cls.signature
    return tuple(rows)


# ---------------------------------------------------------------------------
# Majority-vote definability


@dataclass(frozen=True)
class DefinabilityWitnesses:
    """2k vote witnesses; parameter b is answered yes iff at least k of them
    are (patched-)adjacent to b. `defined_mask` collects the yes answers."""

    k: int
    witnesses: tuple[int, ...]
    defined_mask: int
    vote_counts: tuple[int, ...]


@dataclass(frozen=True)
class DefinabilityDefect:
    """The vote failed to reproduce the signature at `parameter`.

    On a k-stable relation this cannot happen, so a defect doubles as an
    instability certificate; `ladder` holds a length-k ladder when the
    cross-check finds one.
    """

    k: int
    witnesses: tuple[int, ...]
    parameter: int
    vote_count: int
    expected: bool
    ladder: Ladder | None


DefinabilityResult = DefinabilityWitnesses | DefinabilityDefect


def definability_witnesses(
    g: Graph, k: int, cls: TypeClass, seed: int
) -> DefinabilityResult:
    """Run the inductive witness construction for a graph type class."""
    if k < 1:
        raise InputError("stability parameter k must be at least 1")
    if cls.members == 0:
        raise InputError("type class has no realizers")
    rows = patched_rows(g)
    ids = list(range(g.n))
    rng = derive_rng(seed, "definability.graph")
    return _construct(ids, rows, list(range(g.n)), cls.signature, k, rng, g.n)


def _construct(
    candidates: list[int],
    rows: tuple[int, ...] | list[int],
    parameters: list[int],
    sig: int,
    k: int,
    rng: Random,
    width: int,
) -> DefinabilityResult:
    """Inductive construction of 2k vote witnesses.

    candidates: element ids allowed as witnesses (each with rows[id] a mask
    over parameter bit positions); parameters: usable parameter positions;
    sig: the target answers on those positions.

    Stage n keeps, for every subset X of the chosen indices, one parameter
    witnessing that the target answers "no" while all of X answered "yes"
    (and dually). Each next witness is drawn uniformly from the elements
    agreeing with the target on every parameter recorded so far.
    """
    param_mask = mask_of(parameters)
    sig &= param_mask
    not_sig = param_mask & ~sig

    chosen: list[int] = []
    # candidate parameter masks per subset of chosen indices (bitmask over stages)
    i_cand: dict[int, int] = {}
    j_cand: dict[int, int] = {}
    recorded: list[int] = []  # parameters entered into D, in discovery order
    recorded_mask = 0
    qual = list(candidates)

    def record(p: int) -> None:
        nonlocal qual, recorded_mask
        if (recorded_mask >> p) & 1:
            return
        recorded_mask |= 1 << p
        recorded.append(p)
        want = (sig >> p) & 1
        qual = [a for a in qual if ((rows[a] >> p) & 1) == want]

    for stage in range(2 * k):
        if not qual:
            raise InputError(
                "no element agrees with the class on the recorded parameters; "
                "the class is not realized in this relation"
            )
        a = qual[rng.randrange(len(qual))]
        chosen.append(a)
        row = rows[a]
        bit = 1 << stage
        new_i: dict[int, int] = {}
        new_j: dict[int, int] = {}
        if stage == 0:
            new_i[0] = not_sig
            new_j[0] = sig
        for sub, cand in list(i_cand.items()):
            new_i[sub | bit] = cand & row
        for sub, cand in list(j_cand.items()):
            new_j[sub | bit] = cand & ~row
        if stage == 0:
            new_i[bit] = not_sig & row
            new_j[bit] = sig & ~row
        # An empty candidate mask stays empty at every later stage, so only
        # nonempty ones are kept. A new nonempty mask holds only parameters not
        # yet recorded (witnesses agree with sig on recorded ones) and records
        # one, so the masks kept can double only at stages that record a new
        # parameter, not at each of the 2k stages.
        for sub, cand in new_i.items():
            if cand:
                i_cand[sub] = cand
                record((cand & -cand).bit_length() - 1)
        for sub, cand in new_j.items():
            if cand:
                j_cand[sub] = cand
                record((cand & -cand).bit_length() - 1)

    counts = []
    defined = 0
    defect: tuple[int, int, bool] | None = None
    for p in range(width):
        if not (param_mask >> p) & 1:
            counts.append(0)
            continue
        c = sum((rows[a] >> p) & 1 for a in chosen)
        counts.append(c)
        yes = c >= k
        if yes:
            defined |= 1 << p
        if defect is None and yes != bool((sig >> p) & 1):
            defect = (p, c, bool((sig >> p) & 1))

    if defect is not None:
        p, c, expected = defect
        rel = Relation(len(rows), width, tuple(rows))
        ladder = find_relation_ladder(rel, k)
        return DefinabilityDefect(k, tuple(chosen), p, c, expected, ladder)
    return DefinabilityWitnesses(k, tuple(chosen), defined, tuple(counts))


# ---------------------------------------------------------------------------
# Two-sided (bipartite) types and the definition-membership symmetry check


def side_types(g: Graph, side: int, params: int) -> tuple[TypeClass, ...]:
    """Classes of `side` vertices by their literal rows into `params`."""
    if side == 0 or params == 0:
        raise InputError("both sides must be nonempty")
    if side & params:
        raise InputError("sides must be disjoint")
    groups: dict[int, int] = {}
    for v in bits(side):
        row = g.adj[v] & params
        groups[row] = groups.get(row, 0) | (1 << v)
    classes = [TypeClass(sig, members) for sig, members in groups.items()]
    classes.sort(key=lambda c: (-c.size, (c.members & -c.members).bit_length()))
    return tuple(classes)


def side_definability_witnesses(
    g: Graph, side: int, params: int, k: int, cls: TypeClass, seed: int
) -> DefinabilityResult:
    """Witness construction for a class of `side` over parameters `params`."""
    if k < 1:
        raise InputError("stability parameter k must be at least 1")
    rng = derive_rng(seed, "definability.side")
    return _construct(
        list(bits(side)),
        tuple(g.adj[v] & params if (side >> v) & 1 else 0 for v in range(g.n)),
        list(bits(params)),
        cls.signature,
        k,
        rng,
        g.n,
    )


@dataclass(frozen=True)
class HarringtonResult:
    agree: bool
    psi_in_q: bool
    theta_in_p: bool
    p_result: DefinabilityResult
    q_result: DefinabilityResult

    def __bool__(self) -> bool:
        return self.agree


def harrington_check(
    g: Graph, L: int, R: int, k: int, p: TypeClass, q: TypeClass, seed: int
) -> HarringtonResult:
    """Build defining votes for p (over L) and q (over R) and test that
    "the definition of p holds of q" agrees with "the definition of q holds
    of p". On a k-stable two-sided relation the two memberships always
    agree; a disagreement is returned with the full transcript.
    """
    if L == 0 or R == 0:
        raise InputError("both sides must be nonempty")
    if L & R:
        raise InputError("sides must be disjoint")
    if (L | R) != g.full_mask:
        raise InputError("sides must partition the vertex set")
    if p.members & ~L or q.members & ~R:
        raise InputError("p must live on the left side and q on the right")

    pr = side_definability_witnesses(g, L, R, k, p, derive_seed(seed, "hc.p"))
    qr = side_definability_witnesses(g, R, L, k, q, derive_seed(seed, "hc.q"))
    if isinstance(pr, DefinabilityDefect) or isinstance(qr, DefinabilityDefect):
        return HarringtonResult(False, False, False, pr, qr)

    # psi (p's definition, a vote over L-elements) evaluated at q's signature,
    # i.e. at a generic realizer of q; dually for theta.
    psi_in_q = sum((q.signature >> a) & 1 for a in pr.witnesses) >= k
    theta_in_p = sum((p.signature >> b) & 1 for b in qr.witnesses) >= k
    return HarringtonResult(psi_in_q == theta_in_p, psi_in_q, theta_in_p, pr, qr)
