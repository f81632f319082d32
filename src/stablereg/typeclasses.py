"""Neighborhood type classes and majority-vote definability.

Two vertices share a type class when their adjacency rows agree everywhere
off the two cells naming themselves; in an undirected graph this is an
equivalence. Each class carries a signature mask: the common answer to
"adjacent to b?" for every parameter b, with a member's own cell answered by
the remaining members (a clique pair's signature covers both endpoints).

The classes are the twin classes of `graphs.twin_classes`, which finds them
by hashing open and closed rows, not by comparing pairs.

Definability runs on the *class-patched* adjacency: vertex a answers
parameter a itself by its own class's signature bit, and every other
parameter by the real edge relation. Under patched adjacency every member
of a class has exactly the signature as its row, so each class is a
realized row and the inductive witness construction below never strands;
the emitted k-of-2k vote is evaluated with the same patched adjacency. The
construction keeps its parameter sets and recorded parameters as bit masks.
Bipartite (two-sided) types use literal rows, where no self cells exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .errors import InputError
from .graphs import Graph, bits, mask_of, twin_classes
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
    classes = [
        TypeClass(_class_signature(g, members), members)
        for v, members in enumerate(twin_classes(g.adj))
        if members & -members == 1 << v  # each class once, at its least member
    ]
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


def patched_rows(g: Graph, spectrum: TypeSpectrum | None = None) -> tuple[int, ...]:
    """Per-vertex class-patched adjacency; row of v equals v's class
    signature. `spectrum` is g's type spectrum, built here if not given."""
    if spectrum is None:
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
    g: Graph, k: int, cls: TypeClass, seed: int, spectrum: TypeSpectrum | None = None
) -> DefinabilityResult:
    """Run the inductive witness construction for a graph type class;
    `spectrum`, g's type spectrum if the caller has it, saves building it
    again."""
    if k < 1:
        raise InputError("stability parameter k must be at least 1")
    if cls.members == 0:
        raise InputError("type class has no realizers")
    rng = derive_rng(seed, "definability.graph")
    return _construct(g.full_mask, patched_rows(g, spectrum), g.full_mask, cls.signature, k, rng)


def _construct(
    candidates: int, rows: tuple[int, ...], params: int, sig: int, k: int, rng: Random
) -> DefinabilityResult:
    """Inductive construction of 2k vote witnesses.

    candidates: mask of the ids allowed as witnesses, each with rows[id] a
    mask over parameter positions; params: mask of the usable parameters;
    sig: the target answers on them.

    The "no" sets start from params & ~sig and the "yes" sets from sig; each
    witness adds every "no" set cut by its row and every "yes" set cut by the
    complement of its row, keeping only nonempty sets. The least member of
    every set is recorded, and each next witness is drawn uniformly from the
    candidates agreeing with sig on all recorded parameters. A new set holds
    only parameters where its newest witness disagrees with sig, none recorded
    yet, so the lists can double only at stages that record a new parameter.

    The construction as stated keeps one set per subset X of the stages,
    keyed by X; the lists hold the same sets, as every set made is new and
    none is looked up by X. Records commute and no witness is drawn between
    two records of a stage, so filtering once per stage leaves the same
    candidates, in the same order, for `rng.randrange`.
    """
    sig &= params
    no, yes = [params & ~sig], [sig]  # an empty start set records and cuts to nothing
    recorded = (no[0] & -no[0]) | (sig & -sig)
    qual = list(bits(candidates))
    chosen: list[int] = []
    for _ in range(2 * k):
        if not qual:
            raise InputError(
                "no element agrees with the class on the recorded parameters; "
                "the class is not realized in this relation"
            )
        a = qual[rng.randrange(len(qual))]
        chosen.append(a)
        row = rows[a]
        cut_no = [c for s in no if (c := s & row)]
        cut_yes = [c for s in yes if (c := s & ~row)]
        no += cut_no
        yes += cut_yes
        for s in cut_no + cut_yes:
            recorded |= s & -s
        qual = [b for b in qual if not (rows[b] ^ sig) & recorded]

    counts = [0] * len(rows)
    for a in chosen:
        for p in bits(rows[a] & params):
            counts[p] += 1
    defined = mask_of(p for p in bits(params) if counts[p] >= k)
    wrong = defined ^ sig
    if wrong:
        p = (wrong & -wrong).bit_length() - 1  # the first defect
        ladder = find_relation_ladder(Relation(len(rows), len(rows), rows), k)
        return DefinabilityDefect(k, tuple(chosen), p, counts[p], bool((sig >> p) & 1), ladder)
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
    rows = tuple(g.adj[v] & params if (side >> v) & 1 else 0 for v in range(g.n))
    return _construct(side, rows, params, cls.signature, k, derive_rng(seed, "definability.side"))


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
