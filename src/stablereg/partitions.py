"""Partition construction and certification: type-mass partitions, searched
good partitions, equipartition refinement with a shrinking error function,
and the end-to-end regularity verifier.

Everything is exact: thresholds are rationals, sizes are integers, and every
claim a constructor makes is re-checkable by `verify_regularity` from the
graph alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

import numpy as np

from . import config
from .errors import CapacityError, InputError, PreconditionError
from .graphs import Graph, bits, mask_of, vertex_list
from .pairs import cutoffs, good_set_violation, is_good_set
from .typeclasses import type_spectrum


# ---------------------------------------------------------------------------
# Error functions sigma: N -> (0,1)


@dataclass(frozen=True)
class ErrorFunction:
    """Total map from part counts to thresholds in (0,1), in exact rationals.

    Forms: const(c); inverse(c) = c/(m+1); inverse_square(c) = c/(m+1)^2;
    table(v0,...,vN) with constant tail vN.
    """

    kind: str
    c: Fraction | None = None
    table: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        if self.kind in ("const", "inverse", "inverse_square"):
            if self.c is None or not 0 < self.c < 1:
                raise InputError(f"{self.kind} parameter must lie strictly in (0,1)")
        elif self.kind == "table":
            if not self.table:
                raise InputError("table form needs at least one value")
            for v in self.table:
                if not 0 < v < 1:
                    raise InputError("table values must lie strictly in (0,1)")
        else:
            raise InputError(f"unknown error-function form {self.kind!r}")

    def __call__(self, m: int) -> Fraction:
        if m < 0:
            raise InputError("error functions are defined on nonnegative integers")
        if self.kind == "const":
            return self.c
        if self.kind == "inverse":
            return self.c / (m + 1)
        if self.kind == "inverse_square":
            return self.c / ((m + 1) * (m + 1))
        return self.table[min(m, len(self.table) - 1)]

    def is_decreasing(self, upto: int) -> bool:
        """Weak monotonicity on 0..upto: sigma(i) >= sigma(i+1) for i < upto.

        Decided in closed form. `__post_init__` pins c to (0,1), so const(c)
        is constant and inverse(c), inverse_square(c) divide a fixed positive
        c by denominators that grow with m: all three decrease everywhere. A
        table is constant from its last entry on, so only adjacent entries
        with i < min(upto, len(table) - 1) can rise.
        """
        if self.kind != "table":
            return True
        last = min(upto, len(self.table) - 1)
        return all(self.table[i] >= self.table[i + 1] for i in range(last))

    def running_minimum(self, upto: int) -> "ErrorFunction":
        """Pointwise running minimum on 0..upto, as a table with constant tail."""
        values: list[Fraction] = []
        cur: Fraction | None = None
        for i in range(upto + 1):
            v = self(i)
            cur = v if cur is None or v < cur else cur
            values.append(cur)
        return ErrorFunction("table", table=tuple(values))

    def describe(self) -> str:
        if self.kind == "table":
            return "table(" + ",".join(str(v) for v in self.table) + ")"
        return f"{self.kind}({self.c})"

    @staticmethod
    def parse(spec: str) -> "ErrorFunction":
        text = spec.strip().replace(" ", "")
        if "(" not in text:
            return ErrorFunction("const", parse_fraction(text))
        if not text.endswith(")"):
            raise InputError(f"bad error-function spec {spec!r}")
        name, body = text[:-1].split("(", 1)
        if name == "table":
            return ErrorFunction(
                "table", table=tuple(parse_fraction(v) for v in body.split(","))
            )
        if name in ("const", "inverse", "inverse_square"):
            return ErrorFunction(name, parse_fraction(body))
        raise InputError(f"unknown error-function form {name!r}")


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


# ---------------------------------------------------------------------------
# Partitions


@dataclass(frozen=True)
class Partition:
    """Ordered parts plus a (possibly empty) exceptional block covering V."""

    n: int
    exceptional: int
    parts: tuple[int, ...]
    params: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InputError(f"partition vertex count must be nonnegative, got {self.n}")
        union = self.exceptional
        total = self.exceptional.bit_count()
        for part in self.parts:
            if part == 0:
                raise InputError("parts must be nonempty")
            if part & union:
                raise InputError("partition blocks overlap")
            union |= part
            total += part.bit_count()
        # the count first: it bounds n before 1 << n is built
        if total != self.n or union != (1 << self.n) - 1:
            raise InputError("partition must cover all vertices exactly once")

    @property
    def m(self) -> int:
        return len(self.parts)

    def exceptional_fraction(self) -> Fraction:
        return Fraction(self.exceptional.bit_count(), self.n)


def partition_to_json(p: Partition) -> dict:
    return {
        "n": p.n,
        "exceptional": vertex_list(p.exceptional),
        "parts": [vertex_list(part) for part in p.parts],
        "params": {k: str(v) for k, v in p.params.items()},
    }


def _json_int(v) -> int:
    # int() would truncate 0.7 to 0 and read True as 1
    if type(v) is not int:
        raise TypeError(f"expected an integer, got {v!r}")
    return v


def _json_mask(vertices, n: int) -> int:
    """Mask of a JSON vertex list. Each vertex is checked against 0..n-1
    before it is shifted, so a huge one cannot allocate a huge int."""
    mask = 0
    for v in vertices:
        if not 0 <= _json_int(v) < n:
            raise ValueError(f"vertex {v} out of range for n={n}")
        mask |= 1 << v
    return mask


def partition_from_json(data: dict) -> Partition:
    try:
        n = _json_int(data["n"])
        exceptional = _json_mask(data["exceptional"], n)
        parts = tuple(_json_mask(block, n) for block in data["parts"])
        params = dict(data.get("params", {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed partition JSON: {exc}") from exc
    return Partition(n, exceptional, parts, params)


def type_mass_partition(g: Graph, eps: Fraction) -> Partition:
    """Keep the heaviest type classes until their mass exceeds 1 - eps; pool
    the remainder into the exceptional block."""
    if not 0 < eps < 1:
        raise InputError("eps must lie strictly in (0,1)")
    spectrum = type_spectrum(g)
    need = Fraction(1) - eps
    total = Fraction(0)
    kept: list[int] = []
    pooled = 0
    for cls in spectrum.classes:
        if total > need:
            pooled |= cls.members
        else:
            kept.append(cls.members)
            total += Fraction(cls.size, g.n)
    params = {"epsilon": eps, "m": len(kept), "source": "type_mass"}
    return Partition(g.n, pooled, tuple(kept), params)


# ---------------------------------------------------------------------------
# Good-partition search


@dataclass(frozen=True)
class SearchResult:
    partition: Partition
    certified: bool
    mode: str


def good_partition_search(
    g: Graph, eps: Fraction, sigma: ErrorFunction, mode: str = "exact"
) -> SearchResult:
    if not 0 < eps < 1:
        raise InputError("eps must lie strictly in (0,1)")
    if mode == "exact":
        return _search_exact(g, eps, sigma)
    if mode == "greedy":
        return _search_greedy(g, eps, sigma)
    raise InputError(f"unknown search mode {mode!r}")


def _search_exact(g: Graph, eps: Fraction, sigma: ErrorFunction) -> SearchResult:
    """First certificate in (m ascending, exceptional by (size, mask),
    canonical block order); the certified part count is therefore minimal.

    Singleton parts are good at every positive threshold, so some candidate
    always succeeds and the search terminates with a certificate.
    """
    bound = config.capacity_bound("partition")
    if g.n > bound:
        raise CapacityError(
            f"exact search enumerates set partitions; bound is n <= {bound}"
        )
    full = g.full_mask
    n = g.n
    max_exc = cutoffs(n, eps)[0] - 1  # largest |X0| with |X0| < eps*n

    exceptional_choices: list[int] = [0]
    for size in range(1, max_exc + 1):
        exceptional_choices.extend(sorted(_subsets_of_size(full, size)))

    for m in range(1, n + 1):
        gamma = sigma(m)
        good_cache: dict[int, bool] = {}

        def good(block: int) -> bool:
            hit = good_cache.get(block)
            if hit is None:
                hit = is_good_set(g, block, gamma)
                good_cache[block] = hit
            return hit

        for exc in exceptional_choices:
            rest = full & ~exc
            if rest.bit_count() < m:
                continue
            blocks = _first_good_partition(g, rest, m, good)
            if blocks is not None:
                params = {
                    "epsilon": eps,
                    "sigma": sigma.describe(),
                    "m": m,
                    "sigma_at_m": gamma,
                    "source": "search_exact",
                }
                return SearchResult(Partition(n, exc, tuple(blocks), params), True, "exact")
    raise AssertionError("singleton partition must certify")


def _first_good_partition(g: Graph, rest: int, m: int, good) -> list[int] | None:
    """First partition of `rest` into exactly m good blocks, in the canonical
    order: the block containing the least uncovered vertex ranges over its
    supersets in ascending mask order."""
    out: list[int] = []

    def rec(remaining: int, blocks_left: int) -> bool:
        if blocks_left == 0:
            return remaining == 0
        if remaining == 0 or remaining.bit_count() < blocks_left:
            return False
        low = remaining & -remaining
        others = remaining ^ low
        # ascending mask order over subsets containing `low`
        sub = 0
        while True:
            block = sub | low
            if remaining.bit_count() - block.bit_count() >= blocks_left - 1 and good(block):
                out.append(block)
                if rec(remaining & ~block, blocks_left - 1):
                    return True
                out.pop()
            if sub == others:
                return False
            sub = (sub - others) & others

    return out if rec(rest, m) else None


def _subsets_of_size(mask: int, size: int) -> Iterable[int]:
    verts = vertex_list(mask)

    def rec(start: int, left: int) -> Iterable[int]:
        if left == 0:
            yield 0
            return
        for i in range(start, len(verts) - left + 1):
            for rest in rec(i + 1, left - 1):
                yield rest | (1 << verts[i])

    return rec(0, size)


def _search_greedy(g: Graph, eps: Fraction, sigma: ErrorFunction) -> SearchResult:
    """Start from the type-mass partition and merge part pairs whose union is
    good at the reduced count, preferring merges that maximize the minimum
    slack; ties break on part indices."""
    base = type_mass_partition(g, eps)
    parts = list(base.parts)

    def slack(block: int, gamma: Fraction) -> Fraction:
        size = block.bit_count()
        worst: Fraction | None = None
        for b in range(g.n):
            c = (g.adj[b] & block).bit_count()
            margin = max(gamma - Fraction(c, size), Fraction(c, size) - (1 - gamma))
            if worst is None or margin < worst:
                worst = margin
        return worst

    def state_score(blocks: list[int], gamma: Fraction) -> tuple[int, Fraction]:
        # lexicographically smaller is better: fewer bad parts, then more slack
        bad = sum(1 for blk in blocks if not is_good_set(g, blk, gamma))
        return bad, -min(slack(blk, gamma) for blk in blocks)

    best_blocks = list(parts)
    best_score = state_score(parts, sigma(len(parts)))

    while len(parts) > 1:
        gamma_now = sigma(len(parts))
        if all(is_good_set(g, blk, gamma_now) for blk in parts):
            break
        gamma_next = sigma(len(parts) - 1)
        candidates: list[tuple[Fraction, int, int]] = []
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                union = parts[i] | parts[j]
                if is_good_set(g, union, gamma_next):
                    merged = [p for t, p in enumerate(parts) if t not in (i, j)]
                    merged.append(union)
                    candidates.append((min(slack(b, gamma_next) for b in merged), i, j))
        if not candidates:
            break
        candidates.sort(key=lambda t: (-t[0], t[1], t[2]))
        _, i, j = candidates[0]
        union = parts[i] | parts[j]
        parts = [p for t, p in enumerate(parts) if t not in (i, j)] + [union]
        score = state_score(parts, sigma(len(parts)))
        if score < best_score:
            best_score, best_blocks = score, list(parts)

    gamma = sigma(len(parts))
    certified = all(is_good_set(g, blk, gamma) for blk in parts)
    if not certified:
        final_score = state_score(parts, gamma)
        if best_score < final_score:
            parts = best_blocks
            gamma = sigma(len(parts))
            certified = all(is_good_set(g, blk, gamma) for blk in parts)
    params = {
        "epsilon": eps,
        "sigma": sigma.describe(),
        "m": len(parts),
        "sigma_at_m": sigma(len(parts)),
        "source": "search_greedy",
        "certified": certified,
    }
    return SearchResult(
        Partition(g.n, base.exceptional, tuple(parts), params), certified, "greedy"
    )


# ---------------------------------------------------------------------------
# Equipartition refinement


def goodness_scale(eps: Fraction, sigma: ErrorFunction, m: int) -> tuple[Fraction, int]:
    """(tau(m), N) with N = floor(2 m^2 / eps) and
    tau(m) = eps * sigma(N)^2 / (8 m)."""
    if m < 1:
        raise InputError("part count must be positive")
    N = (2 * m * m * eps.denominator) // eps.numerator
    s = sigma(N)
    return eps * s * s / (8 * m), N


def check_refine_precondition(
    g: Graph, base: Partition, eps: Fraction, sigma: ErrorFunction
) -> tuple[bool, str | None]:
    """Check mass(X0) < eps/2 and tau(m)-goodness of every part; returns
    (ok, reason-for-failure)."""
    sigma = _monotone(sigma, base.m, eps)[0]
    if base.exceptional_fraction() >= eps / 2:
        return False, "exceptional mass is not below eps/2"
    tau, _ = goodness_scale(eps, sigma, base.m)
    for i, part in enumerate(base.parts):
        b = good_set_violation(g, part, tau)
        if b is not None:
            return False, f"part {i} is not {tau}-good: parameter {b} lands mid-band"
    return True, None


def _monotone(
    sigma: ErrorFunction, m_max: int, eps: Fraction
) -> tuple[ErrorFunction, bool]:
    _, N = goodness_scale(eps, sigma, max(m_max, 1))
    if sigma.is_decreasing(N + 1):
        return sigma, False
    return sigma.running_minimum(N + 1), True


def equipartition_refine(
    g: Graph, base: Partition, eps: Fraction, sigma: ErrorFunction, check: bool = True
) -> Partition:
    """Cut every part into equal chunks of size ceil(eps |V| / 2m), pooling
    chunk remainders and the old exceptional block into the new one.

    Requires a base whose parts are tau(m)-good; with `check=False` the
    precondition is skipped and only the chunking mechanics run.
    """
    if not 0 < eps < 1:
        raise InputError("eps must lie strictly in (0,1)")
    if base.n != g.n:
        raise InputError("partition and graph disagree on the vertex count")
    if base.m < 1:
        raise InputError("base partition needs at least one part")
    sigma, monotonized = _monotone(sigma, base.m, eps)
    tau, N = goodness_scale(eps, sigma, base.m)
    if check:
        if base.exceptional_fraction() >= eps / 2:
            raise PreconditionError(
                "exceptional mass must be below eps/2 before refinement"
            )
        for i, part in enumerate(base.parts):
            b = good_set_violation(g, part, tau)
            if b is not None:
                raise PreconditionError(
                    f"base part {i} is not tau(m)-good (tau={tau}); "
                    f"parameter {b} lands mid-band"
                )

    m = base.m
    # chunk size ceil((eps / 2m) |V|)
    num = eps.numerator * g.n
    den = 2 * m * eps.denominator
    chunk = -(-num // den)
    new_exceptional = base.exceptional
    chunks: list[int] = []
    for part in base.parts:
        verts = vertex_list(part)
        t = len(verts) // chunk
        for idx in range(t):
            chunks.append(mask_of(verts[idx * chunk : (idx + 1) * chunk]))
        new_exceptional |= mask_of(verts[t * chunk :])

    n_parts = len(chunks)
    # at most |V| / chunk <= 2m/eps <= N chunks
    if n_parts > N:
        raise AssertionError("part count bound violated")
    # remainders add under eps|V|/2, so only an unchecked heavy X0 gets here
    if new_exceptional.bit_count() * eps.denominator > eps.numerator * g.n:
        raise PreconditionError("exceptional block exceeds eps |V| after refinement")
    params = {
        "epsilon": eps,
        "sigma": sigma.describe(),
        "sigma_monotonized": monotonized,
        "m": m,
        "tau": tau,
        "chunk_size": chunk,
        "n": n_parts,
        "source": "equipartition_refine",
    }
    return Partition(g.n, new_exceptional, tuple(chunks), params)


# ---------------------------------------------------------------------------
# Regularity verification


_PAIR_KINDS = np.array(("low", "high", "fail"), dtype=object)


def _pair_codes(g: Graph, parts: tuple[int, ...], sizes: list[int], gamma: Fraction):
    """Yield, part by part, the codes (0 low, 1 high, 2 fail) of row i of
    the ordered pair matrix, as an int array over the parts."""
    if not parts:
        return
    distinct, size_index = np.unique(sizes, return_inverse=True)
    xs = distinct.tolist()
    cuts = np.array([[cutoffs(x * y, gamma) for y in xs] for x in xs], dtype=np.int64)
    low_at, high_at = cuts[..., 0], cuts[..., 1]
    order = np.fromiter(
        (v for part in parts for v in bits(part)), dtype=np.intp, count=sum(sizes)
    )
    starts = np.cumsum([0] + sizes[:-1])
    nbytes = (g.n + 7) // 8
    for i, Xi in enumerate(parts):
        seen = np.zeros(g.n, dtype=np.int64)
        for a in bits(Xi):
            row = np.frombuffer(g.adj[a].to_bytes(nbytes, "little"), np.uint8)
            seen += np.unpackbits(row, count=g.n, bitorder="little")
        counts = np.add.reduceat(seen[order], starts)
        low = counts < low_at[size_index[i]][size_index]
        high = counts > high_at[size_index[i]][size_index]
        yield np.where(low, 0, np.where(high, 1, 2))


@dataclass(frozen=True)
class RegularityReport:
    n: int
    size_check: bool
    exceptional_fraction: Fraction
    exceptional_ok: bool
    sigma_value: Fraction
    pair_matrix: tuple[tuple[str, ...], ...]  # low | high | fail
    diagonal_failures: tuple[int, ...]
    off_diagonal_failures: tuple[tuple[int, int], ...]
    passed: bool


def verify_regularity(
    g: Graph, partition: Partition, eps: Fraction, sigma: ErrorFunction
) -> RegularityReport:
    """Evaluate every clause: coverage (checked by the Partition type),
    equal part sizes, exceptional mass at most eps, and low/high density for
    every ordered pair of parts, the diagonal included. The verdict gates on
    all of them; diagonal and off-diagonal failures are reported separately
    so either convention can be audited.

    The pair counts e(Xi, Yj) come one row i at a time: the adjacency rows
    of Xi's members are summed into one integer vector over V, which is then
    reduced part by part. With d = |Xi||Yj|, a count is low below and high
    above the integer bounds `pairs.cutoffs(d, gamma)`, ceil(gamma d) and
    floor((1 - gamma) d); low wins when both hold. The bounds are computed
    exactly in Python ints once per pair of distinct part sizes and never
    exceed d <= n^2, so the int64 comparisons are exact. Memory stays O(n)
    per row.
    """
    if partition.n != g.n:
        raise InputError("partition and graph disagree on the vertex count")
    n_parts = partition.m
    gamma = sigma(n_parts)
    sizes = [part.bit_count() for part in partition.parts]
    size_check = len(set(sizes)) <= 1
    exc_fraction = partition.exceptional_fraction()
    exceptional_ok = exc_fraction <= eps

    matrix: list[tuple[str, ...]] = []
    diag_fail: list[int] = []
    off_fail: list[tuple[int, int]] = []
    for i, codes in enumerate(_pair_codes(g, partition.parts, sizes, gamma)):
        matrix.append(tuple(_PAIR_KINDS[codes].tolist()))
        for j in np.flatnonzero(codes == 2).tolist():
            if i == j:
                diag_fail.append(i)
            else:
                off_fail.append((i, j))

    passed = size_check and exceptional_ok and not diag_fail and not off_fail
    return RegularityReport(
        n=n_parts,
        size_check=size_check,
        exceptional_fraction=exc_fraction,
        exceptional_ok=exceptional_ok,
        sigma_value=gamma,
        pair_matrix=tuple(matrix),
        diagonal_failures=tuple(diag_fail),
        off_diagonal_failures=tuple(off_fail),
        passed=passed,
    )


# ---------------------------------------------------------------------------
# End-to-end pipeline


@dataclass(frozen=True)
class PipelineResult:
    base: Partition
    repaired_base: Partition
    raw_precondition_ok: bool
    split_parts: tuple[int, ...]
    refined: Partition
    report: RegularityReport

    @property
    def passed(self) -> bool:
        return self.report.passed


def regularity_pipeline(g: Graph, eps: Fraction, sigma: ErrorFunction) -> PipelineResult:
    """type-mass partition -> goodness gate -> equipartition -> verification.

    The goodness gate enforces tau(m)-goodness of every part. Parts that
    fail are split into singletons (always good at any positive threshold)
    and the gate re-runs at the grown part count until it stabilizes, so the
    refinement precondition holds on every input; the raw first-try outcome
    is reported for auditability.
    """
    base = type_mass_partition(g, eps / 2)
    raw_ok, _ = check_refine_precondition(g, base, eps, sigma)
    mono_sigma = _monotone(sigma, g.n, eps)[0]

    parts = list(base.parts)
    split_log: list[int] = []
    while True:
        tau, _ = goodness_scale(eps, mono_sigma, max(len(parts), 1))
        bad = [i for i, part in enumerate(parts) if not is_good_set(g, part, tau)]
        if not bad:
            break
        split_log.extend(bad)
        new_parts: list[int] = []
        for i, part in enumerate(parts):
            if i in bad:
                new_parts.extend(1 << v for v in bits(part))
            else:
                new_parts.append(part)
        parts = new_parts

    repaired = Partition(
        g.n,
        base.exceptional,
        tuple(parts),
        {**base.params, "m": len(parts), "goodness_gate": "split-repaired"},
    )
    refined = equipartition_refine(g, repaired, eps, sigma, check=True)
    report = verify_regularity(g, refined, eps, sigma)
    return PipelineResult(base, repaired, raw_ok, tuple(split_log), refined, report)
