"""Cells of the reduced classifying-space model of the positive monoid.

A cell is a tuple of non-identity monoid elements [x_1|...|x_n]; its
dimension is n and its length is the length of the product.  The
simplicial faces drop the first factor, merge adjacent factors, or drop
the last factor, with the usual alternating signs.  Merging two
non-identity positive elements never yields the identity (length adds),
so every face is again a cell and no degeneracies ever materialize.

Dropping a factor lowers the total length while merging preserves it, so
length filters the complex; the length-preserving (merge-only) part of
the boundary is a differential on each fixed-length layer.  Merging also
keeps the product of the factors, so each layer splits further as a
direct sum over the elements x of that length of the complex of
factorizations of x.  Read through its suffix products x > ... > 1, a
factorization is a chain of the interval [1, x] of right divisors and a
merge deletes one inner entry, so the fiber of x is that interval's
complex (`homology.interval_complex`).  Its homology is that of the open
interval (1, x), which keeps its homology when beat points are removed
(`homology.poset_core`), so `fiber_complex` lists only the chains whose
inner entries lie in the core of (1, x): on A3 through length 8 that is
3,418 chains in place of 581,462 factorizations.  These fibers are what `homology --verify`
consumes, one at a time, and the matching audits read `factorizations`
for every cell; no whole layer of cells is ever listed (the test suite
keeps such an enumerator as an independent oracle for `factorizations`,
and the full fiber of all factorizations as one for `fiber_complex`).
"""

from __future__ import annotations

from .artin import ArtinMonoid
from .coxeter import Word
from .homology import (
    HomologyGroup,
    IntChainComplex,
    direct_sum,
    interval_complex,
    poset_core,
)

BarCell = tuple[Word, ...]


def cell_length(cell: BarCell) -> int:
    return sum(len(x) for x in cell)


def faces(mon: ArtinMonoid, cell: BarCell) -> list[tuple[int, BarCell]]:
    """All simplicial faces in order with signs +1, -1, +1, ..., (-1)^n."""
    n = len(cell)
    if n == 0:
        return []
    return [(1, cell[1:]), *merge_faces(mon, cell), (-1 if n % 2 else 1, cell[:-1])]


def merge_faces(mon: ArtinMonoid, cell: BarCell) -> list[tuple[int, BarCell]]:
    """The length-preserving faces only (merges of adjacent factors)."""
    n = len(cell)
    out = []
    for i in range(1, n):
        merged = cell[: i - 1] + (mon.mul(cell[i - 1], cell[i]),) + cell[i + 1 :]
        out.append((-1 if i % 2 else 1, merged))
    return out


def boundary(mon: ArtinMonoid, cell: BarCell) -> dict[BarCell, int]:
    """Chain boundary: face coefficients summed over coinciding cells."""
    acc: dict[BarCell, int] = {}
    for sign, face in faces(mon, cell):
        total = acc.get(face, 0) + sign
        if total:
            acc[face] = total
        elif face in acc:
            del acc[face]
    return acc


def factorizations(
    mon: ArtinMonoid, x: Word
) -> list[tuple[BarCell, tuple[Word, ...]]]:
    """All cells whose product is x, i.e. the ordered factorizations of x
    into non-identity elements, each with its suffix products
    P[j] = x_{j+1} ... x_n for j = 0..n (so P[0] = x and P[n] = 1).

    Splitting y = d * q puts d in front of each factorization of q and q
    in front of its suffix products, so no products are multiplied out.
    """
    memo: dict[Word, list[tuple[BarCell, tuple[Word, ...]]]] = {}

    def of(y: Word) -> list[tuple[BarCell, tuple[Word, ...]]]:
        found = memo.get(y)
        if found is None:
            found = [((y,), (y, ()))]
            for d, q in mon.left_splits(y):
                found.extend(((d,) + cell, (y,) + tail) for cell, tail in of(q))
            memo[y] = found
        return found

    x = mon.canon(x)
    return of(x) if x else [((), ((),))]


def fiber_complex(mon: ArtinMonoid, x: Word) -> IntChainComplex:
    """The fiber of x: a complex with the homology of its factorizations
    under the merge-only differential.

    Merging x_i with x_{i+1} deletes the suffix product P[i] and keeps the
    others, so the suffix products are the chains x = P[0] > ... > P[n] = 1
    of the interval [1, x] of right divisors and the factorizations form
    that interval's `interval_complex`.  Removing beat points of the open
    interval (1, x), the proper non-identity right divisors of x, keeps
    that homology, so the fiber is the interval complex of the chains
    x > p_1 > ... > p_k > 1 with every p_i in the core.  Its ranks run to
    dimension len(x), the longest factorization; for x of length n >= 1
    the homology lives in dimensions 1..n, and the identity's fiber is the
    single 0-cell.
    """
    x = mon.canon(x)
    if not x:
        return interval_complex([((),)])
    below = {q: [r for _, r in mon.left_splits(q)] for _, q in mon.left_splits(x)}
    core = poset_core(below, below)
    kept = set(core)
    chains_from: dict[Word, list[tuple[Word, ...]]] = {}

    def descending(q: Word) -> list[tuple[Word, ...]]:
        found = chains_from.get(q)
        if found is None:
            found = [(q,)]
            for r in below[q]:
                if r in kept:
                    found.extend((q,) + chain for chain in descending(r))
            chains_from[q] = found
        return found

    chains = [(x, ())]
    for q in core:
        chains.extend((x,) + chain + ((),) for chain in descending(q))
    complex_ = interval_complex(chains)
    ranks = complex_.ranks + (0,) * (len(x) + 1 - len(complex_.ranks))
    return IntChainComplex(ranks, complex_.boundaries)


def layer_homology(mon: ArtinMonoid, n: int) -> list[HomologyGroup]:
    """Homology of the fixed-length-n layer in dimensions 0..n.

    The layer is the direct sum of the fibers of the elements of length
    n, so each fiber is built, reduced and dropped in turn.
    """
    by_dim: list[list[HomologyGroup]] = [[] for _ in range(n + 1)]
    for x in mon.elements_of_length(n):
        for k, group in enumerate(fiber_complex(mon, x).homology()):
            by_dim[k].append(group)
    return [direct_sum(groups) for groups in by_dim]
