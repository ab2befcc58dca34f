"""Integer chain complexes, Smith normal form, homology groups.

Boundary matrices are sparse columns: column j is a dict from row index
to its nonzero coefficient.  Invariant factors come from one sparse
eliminator that peels off unit pivots first (boundary matrices here are
overwhelmingly sparse with entries in {-1, 0, 1}) and then reduces the
small remaining core on the same columns, pivoting on its least entry.
Both phases run on Python integers, so intermediate growth promotes to
arbitrary precision for free.

Homology reduces d_top first and then goes down, clearing as it goes
(Chen-Kerber, "Persistent homology computation with a twist"): d_k drops
the columns of the k-cells that were unit-pivot rows of d_{k+1}.  This
is exact over Z.  The unit pivot columns b_1, b_2, ... of d_{k+1}, in the
order they were taken, are boundaries; b_i has +/-1 at its pivot row p_i
and 0 at p_1 .. p_{i-1}, since those rows were already cleared from every
column left.  d_k b_i = 0 then writes column p_i of d_k as a Z-combination
of the other columns, among which only later pivot columns are dropped;
going back from the last pivot, each dropped column is a Z-combination of
the kept ones, and subtracting it is a unimodular change that leaves the
invariant factors.  A core pivot d with |d| > 1 gives only d times a
column, which is no such combination, so only unit pivots are recorded.

Every chain comes from `interval_chains` and every complex built from
chains from `interval_complex`.  A chain top = p_0 > p_1 > ... > p_k =
bottom of a poset interval lies in dimension k, and its faces delete one
inner entry.  Its inner entries form a (k - 2)-simplex of the open
interval's order complex, with the bare chain (top, bottom) as the empty
simplex, so dimension k of the result is the reduced homology in degree
k - 2 of that order complex.  The bar model's fibers and the matching's
audits walk the intervals [1, x] of right divisors; the Salvetti pair
check puts a sentinel below a strict down-set and its cell above to make
it one.  `poset_core` shrinks a poset by removing beat points, which keeps
that homology, so a fiber lists only the chains of its interval's core.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple

from .coxeter import CoxeterSystem
from .errors import NotAComplex

Matrix = list[dict[int, int]]


def _subtract_column(cols, rows, k: int, col: dict[int, int], factor: int) -> None:
    """Column k -= factor * col, keeping the row index in step."""
    target = cols[k]
    for i, v in col.items():
        new = target.get(i, 0) - factor * v
        if new:
            if i not in target:
                rows[i].add(k)
            target[i] = new
        else:
            del target[i]
            rows[i].discard(k)


def _subtract_row(cols, rows, i: int, p: int, factor: int) -> None:
    """Row i -= factor * row p, keeping the row index in step."""
    for k in list(rows[p]):
        target = cols[k]
        new = target.get(i, 0) - factor * target[p]
        if new:
            target[i] = new
            rows[i].add(k)
        else:
            del target[i]
            rows[i].discard(k)


def _sparse_unit_elimination(matrix: Matrix) -> tuple[list[int], dict, dict]:
    """Strip unit pivots off sparse columns by exact unimodular steps.

    Columns are visited in order; a column holding a +/-1 entry takes it
    as pivot, choosing the row with the fewest entries.  The pivot column
    is subtracted from every other column meeting the pivot row, after
    which row and column split off as diag(1) (+) rest, so the remaining
    invariant factors are those of the rest.  A column changed by such a
    subtraction is visited again.  Returns the pivot rows in the order
    they were taken and the leftover core, which has no unit entry, as
    sparse columns with their row index.
    """
    cols = {j: {i: v for i, v in col.items() if v} for j, col in enumerate(matrix)}
    rows: dict[int, set[int]] = {}
    for j, col in cols.items():
        for i in col:
            rows.setdefault(i, set()).add(j)
    queue = deque(cols)
    queued = set(cols)
    pivots = []
    while queue:
        j = queue.popleft()
        queued.discard(j)
        col = cols.get(j)
        if not col:
            continue
        pivot, fill = None, 0
        for i, v in col.items():
            if (v == 1 or v == -1) and (pivot is None or len(rows[i]) < fill):
                pivot, fill = i, len(rows[i])
        if pivot is None:
            continue
        del cols[j]
        for i in col:
            rows[i].discard(j)
        pv = col.pop(pivot)
        for k in rows.pop(pivot):
            _subtract_column(cols, rows, k, col, cols[k].pop(pivot) * pv)
            if k not in queued:
                queue.append(k)
                queued.add(k)
        pivots.append(pivot)
    return pivots, cols, rows


def _core_factors(cols, rows) -> list[int]:
    """Nonzero invariant factors of sparse columns, as a divisor chain.

    The entry of least absolute value is the pivot.  One column operation
    per other entry of its row and one row operation per other entry of
    its column reduce those entries mod the pivot; a nonzero remainder is
    a smaller entry, so the pivot is chosen again and the least |entry|
    strictly drops at every restart.  Once the pivot stands alone, a row
    holding an entry it does not divide is added to the pivot row, which
    forces such a restart; so each pivot that splits off divides every
    entry left, and the pivots form the chain d1 | d2 | ...
    """
    factors = []
    while True:
        entries = [(abs(v), i, j) for j, col in cols.items() for i, v in col.items()]
        if not entries:
            return factors
        _, p, j = min(entries)
        pivot = cols[j]
        pv = pivot[p]
        for k in rows[p] - {j}:
            _subtract_column(cols, rows, k, pivot, cols[k][p] // pv)
        for i in [i for i in pivot if i != p]:
            _subtract_row(cols, rows, i, p, pivot[i] // pv)
        if len(pivot) > 1 or len(rows[p]) > 1:
            continue
        offender = next((i for col in cols.values() for i, v in col.items() if v % pv), None)
        if offender is None:
            factors.append(abs(pv))
            del cols[j], rows[p]
        else:
            _subtract_row(cols, rows, p, offender, -1)


def invariant_factors(matrix: Matrix, unit_rows: set[int] | None = None) -> list[int]:
    """Nonzero Smith invariant factors of sparse columns, units first.

    When `unit_rows` is given, the rows of the unit pivots are added to it."""
    pivots, cols, rows = _sparse_unit_elimination(matrix)
    if unit_rows is not None:
        unit_rows.update(pivots)
    return [1] * len(pivots) + _core_factors(cols, rows)


class _Group(NamedTuple):
    free_rank: int
    torsion: tuple[int, ...] = ()


class HomologyGroup(_Group):
    """A finitely generated abelian group in invariant-factor form."""

    __slots__ = ()

    def __new__(cls, free_rank: int, torsion: tuple[int, ...] = ()):
        for k, d in enumerate(torsion):
            if d < 2:
                raise ValueError(f"torsion coefficient {d} < 2")
            if k and d % torsion[k - 1]:
                raise ValueError(f"torsion {torsion} is not a divisor chain")
        return super().__new__(cls, free_rank, torsion)

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def direct_sum(groups: Iterable[tuple[int, tuple[int, ...]]]) -> HomologyGroup:
    """The direct sum of groups given as (free rank, torsion) pairs, such
    as `HomologyGroup`s, with torsion merged into invariant-factor form
    (Z/2 + Z/3 is Z/6) by one Smith reduction of the diagonal."""
    free_rank = 0
    torsion: list[int] = []
    for rank, factors in groups:
        free_rank += rank
        torsion.extend(factors)
    factors = invariant_factors([{i: d} for i, d in enumerate(torsion)])
    return HomologyGroup(free_rank, tuple(d for d in factors if d > 1))


class _Complex(NamedTuple):
    ranks: tuple[int, ...]
    boundaries: dict[int, Matrix]


class IntChainComplex(_Complex):
    """Free integer chain complex with sparse boundary matrices.

    `ranks[k]` is the rank in dimension k; `boundaries[k]` maps dimension
    k to k-1 as `ranks[k]` sparse columns with row indices below
    `ranks[k-1]`.  Dimension 0 needs no matrix, and neither does a map
    from or to a dimension of rank 0.
    """

    __slots__ = ()

    def __new__(cls, ranks: tuple[int, ...], boundaries: dict[int, Matrix] | None = None):
        boundaries = {} if boundaries is None else boundaries
        for k, mat in boundaries.items():
            if k < 1 or k >= len(ranks):
                raise NotAComplex(f"boundary in dimension {k} out of range")
            rows, cols = ranks[k - 1], ranks[k]
            if len(mat) != cols or any(
                col and not 0 <= min(col) <= max(col) < rows for col in mat
            ):
                raise NotAComplex(
                    f"boundary {k} has {len(mat)} columns or a row outside "
                    f"{rows}, expected shape {(rows, cols)}"
                )
        return super().__new__(cls, ranks, boundaries)

    def boundary(self, k: int) -> Matrix:
        found = self.boundaries.get(k)
        if found is None:
            cols = self.ranks[k] if 0 <= k < len(self.ranks) else 0
            found = [{} for _ in range(cols)]
        return found

    def check_composition(self) -> None:
        """Verify boundary-of-boundary vanishes (sparse column walk).

        A composite through a dimension of rank 0 is zero, so it is
        skipped."""
        ranks = self.ranks
        for k in range(2, len(ranks)):
            if not (ranks[k] and ranks[k - 1] and ranks[k - 2]):
                continue
            lower = self.boundary(k - 1)
            for j, col in enumerate(self.boundary(k)):
                acc: dict[int, int] = {}
                for r, v in col.items():
                    for i, w in lower[r].items():
                        acc[i] = acc.get(i, 0) + v * w
                if any(acc.values()):
                    raise NotAComplex(
                        f"d_{k-1} after d_{k} is nonzero on column {j}"
                    )

    def invariants(self) -> list[tuple[int, tuple[int, ...]]]:
        """(free rank, torsion) of the homology in every dimension, via
        Smith invariant factors.

        The boundaries are reduced from the top down, and d_k skips the
        columns of the k-cells that were unit-pivot rows of d_{k+1}
        (clearing); see the module docstring for why the invariant
        factors of d_k survive.  A d_k to a dimension of rank 0 is zero
        and is skipped."""
        self.check_composition()
        ranks = self.ranks
        rank_of_d = [0] * (len(ranks) + 1)
        torsion_of_d: list[tuple[int, ...]] = [()] * (len(ranks) + 1)
        cleared: set[int] = set()
        for k in range(len(ranks) - 1, 0, -1):
            kept = [
                col for j, col in enumerate(self.boundary(k)) if j not in cleared
            ] if ranks[k - 1] else []
            cleared = set()
            if kept:
                factors = invariant_factors(kept, cleared)
                rank_of_d[k] = len(factors)
                torsion_of_d[k] = tuple(d for d in factors if d > 1)
        return [
            (ranks[k] - rank_of_d[k] - rank_of_d[k + 1], torsion_of_d[k + 1])
            for k in range(len(ranks))
        ]

    def homology(self) -> list[HomologyGroup]:
        """Homology in every dimension (see `invariants`)."""
        return [HomologyGroup(*pair) for pair in self.invariants()]


def interval_chains(
    top: Hashable, below: Callable[..., Iterable], bottom: Hashable
) -> list[tuple]:
    """Every chain top > p_1 > ... > p_k > bottom of an interval, once each.

    `below(p)` lists the elements strictly between bottom and p, each once.
    The chains are listed depth first, each before its extensions, in the
    order `below` gives.  The chains from an element down are listed once
    and reused by every chain that reaches it.  The interval [top, top] is
    the one chain (top,).
    """
    if top == bottom:
        return [(top,)]
    chains_from: dict = {}

    def descend(p) -> list[tuple]:
        found = chains_from.get(p)
        if found is None:
            found = [(p, bottom)]
            for q in below(p):
                found.extend((p,) + chain for chain in descend(q))
            chains_from[p] = found
        return found

    chains = descend(top)
    del descend  # a closure that refers to itself: free the memo now, not at a GC pass
    return chains


def interval_complex(chains: Iterable[tuple], dims: int = 0) -> IntChainComplex:
    """The chain complex of the chains of a poset interval.

    Each chain runs from a bottom to a top, has distinct inner entries and
    is listed once, and the family is closed under deleting an inner
    entry.  A chain of k + 1 entries lies in dimension k, and deleting its
    inner entry i (0 < i < k) is a face of sign (-1)^i; each dimension's
    basis is its chains in input order.  Dimension k of the homology is
    the reduced homology, in degree k - 2, of the open interval's order
    complex; a one-entry chain is a point in dimension 0.  The ranks are
    padded with zeros to at least `dims` dimensions.
    """
    by_dim: dict[int, list[tuple]] = {}
    for chain in chains:
        by_dim.setdefault(len(chain) - 1, []).append(chain)
    found = [by_dim.get(k, []) for k in range(max(max(by_dim, default=-1) + 1, dims))]
    index = {chain: i for listed in found for i, chain in enumerate(listed)}
    boundaries: dict[int, Matrix] = {
        k: [
            {index[chain[:i] + chain[i + 1 :]]: -1 if i % 2 else 1 for i in range(1, k)}
            for chain in found[k]
        ]
        for k in range(2, len(found))
        if found[k]
    }
    return IntChainComplex(tuple(map(len, found)), boundaries)


def poset_core(elements: Iterable, below: Mapping) -> list:
    """The elements left once beat points are removed until none is left.

    `below[p]` lists every element of the poset strictly below p.  An
    element p is a down beat point when the elements below p have a
    maximum m, and an up beat point when the elements above p have a
    minimum (Stong, "Finite topological spaces", Trans. AMS 123, 1966).

    Removing a beat point p keeps the homology over Z of the order
    complex, and of every interval complex whose inner entries are the
    poset's elements.  Say m is the maximum below p (an up beat point is
    the same argument in the opposite poset).  Every element comparable
    with p is comparable with m: those below p lie below m and those above
    p lie above m.  So the link of p is a cone on m, and adding m to a
    chain through p but not m gives a chain again.  The chains through p
    but not m pair off with the chains through both, one entry apart,
    and the pairs are elementary collapses: taken from the longest down,
    each pair's shorter chain has its longer one as its only coface still
    present.  What is left is exactly the chains of the
    poset without p (Barmak-Minian, "Strong homotopy types, nerves and
    collapses", Discrete Comput. Geom. 47, 2012).

    Each round removes every up beat point of the poset left, or every
    down beat point when there is no up beat point.  Removing one up beat
    point leaves every other one an up beat point (an element whose
    minimum above was p has p's minimum above instead), so a round is a
    sequence of single removals, and its set depends only on the poset.
    So the core does not depend on the input order; it is returned in
    that order.  Up beat points go first, so a poset with a maximum
    collapses to its maximum.
    """
    elements = list(elements)
    # bit positions follow a linear extension: p < q makes below[p] a
    # proper subset of below[q], so p takes the lower bit
    ranked = sorted(elements, key=lambda p: len(below[p]))
    position = {p: k for k, p in enumerate(ranked)}
    down = []
    up = [0] * len(ranked)
    for k, p in enumerate(ranked):
        bit = 1 << k
        mask = 0
        for q in below[p]:
            j = position[q]
            mask |= 1 << j
            up[j] |= bit
        down.append(mask)
    alive = (1 << len(ranked)) - 1
    live = range(len(ranked))

    def beat_points(strict: list[int], lowest: bool) -> int:
        # the minimum above p (maximum below p), if there is one, holds
        # the lowest (highest) bit of the alive elements beyond p
        beat = 0
        for k in live:
            beyond = strict[k] & alive
            if beyond:
                e = (beyond & -beyond if lowest else beyond).bit_length() - 1
                if strict[e] & alive == beyond ^ 1 << e:
                    beat |= 1 << k
        return beat

    while beat := beat_points(up, True) or beat_points(down, False):
        alive &= ~beat
        live = [k for k in live if alive >> k & 1]
    core = {ranked[k] for k in live}
    return [p for p in elements if p in core]


def abelianized_presentation_h1(system: CoxeterSystem) -> HomologyGroup:
    """First homology predicted from the standard presentation.

    Abelianizing identifies two generators exactly when they are joined
    by an odd, finite edge, so H_1 is free on the connected components of
    that graph.
    """
    parents = {s: s for s in system.gens}

    def find(s):
        while parents[s] != s:
            parents[s] = parents[parents[s]]
            s = parents[s]
        return s

    for s in system.gens:
        for t in system.gens:
            if s < t:
                m = system.m(s, t)
                if m != math.inf and m % 2 == 1:
                    parents[find(s)] = find(t)
    components = {find(s) for s in system.gens}
    return HomologyGroup(len(components))
