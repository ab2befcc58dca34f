"""Integer chain complexes, Smith normal form, homology groups.

Boundary matrices are sparse columns: column j is a dict from row index
to its nonzero coefficient.  Invariant factors come from a sparse
eliminator that peels off unit pivots first (boundary matrices here are
overwhelmingly sparse with entries in {-1, 0, 1}) and hands the small
remaining core to a dense textbook reduction, which can also return the
unimodular witnesses.  Both run on Python integers, so intermediate
growth promotes to arbitrary precision for free.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .coxeter import CoxeterSystem
from .errors import NotAComplex

Matrix = list[dict[int, int]]
Dense = list[list[int]]


def _identity(n: int) -> Dense:
    return [[int(i == j) for j in range(n)] for i in range(n)]


@dataclass
class SmithForm:
    """Diagonal of the Smith normal form, with optional witnesses.

    When witnesses are present, left * A * right == diagonal matrix.
    """

    shape: tuple[int, int]
    diagonal: list[int]
    left: Dense | None = None
    right: Dense | None = None

    def matrix(self) -> Dense:
        rows, cols = self.shape
        out = [[0] * cols for _ in range(rows)]
        for i, d in enumerate(self.diagonal):
            out[i][i] = d
        return out


def smith_normal_form(matrix: Sequence[Sequence[int]], witnesses: bool = False) -> SmithForm:
    """Diagonalize an integer matrix by unimodular row/column operations.

    The diagonal satisfies the divisibility chain d1 | d2 | ... and is
    non-negative.  With `witnesses` the transformations are tracked and
    returned (left acting on rows, right on columns).
    """
    D = [list(map(int, row)) for row in matrix]
    m = len(D)
    n = len(D[0]) if m else 0
    for row in D:
        if len(row) != n:
            raise ValueError("ragged matrix")
    S = _identity(m) if witnesses else None
    T = _identity(n) if witnesses else None

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        if S is not None:
            S[i], S[j] = S[j], S[i]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        if T is not None:
            for row in T:
                row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        if q:
            Dd, Ds = D[dst], D[src]
            for j in range(n):
                Dd[j] += q * Ds[j]
            if S is not None:
                Sd, Ss = S[dst], S[src]
                for j in range(m):
                    Sd[j] += q * Ss[j]

    def add_col(dst, src, q):
        if q:
            for row in D:
                row[dst] += q * row[src]
            if T is not None:
                for row in T:
                    row[dst] += q * row[src]

    def negate_row(i):
        D[i] = [-v for v in D[i]]
        if S is not None:
            S[i] = [-v for v in S[i]]

    t = 0
    while t < min(m, n):
        # smallest nonzero entry of the trailing submatrix becomes the pivot
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(D[i][j])
                if v and (pivot is None or v < pivot[0]):
                    pivot = (v, i, j)
        if pivot is None:
            break
        _, pi, pj = pivot
        swap_rows(t, pi)
        swap_cols(t, pj)
        while True:
            # clear below, retrying whenever a remainder survives
            dirty = False
            for i in range(t + 1, m):
                if D[i][t]:
                    q = D[i][t] // D[t][t]
                    add_row(i, t, -q)
                    if D[i][t]:
                        swap_rows(i, t)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, n):
                if D[t][j]:
                    q = D[t][j] // D[t][t]
                    add_col(j, t, -q)
                    if D[t][j]:
                        swap_cols(j, t)
                        dirty = True
                        break
            if dirty:
                continue
            # pivot must divide every remaining entry for the chain property
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if D[i][j] % D[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        if D[t][t] < 0:
            negate_row(t)
        t += 1

    diagonal = [D[k][k] for k in range(min(m, n))]
    return SmithForm((m, n), diagonal, S, T)


def _sparse_unit_elimination(matrix: Matrix) -> tuple[int, Dense]:
    """Strip unit pivots off sparse columns by exact unimodular steps.

    Columns are visited in order; a column holding a +/-1 entry takes it
    as pivot, choosing the row with the fewest entries.  The pivot column
    is subtracted from every other column meeting the pivot row, after
    which row and column split off as diag(1) (+) rest, so the remaining
    invariant factors are those of the rest.  A column changed by such a
    subtraction is visited again.  Returns the unit count and the
    leftover core, which has no unit entry, as a dense matrix.
    """
    cols = {j: {i: v for i, v in col.items() if v} for j, col in enumerate(matrix)}
    rows: dict[int, set[int]] = {}
    for j, col in cols.items():
        for i in col:
            rows.setdefault(i, set()).add(j)
    queue = deque(cols)
    queued = set(cols)
    units = 0
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
            target = cols[k]
            factor = target.pop(pivot) * pv  # target -= factor * col
            for i, v in col.items():
                new = target.get(i, 0) - factor * v
                if new:
                    if i not in target:
                        rows[i].add(k)
                    target[i] = new
                else:
                    del target[i]
                    rows[i].discard(k)
            if k not in queued:
                queue.append(k)
                queued.add(k)
        units += 1
    live_cols = sorted(j for j, col in cols.items() if col)
    live_rows = sorted({i for j in live_cols for i in cols[j]})
    row_pos = {i: k for k, i in enumerate(live_rows)}
    core = [[0] * len(live_cols) for _ in live_rows]
    for k, j in enumerate(live_cols):
        for i, v in cols[j].items():
            core[row_pos[i]][k] = v
    return units, core


def invariant_factors(matrix: Matrix) -> list[int]:
    """Nonzero Smith invariant factors of sparse columns, units first."""
    units, core = _sparse_unit_elimination(matrix)
    rest = [d for d in smith_normal_form(core).diagonal if d]
    return [1] * units + rest


@dataclass(frozen=True)
class HomologyGroup:
    """A finitely generated abelian group in invariant-factor form."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        for k, d in enumerate(self.torsion):
            if d < 2:
                raise ValueError(f"torsion coefficient {d} < 2")
            if k and d % self.torsion[k - 1]:
                raise ValueError(f"torsion {self.torsion} is not a divisor chain")

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion


def direct_sum(groups: Iterable[HomologyGroup]) -> HomologyGroup:
    """The direct sum, with torsion merged into invariant-factor form
    (Z/2 + Z/3 is Z/6) by one Smith reduction of the diagonal."""
    groups = list(groups)
    torsion = [d for h in groups for d in h.torsion]
    factors = invariant_factors([{i: d} for i, d in enumerate(torsion)])
    return HomologyGroup(
        sum(h.free_rank for h in groups), tuple(d for d in factors if d > 1)
    )


@dataclass
class IntChainComplex:
    """Free integer chain complex with sparse boundary matrices.

    `ranks[k]` is the rank in dimension k; `boundaries[k]` maps dimension
    k to k-1 as `ranks[k]` sparse columns with row indices below
    `ranks[k-1]`.  Dimension 0 needs no matrix.  Labels are optional
    display names for basis elements.
    """

    ranks: tuple[int, ...]
    boundaries: dict[int, Matrix] = field(default_factory=dict)
    labels: dict[int, list] = field(default_factory=dict)

    def __post_init__(self):
        for k, mat in self.boundaries.items():
            if k < 1 or k >= len(self.ranks):
                raise NotAComplex(f"boundary in dimension {k} out of range")
            rows, cols = self.ranks[k - 1], self.ranks[k]
            if len(mat) != cols or any(
                col and not 0 <= min(col) <= max(col) < rows for col in mat
            ):
                raise NotAComplex(
                    f"boundary {k} has {len(mat)} columns or a row outside "
                    f"{rows}, expected shape {(rows, cols)}"
                )

    def boundary(self, k: int) -> Matrix:
        cols = self.ranks[k] if 0 <= k < len(self.ranks) else 0
        return self.boundaries.get(k, [{} for _ in range(cols)])

    def check_composition(self) -> None:
        """Verify boundary-of-boundary vanishes (sparse column walk)."""
        for k in range(2, len(self.ranks)):
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

    def homology(self) -> list[HomologyGroup]:
        """Homology in every dimension via Smith invariant factors."""
        self.check_composition()
        ranks_of_d = {}
        torsion_of_d = {}
        for k in range(1, len(self.ranks)):
            factors = invariant_factors(self.boundary(k))
            ranks_of_d[k] = len(factors)
            torsion_of_d[k] = tuple(d for d in factors if d > 1)
        out = []
        for k in range(len(self.ranks)):
            r_k = ranks_of_d.get(k, 0)
            r_next = ranks_of_d.get(k + 1, 0)
            out.append(
                HomologyGroup(self.ranks[k] - r_k - r_next, torsion_of_d.get(k + 1, ()))
            )
        return out


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
