"""The poset of cosets-with-types and its cell pair checks.

Cells are pairs (u, T) of a group element and a finite-type subset,
ordered by (u, T) <= (v, R) when T is contained in R, v^-1 u lies in the
standard subgroup on R, and v^-1 u is T-minimal.  The poset of a finite
group W has every such pair, W x `sf`, and no other.  The library
defines this order once, by listing: the cells below (v, R) are the
(v b, T) with T <= R and b a T-minimal element of W_R
(`SalvettiPoset.down_set`).  The geometric realization of the derived
complex carries one cell per pair, of dimension |T|; the group acts
freely by left multiplication and the quotient keeps one cell per
finite-type subset.

`cell_pair_check` certifies the local structure (Bjorner's criterion for
regular CW posets): the strict down-set of an n-cell must have the
homology of an (n - 1)-sphere.  It is checked as an `interval_complex`
with `None`, which is no cell, as sentinel bottom: the strict down-set is
the open interval between the sentinel and the cell, and its chains are
listed from the cell down (`interval_chains`).  Its homology is reduced
and shifted up two degrees, so an n-cell's must be Z in dimension n + 1
alone; the empty (-1)-sphere and the two-point 0-sphere need no special
case.  The closed down-set needs no check once the cell's listing
contains it: the cell is then the maximum of its down-set, so every chain
of the closed down-set that misses the cell extends by it, and the order
complex is a cone on the cell and acyclic.

Left multiplication by v maps the down-set of (e, R) onto that of
(v, R), so each W-orbit needs its homology once.  `down_set((v, R))` is
the listing of (e, R) with each entry multiplied on the left by v, and
the listing below each q in it is the listing below v q: both run through
the same (b, T) with v (b c) = (v b) c, since W's canonical `mul` is
associative.  Left multiplication is a bijection of W, so q -> v q is an
isomorphism of the two down-sets as posets that carries (e, R) to
(v, R), and the strict one onto the strict one: (v, R) has the homology
of (e, R).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .coxeter import CoxeterSystem, Word, alternating_word
from .errors import CheckFailed, InfiniteM, InfiniteType
from .homology import HomologyGroup, interval_chains, interval_complex

SalCell = tuple[Word, frozenset]


class SalvettiPoset:
    """The cells W x `sf` of the poset of cosets-with-types, with its
    order listed on demand; requires the whole group to be finite."""

    def __init__(self, system: CoxeterSystem):
        if not system.is_finite_type(system.gens):
            raise InfiniteType("the full poset needs a finite group")
        self.system = system
        self._subsets = system.sf()
        self.cells: list[SalCell] = [
            (u, T) for u in system.enumerate_group(system.gens) for T in self._subsets
        ]
        self._below: dict[SalCell, tuple[SalCell, ...]] = {}
        self._minimal_in: dict[frozenset, list[tuple[Word, list[frozenset]]]] = {}
        # R -> homology of the strict down-set of (e, R)
        self._pair_homology: dict[frozenset, list[HomologyGroup]] = {}

    def dim(self, cell: SalCell) -> int:
        return len(cell[1])

    def census(self) -> tuple[int, ...]:
        """Cells per dimension: |W| cells for each finite-type subset."""
        order = len(self.cells) // len(self._subsets)
        return tuple(order * count for count in quotient_census(self.system))

    def down_set(self, cell: SalCell) -> tuple[SalCell, ...]:
        """The cells below (v, R): the (v b, T) with T <= R and b a
        T-minimal element of W_R, each listed once."""
        below = self._below.get(cell)
        if below is None:
            v, R = cell
            listed = []
            for beta, types in self._minimal(R):
                u = self.system.mul(v, beta)
                listed.extend((u, T) for T in types)
            below = self._below[cell] = tuple(listed)
        return below

    def _minimal(self, R: frozenset) -> list[tuple[Word, list[frozenset]]]:
        """Each b in W_R, in ShortLex order, with the T <= R for which b
        is T-minimal."""
        found = self._minimal_in.get(R)
        if found is None:
            subsets = [T for T in self._subsets if T <= R]
            found = self._minimal_in[R] = [
                (beta, [T for T in subsets if self.system.is_t_minimal(beta, T)])
                for beta in self.system.enumerate_group(R)
            ]
        return found


def sal_poset(system: CoxeterSystem) -> SalvettiPoset:
    """The full poset; requires the whole group to be finite."""
    return SalvettiPoset(system)


class PairCheck(NamedTuple):
    cell: SalCell
    closed_size: int
    strict_size: int


def _strict_homology(poset: SalvettiPoset, R: frozenset) -> list[HomologyGroup]:
    """Homology of the interval complex of the strict down-set of (e, R),
    reduced once."""
    found = poset._pair_homology.get(R)
    if found is None:
        chains = interval_chains(
            ((), R), lambda q: [p for p in poset.down_set(q) if p != q], None
        )
        found = poset._pair_homology[R] = interval_complex(chains).homology()
    return found


def cell_pair_check(poset: SalvettiPoset, cell: SalCell) -> PairCheck:
    """Certify that a cell's down-set pair looks like (disk, sphere).

    A cell (v, R) is a translate of (e, R), whose strict down-set is
    reduced once for the orbit.  A name that is not canonical, or a type
    outside `sf`, names no cell and fails, as does (e, R) missing from its
    own listing; otherwise the closed down-set is a cone on the cell and
    is not reduced (module docstring)."""
    v, R = cell
    if R not in poset._subsets or poset.system.canon(v) != v:
        raise CheckFailed(f"{cell} is not a cell of the poset")
    base = ((), R)
    closed = poset.down_set(base)
    if base not in closed:
        raise CheckFailed(f"{cell} is not in its own down-set")
    closed_size = len(closed)
    n = poset.dim(cell)
    strict_homology = _strict_homology(poset, R)
    if strict_homology != [HomologyGroup(0)] * (n + 1) + [HomologyGroup(1)]:
        raise CheckFailed(
            f"strict down-set of {cell} is not a {n - 1}-sphere: reduced homology "
            f"from degree -2 up is {[str(h) for h in strict_homology]}"
        )
    return PairCheck(cell, closed_size, closed_size - 1)


def quotient_census(system: CoxeterSystem) -> tuple[int, ...]:
    """Cells of the quotient complex, one per finite-type subset."""
    subsets = system.sf()
    top = max((len(T) for T in subsets), default=0)
    counts = [0] * (top + 1)
    for T in subsets:
        counts[len(T)] += 1
    return tuple(counts)


def polygon_vertices(
    system: CoxeterSystem, w: Iterable[str], s: str, t: str
) -> list[Word]:
    """The 2m vertices of the 2-cell at w on {s, t}, in boundary order:
    w, ws, wst, ..., w<s t>^m = w<t s>^m, w<t s>^{m-1}, ..., wt."""
    m = system.m(s, t)
    if m == float("inf"):
        raise InfiniteM(f"no polygon: m({s},{t}) is infinite")
    w = system.canon(w)
    ascending = [system.mul(w, alternating_word(s, t, k)) for k in range(m + 1)]
    descending = [system.mul(w, alternating_word(t, s, k)) for k in range(m - 1, 0, -1)]
    return ascending + descending


def polygon_boundary_word(
    system: CoxeterSystem, s: str, t: str
) -> tuple[tuple[int, str], ...]:
    """The quotient relator read off the polygon at the identity.

    Consecutive vertices differ by a unique right letter g; the 1-cell
    between them hangs off the shorter vertex (the {g}-minimal coset
    representative) and is oriented away from it, so the traversal sign
    is the sign of the length change."""
    vertices = polygon_vertices(system, (), s, t)
    word = []
    for k, vertex in enumerate(vertices):
        follower = vertices[(k + 1) % len(vertices)]
        letter = next(
            g for g in (s, t) if system.mul(vertex, (g,)) == follower
        )
        sign = 1 if len(vertex) < len(follower) else -1
        word.append((sign, letter))
    return tuple(word)
