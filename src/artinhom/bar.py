"""Cells of the reduced classifying-space model of the positive monoid.

A cell [x_1|...|x_n] is a tuple of non-identity monoid elements; its
dimension is n and its length is the length of its product x.  The
library holds a cell as its chain of suffix products
P[j] = x_{j+1} ... x_n, the chain x = P[0] > P[1] > ... > P[n] = 1 of
right divisors of x, each entry the integer id the monoid's element
table gives it (`artin`; the identity is 0).  The factors are the right
quotients of consecutive entries, and they and every word come back
from ids only through `matching.BarMatching.cell_of`, for output.  The
simplicial faces, with the usual alternating signs, read on chains:
dropping x_1 drops P[0], merging x_i with x_{i+1} deletes the inner
entry P[i], and dropping x_n divides every entry on the right by
x_n = P[n-1].  Merging two non-identity positive elements never yields
the identity (length adds), so every face is again a cell and no
degeneracies ever materialize.

Dropping a factor lowers the total length while merging preserves it, so
length filters the complex; the length-preserving (merge-only) part of
the boundary is a differential on each fixed-length layer.  Merging also
keeps the product x, so each layer splits further as a direct sum over
the elements x of that length, and the fiber of x is the complex of the
chains of the interval [1, x] of right divisors
(`homology.interval_complex`).  Its homology is that of the open
interval (1, x), which keeps its homology when beat points are removed
(`homology.poset_core`), so `fiber_complex` lists only the chains whose
inner entries lie in the core of (1, x): on A3 through length 8 that is
3,418 chains in place of 581,462 factorizations.  A core of one element
makes (1, x) strongly homotopy equivalent to a point (Stong 1966), and
the fiber is a cone with no homology, so `layer_homology` adds nothing
for it and builds no complex: on A3 through length 8 that leaves 8 of
the 1,704 fibers to build and reduce.

Who reads what: `homology --verify` consumes the fibers that are not
cones, one at a time; the matching rule and its audits (`matching`) and
the zig-zag collapse (`morse`) read chains too, the collapse through
`faces` and `boundary` here.  Chains of an interval come from
`homology.interval_chains` over the divisor lists of the monoid's
element table, and `_one_sided` reads L and R from that table.  No whole
layer of cells is ever listed: the test suite keeps a cell enumerator,
the faces of cells, the factorizations of x with their suffix products,
and the full fiber of all factorizations as independent oracles.
"""

from __future__ import annotations

from .artin import ArtinMonoid
from .coxeter import Word
from .homology import (
    HomologyGroup,
    IntChainComplex,
    direct_sum,
    interval_chains,
    interval_complex,
    poset_core,
)

BarCell = tuple[Word, ...]
# the suffix products of a cell as element ids: x = P[0] > ... > P[n] = 1
Chain = tuple[int, ...]


def cell_length(cell: BarCell) -> int:
    return sum(len(x) for x in cell)


def faces(mon: ArtinMonoid, chain: Chain) -> list[tuple[int, Chain]]:
    """All simplicial faces of the cell with suffix products `chain`, as
    chains, in order with signs +1, -1, +1, ..., (-1)^n."""
    n = len(chain) - 1
    if n == 0:
        return []
    # dropping x_n = P[n-1] divides each entry by it on the right
    last = chain[-2]
    dropped = (*[mon._quotient(p, last) for p in chain[:-2]], 0)
    return [
        (1, chain[1:]),
        *[(-1 if i % 2 else 1, chain[:i] + chain[i + 1 :]) for i in range(1, n)],
        (-1 if n % 2 else 1, dropped),
    ]


def boundary(mon: ArtinMonoid, chain: Chain) -> dict[Chain, int]:
    """Chain boundary: face coefficients summed over coinciding chains."""
    acc: dict[Chain, int] = {}
    for sign, face in faces(mon, chain):
        total = acc.get(face, 0) + sign
        if total:
            acc[face] = total
        elif face in acc:
            del acc[face]
    return acc


def fiber_complex(mon: ArtinMonoid, x: Word) -> IntChainComplex:
    """The fiber of x: a complex with the homology of its factorizations
    under the merge-only differential.

    Merging x_i with x_{i+1} deletes the suffix product P[i] and keeps the
    others, so the suffix products are the chains x = P[0] > ... > P[n] = 1
    of the interval [1, x] of right divisors and the factorizations form
    that interval's `interval_complex`.  Removing beat points of the open
    interval (1, x), the proper non-identity right divisors of x, keeps
    that homology, so the fiber is the interval complex of the chains
    x > p_1 > ... > p_k > 1 with every p_i in the core.  The ranks run to
    dimension len(x), the longest factorization; for x of length n >= 1
    the homology lives in dimensions 1..n, and the identity's fiber is the
    single 0-cell.
    """
    x = tuple(x)
    top = mon._id(x)
    below = _core_below(mon, top)
    return interval_complex(interval_chains(top, below.__getitem__, 0), len(x) + 1)


def _one_sided(mon: ArtinMonoid, x: int, length: int) -> bool:
    """Whether element x has length at least 2 and one left letter s or
    one right letter t: then s^-1 x is the greatest element of (1, x), or
    t the least, and the core is that one element."""
    return length > 1 and (len(mon._table[x].left) == 1 or len(mon._right(x)) == 1)


def _core_below(mon: ArtinMonoid, x: int) -> dict[int, list[int]]:
    """Element x and each element of the beat-point core of the open
    interval (1, x) of right divisors, with the core elements below it."""
    divisors = mon._divisors
    below = {q: divisors(q) for q in divisors(x)}
    core = poset_core(below, below)
    kept = set(core)
    below = {q: [r for r in below[q] if r in kept] for q in core}
    below[x] = core
    return below


def layer_homology(mon: ArtinMonoid, n: int) -> list[HomologyGroup]:
    """Homology of the fixed-length-n layer in dimensions 0..n.

    The layer is the direct sum of the fibers of the elements of length
    n.  When the core of (1, x) is a single element, the poset (1, x)
    has the strong homotopy type of a point and the fiber is the cone
    (x, p, 1) -> -(x, 1), which adds nothing; that is almost every x (all
    but 8 of the 1,704 A3 fibers through length 8).  Every other fiber,
    the identity's, each letter's and every delta_T among them, is built,
    checked for d o d = 0, reduced and dropped in turn, and its free
    ranks and torsion are added up per dimension.
    """
    free = [0] * (n + 1)
    torsion: list[list[int]] = [[] for _ in range(n + 1)]
    for x in mon._layer(n):
        # a one-sided x is skipped before any right divisor is listed
        if _one_sided(mon, x, n) or len(_core_below(mon, x)) == 2:
            continue
        # few fibers get here, so `fiber_complex` spelling x and finding
        # the core again costs little
        for k, (rank, factors) in enumerate(fiber_complex(mon, mon._word(x)).invariants()):
            free[k] += rank
            torsion[k].extend(factors)
    # one group per dimension, its torsion merged into invariant factors
    return [direct_sum([group]) for group in zip(free, torsion)]
