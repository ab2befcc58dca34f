"""Shared systems and independent oracles for the test suite.

The oracles here decide the word problem through faithful models that
never touch the rewriting code under test: symmetric groups acting by
adjacent transpositions for the linear diagrams, affine maps
x -> sign*x + shift on Z (mod 2m) for the dihedral systems, window
notation for the affine permutations of the affine Weyl group A~2, and
signed permutations for B3.  The positive monoid is checked against
enumeration of braid classes of positive words (`BraidClassMonoid`),
which shares no code with `artin.py`.  Homology of finite types is
checked against De Concini-Salvetti's closed-form complex, built from the
degrees of W's parabolic subgroups (`closed_form_homology`).  Library
surface that only the tests need lives here too.
"""

import math
from itertools import combinations
from typing import Callable, Iterable, NamedTuple, Sequence

import pytest

from artinhom import ArtinMonoid, CoxeterSystem
from artinhom.bar import cell_length
from artinhom.errors import AuditFailure, InternalError
from artinhom.homology import HomologyGroup, interval_complex
from artinhom.matching import GradeAudit, LengthAudit


def make_a2():
    return CoxeterSystem("ab", {("a", "b"): 3})


def make_b2():
    return CoxeterSystem("ab", {("a", "b"): 4})


def make_i25():
    return CoxeterSystem("ab", {("a", "b"): 5})


def make_a1a1():
    return CoxeterSystem("ab", {("a", "b"): 2})


def make_ainf():
    return CoxeterSystem("ab", {("a", "b"): math.inf})


def make_a3():
    return CoxeterSystem("abc", {("a", "b"): 3, ("b", "c"): 3})


def make_b3():
    return CoxeterSystem("abc", {("a", "b"): 4, ("b", "c"): 3})


def make_g2():
    return CoxeterSystem("ab", {("a", "b"): 6})


def make_a1a1a1():
    return CoxeterSystem("abc", {})


def make_b2a1():
    return CoxeterSystem("abc", {("a", "b"): 4})


def make_affine_a2():
    return CoxeterSystem("abc", {("a", "b"): 3, ("b", "c"): 3, ("a", "c"): 3})


@pytest.fixture(scope="session")
def a2():
    return make_a2()


@pytest.fixture(scope="session")
def b2():
    return make_b2()


@pytest.fixture(scope="session")
def i25():
    return make_i25()


@pytest.fixture(scope="session")
def a1a1():
    return make_a1a1()


@pytest.fixture(scope="session")
def ainf():
    return make_ainf()


@pytest.fixture(scope="session")
def a3():
    return make_a3()


@pytest.fixture(scope="session")
def mon_a2(a2):
    return ArtinMonoid(a2)


@pytest.fixture(scope="session")
def mon_b2(b2):
    return ArtinMonoid(b2)


@pytest.fixture(scope="session")
def mon_i25(i25):
    return ArtinMonoid(i25)


@pytest.fixture(scope="session")
def mon_a1a1(a1a1):
    return ArtinMonoid(a1a1)


@pytest.fixture(scope="session")
def mon_ainf(ainf):
    return ArtinMonoid(ainf)


@pytest.fixture(scope="session")
def mon_a3(a3):
    return ArtinMonoid(a3)


# -- symmetric group oracle (type A chains) ----------------------------------


def perm_of_word(word, letters, n):
    """Image of a word in S_n, generators as adjacent transpositions."""
    index = {s: i for i, s in enumerate(letters)}
    perm = list(range(n))
    for s in word:
        i = index[s]
        # compose on the right with the transposition (i, i+1)
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return tuple(perm)


def inversions(perm):
    return sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )


# -- dihedral oracle (rank-2 systems, m possibly infinite) ---------------------


def dihedral_of_word(word, m):
    """Image of a word over {a, b} as x -> sign*x + shift (mod 2m)."""
    sign, shift = 1, 0
    for s in word:
        gen_sign, gen_shift = (-1, 0) if s == "a" else (-1, 2)
        sign, shift = sign * gen_sign, sign * gen_shift + shift
    if m != math.inf:
        shift %= 2 * m
    return sign, shift


# -- affine permutation oracle (A~2, infinite) ----------------------------------


def affine_window(word):
    """Window (w(1), w(2), w(3)) of a word over {a, b, c} as an affine
    permutation of Z with w(i + 3) = w(i) + 3; a and b swap adjacent
    entries and c acts as s_0."""
    w1, w2, w3 = 1, 2, 3
    for s in word:
        if s == "a":
            w1, w2 = w2, w1
        elif s == "b":
            w2, w3 = w3, w2
        else:
            w1, w3 = w3 - 3, w1 + 3
    return w1, w2, w3


def affine_length(window):
    """Coxeter length by Shi's formula: sum over i < j of |floor((w_j - w_i)/3)|."""
    n = len(window)
    return sum(
        abs((window[j] - window[i]) // n)
        for i in range(n)
        for j in range(i + 1, n)
    )


# -- signed permutation oracle (B3) ---------------------------------------------


def signed_perm_of_word(word):
    """Image of a word over {a, b, c} in the hyperoctahedral group B3, with
    m(a, b) = 4 and m(b, c) = 3: a negates the first coordinate, b swaps
    the first two and c the last two (acting on positions, on the right)."""
    w = [1, 2, 3]
    for s in word:
        if s == "a":
            w[0] = -w[0]
        elif s == "b":
            w[0], w[1] = w[1], w[0]
        else:
            w[1], w[2] = w[2], w[1]
    return tuple(w)


# -- braid-class oracle (positive monoids) -------------------------------------


def braid_class(system, word):
    """All positive words equal to `word` in the monoid: the defining
    relations are the braid moves, which preserve length, so the class is
    the finite set of words reachable from `word` by moves alone."""
    moves = []
    for s, t in combinations(system.gens, 2):
        m = system.m(s, t)
        if m != math.inf:
            left = tuple(s if i % 2 == 0 else t for i in range(m))
            right = tuple(t if i % 2 == 0 else s for i in range(m))
            moves += [(left, right), (right, left)]
    word = tuple(word)
    seen = {word}
    stack = [word]
    while stack:
        w = stack.pop()
        for pattern, replacement in moves:
            k = len(pattern)
            for i in range(len(w) - k + 1):
                if w[i : i + k] == pattern:
                    new = w[:i] + replacement + w[i + k :]
                    if new not in seen:
                        seen.add(new)
                        stack.append(new)
    return frozenset(seen)


class BraidClassMonoid:
    """Positive-monoid arithmetic by search over braid classes.

    Every answer is read off the classes of the words involved: equality
    is membership, x left-divides y when some word of y's class starts
    with a word of x's class, and so on.  It is the reference for
    `ArtinMonoid`; only the system's Coxeter matrix, its generator order
    and, for the normal form, the Coxeter group's longest elements are
    shared with the library.
    """

    def __init__(self, system):
        self.system = system
        self._classes = {}

    def braid_class(self, word):
        word = tuple(word)
        found = self._classes.get(word)
        if found is None:
            found = braid_class(self.system, word)
            for w in found:
                self._classes[w] = found
        return found

    def canon(self, word):
        return min(self.braid_class(word), key=self.system.key)

    def rev(self, word):
        return self.canon(tuple(word)[::-1])

    def left_divisors(self, x):
        return {self.canon(w[:k]) for w in self.braid_class(x) for k in range(len(w) + 1)}

    def left_divides(self, x, y):
        x = self.canon(x)
        return any(self.canon(w[: len(x)]) == x for w in self.braid_class(y))

    def right_divides(self, x, y):
        return self.left_divides(tuple(x)[::-1], tuple(y)[::-1])

    def right_quotient(self, x, d):
        d = self.canon(d)
        for w in self.braid_class(x):
            if len(d) <= len(w) and self.canon(w[len(w) - len(d) :]) == d:
                return self.canon(w[: len(w) - len(d)])
        return None

    def left_splits(self, x):
        quotient = {}
        for w in self.braid_class(x):
            for k in range(1, len(w)):
                quotient.setdefault(self.canon(w[:k]), self.canon(w[k:]))
        return sorted(quotient.items(), key=lambda pair: self.system.key(pair[0]))

    def starting_set(self, x):
        return frozenset(w[0] for w in self.braid_class(x) if w)

    def finishing_set(self, x):
        return frozenset(w[-1] for w in self.braid_class(x) if w)

    def left_gcd(self, elems):
        common = set.intersection(*(self.left_divisors(e) for e in elems))
        return max(common, key=len)

    def right_lcm(self, elems, bound):
        """The least common right multiple of length at most `bound`, or
        None when there is no common right multiple that short."""
        elems = sorted({self.canon(e) for e in elems}, key=len)
        base, others = elems[-1], elems[:-1]
        multiples = {base}
        for total in range(len(base), bound + 1):
            if total > len(base):
                multiples = {self.canon(w + (s,)) for w in multiples for s in self.system.gens}
            found = [w for w in multiples if all(self.left_divides(e, w) for e in others)]
            if found:
                (least,) = found
                return least
        return None

    def normal_form(self, x):
        """Each T_j is the finishing set of the rest, and delta(T_j) is the
        longest element of W_{T_j}, from the Coxeter layer."""
        rest, parts = self.canon(x), []
        while rest:
            T = self.finishing_set(rest)
            rest = self.right_quotient(rest, self.system.longest_element(T))
            parts.append(T)
        return tuple(parts)


# -- sparse matrices and the dense Smith reference ----------------------------


def columns(dense):
    """Sparse columns (row -> nonzero entry) of a matrix given by its rows."""
    width = len(dense[0]) if dense else 0
    return [{i: row[j] for i, row in enumerate(dense) if row[j]} for j in range(width)]


def smith_normal_form(matrix):
    """Dense Smith normal form with unimodular witnesses, the reference the
    sparse `invariant_factors` is checked against.

    Returns (diagonal, left, right) with left * matrix * right equal to the
    diagonal matrix of the input's shape; the diagonal is non-negative and
    satisfies the divisibility chain d1 | d2 | ...
    """
    D = [list(map(int, row)) for row in matrix]
    m = len(D)
    n = len(D[0]) if m else 0
    S = [[int(i == j) for j in range(m)] for i in range(m)]
    T = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        S[i], S[j] = S[j], S[i]

    def swap_cols(i, j):
        for row in D + T:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        for M in (D, S):
            M[dst] = [a + q * b for a, b in zip(M[dst], M[src])]

    def add_col(dst, src, q):
        for row in D + T:
            row[dst] += q * row[src]

    t = 0
    while t < min(m, n):
        # smallest nonzero entry of the trailing submatrix becomes the pivot
        pivot = min(
            ((abs(D[i][j]), i, j) for i in range(t, m) for j in range(t, n) if D[i][j]),
            default=None,
        )
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
                    add_row(i, t, -(D[i][t] // D[t][t]))
                    if D[i][t]:
                        swap_rows(i, t)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, n):
                if D[t][j]:
                    add_col(j, t, -(D[t][j] // D[t][t]))
                    if D[t][j]:
                        swap_cols(j, t)
                        dirty = True
                        break
            if dirty:
                continue
            # pivot must divide every remaining entry for the chain property
            offender = next(
                (i for i in range(t + 1, m) for j in range(t + 1, n) if D[i][j] % D[t][t]),
                None,
            )
            if offender is None:
                break
            add_row(t, offender, 1)
        if D[t][t] < 0:
            D[t], S[t] = [-v for v in D[t]], [-v for v in S[t]]
        t += 1
    return [D[k][k] for k in range(min(m, n))], S, T


# -- closed-form homology of finite-type Artin groups ------------------------------


def _degrees(comp, m):
    """Degrees of the irreducible finite Coxeter group on a connected
    component (Humphreys, *Reflection Groups and Coxeter Groups*, table
    3.1), for the types A_n, B_n, D_n, F4, H3, H4 and I2(p) only."""
    n = len(comp)
    edges = {(s, t): m(s, t) for s, t in combinations(comp, 2) if m(s, t) != 2}
    top = max(edges.values(), default=2)
    valence = max((sum(s in e for e in edges) for s in comp), default=0)
    if n <= 2:
        return [2, top][:n]
    if top == 3:
        return list(range(2, 2 * n - 1, 2)) + [n] if valence == 3 else list(range(2, n + 2))
    if top == 4:
        (s, t), = (e for e, v in edges.items() if v == 4)
        inner = all(sum(r in e for e in edges) == 2 for r in (s, t))
        return [2, 6, 8, 12] if n == 4 and inner else list(range(2, 2 * n + 1, 2))
    return {3: [2, 6, 10], 4: [2, 12, 20, 30]}[n]


def _poincare(T, m):
    """Coefficients of W_T(q) = sum of q^l(w): the product of [d]_q over
    the degrees d of each component of T."""
    poly, rest = [1], list(T)
    while rest:
        comp = [rest.pop()]
        for s in comp:
            comp += [t for t in rest if m(s, t) != 2]
            rest = [t for t in rest if m(s, t) == 2]
        for d in _degrees(comp, m):
            poly = [sum(poly[k - i] for i in range(d) if 0 <= k - i < len(poly))
                    for k in range(len(poly) + d - 1)]
    return poly


def _quotient_at_minus_one(num, den):
    """(num / den)(-1) for integer polynomials, den monic and dividing num."""
    num, quotient = list(num), [0] * (len(num) - len(den) + 1)
    for k in reversed(range(len(quotient))):
        quotient[k] = num[k + len(den) - 1]
        for i, c in enumerate(den):
            num[k + i] -= quotient[k] * c
    assert not any(num)
    return sum(c * (-1) ** k for k, c in enumerate(quotient))


def closed_form_homology(system):
    """Integral homology of a finite-type Artin group from De Concini-
    Salvetti's complex with trivial coefficients (Math. Res. Lett. 3, 1996):
    one cell e_T per subset T of S, and the coefficient of e_{T-s} in
    d(e_T) is (-1)^#{t in T : t < s} W_T(q)/W_{T-s}(q) at q = -1.  It uses
    neither W's table nor the monoid."""
    gens = system.gens
    cells = [list(combinations(gens, k)) for k in range(len(gens) + 1)]
    boundaries = [[]]
    for k in range(1, len(gens) + 1):
        rows = {R: i for i, R in enumerate(cells[k - 1])}
        matrix = [[0] * len(cells[k]) for _ in cells[k - 1]]
        for j, T in enumerate(cells[k]):
            for pos in range(k):
                R = T[:pos] + T[pos + 1 :]
                matrix[rows[R]][j] = (-1) ** pos * _quotient_at_minus_one(
                    _poincare(T, system.m), _poincare(R, system.m)
                )
        boundaries.append(matrix)
    boundaries.append([[] for _ in cells[-1]])
    factors = [[d for d in smith_normal_form(b)[0] if d] for b in boundaries]
    return [
        HomologyGroup(len(cells[k]) - len(factors[k]) - len(factors[k + 1]),
                      tuple(d for d in factors[k + 1] if d > 1))
        for k in range(len(gens) + 1)
    ]


def all_words(letters, max_len):
    words = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (s,) for w in frontier for s in letters]
        words.extend(frontier)
    return words


# -- monoid, cell and matching oracles -------------------------------------------


def ids(mon, words):
    """The chain of element ids the library holds for a sequence of
    positive words, such as the suffix products of a cell."""
    return tuple(mon._id(tuple(w)) for w in words)


def words(mon, chain):
    """The canonical words of the elements of a chain of ids."""
    return tuple(mon._word(i) for i in chain)


def right_divisors(mon, x):
    """The proper non-identity right divisors of x as the monoid's element
    table lists them, as words."""
    return [mon._word(q) for q in mon._divisors(mon._id(tuple(x)))]


def elements_of_length(mon, n):
    """The canonical words of the monoid elements of length n, in the
    ShortLex order of the layer the monoid builds."""
    return [mon._word(i) for i in mon._layer(n)]


def iter_cells_of_grade(mon, n):
    """All cells of length n, from the element lists alone; checks
    `bar.factorizations`, which builds each product's cells by splitting."""
    if n == 0:
        yield ()
        return
    for first_len in range(1, n + 1):
        for x in elements_of_length(mon, first_len):
            for rest in iter_cells_of_grade(mon, n - first_len):
                yield (x,) + rest


def factorizations(mon, x):
    """All cells whose product is x, i.e. the ordered factorizations of x
    into non-identity elements, each with its suffix products
    P[j] = x_{j+1} ... x_n for j = 0..n (so P[0] = x and P[n] = 1).

    Splitting y = d * q puts d in front of each factorization of q and q
    in front of its suffix products, so no products are multiplied out;
    d is the right quotient of y by q.
    """
    memo = {}

    def of(y):
        found = memo.get(y)
        if found is None:
            found = [((y,), (y, ()))]
            for q in right_divisors(mon, y):
                d = mon.right_quotient(y, q)
                found.extend(((d,) + cell, (y,) + tail) for cell, tail in of(q))
            memo[y] = found
        return found

    x = mon.canon(x)
    return of(x) if x else [((), ((),))]


# -- cells as tuples of factors: the references for the chain forms ------------


def suffix_products(mon, cell):
    """The chain of a cell, multiplied out: P[j] = x_{j+1} ... x_n for
    j = 0..n, so P[0] is the product and P[n] the identity."""
    products = [()] * (len(cell) + 1)
    for j in range(len(cell) - 1, -1, -1):
        products[j] = mon.mul(cell[j], products[j + 1])
    return tuple(products)


def merge_faces(mon, cell):
    """The length-preserving faces of a cell: x_i and x_{i+1} merged, of
    sign (-1)^i."""
    return [
        (-1 if i % 2 else 1, cell[: i - 1] + (mon.mul(cell[i - 1], cell[i]),) + cell[i + 1 :])
        for i in range(1, len(cell))
    ]


def cell_faces(mon, cell):
    """All simplicial faces of a cell in order with signs +1, -1, ...,
    (-1)^n: drop x_1, merge adjacent factors, drop x_n.  The reference
    for `bar.faces`, which computes them on chains."""
    n = len(cell)
    if n == 0:
        return []
    return [(1, cell[1:]), *merge_faces(mon, cell), (-1 if n % 2 else 1, cell[:-1])]


class MatchEdge(NamedTuple):
    """A matched pair of cells: `lower` is the merge of `upper` at the
    depth slot."""

    upper: tuple
    lower: tuple
    kind: str  # "M1" or "M2"

    def chains(self, mon):
        """The (upper chain, lower chain, kind) triple `BarMatching.edge`
        gives for this pair."""
        return (
            ids(mon, suffix_products(mon, self.upper)),
            ids(mon, suffix_products(mon, self.lower)),
            self.kind,
        )


def full_fiber_complex(mon, x):
    """The fiber of x on every factorization: the `interval_complex` of
    their suffix products x = P[0] > ... > P[n] = 1, so each dimension's
    basis is its cells in the order `factorizations` lists them and the
    differential is the merge differential.  `bar.fiber_complex` keeps
    only the chains through the beat-point core and must have its
    homology."""
    return interval_complex([products for _, products in factorizations(mon, x)])


def is_squarefree(mon, x):
    """Brieskorn-Saito: no word of the class repeats a letter adjacently."""
    return not any(
        w[i] == w[i + 1] for w in braid_class(mon.system, x) for i in range(len(w) - 1)
    )


def recompose(mon, parts):
    """Inverse of `normal_form`: the product delta(T_k) ... delta(T_1)."""
    return mon.mul(*(mon.delta(T) for T in reversed(parts)))


def entry(complex_, T, R):
    """Coefficient of the R-cell in the boundary of the T-cell."""
    row = complex_.cells_by_dim[len(T) - 1].index(R)
    col = complex_.cells_by_dim[len(T)].index(T)
    return complex_.boundaries[len(T)][col].get(row, 0)


def tail_data(matching, cell):
    """(d1, tail sets I_j for j >= d1, d2) read by the matching's helpers;
    I_{n+1} is empty and d2 is None off the depth-essential cells."""
    products = ids(matching.mon, suffix_products(matching.mon, cell))
    d1 = matching._depth(products)
    sets = {j: matching._subset_of[products[j - 1]] for j in range(d1, len(cell) + 1)}
    sets[len(cell) + 1] = frozenset()
    return d1, sets, matching._max_depth(matching._sets(products)) if d1 == 1 else None


def grade(matching, cell):
    """(length, flag); the flag is 0 exactly when the cell's chain has no
    edge or an M2 edge."""
    edge = matching.edge(ids(matching.mon, suffix_products(matching.mon, cell)))
    return cell_length(cell), 0 if edge is None or edge[2] == "M2" else 1


# -- Salvetti order reference ---------------------------------------------------


def sal_leq(system, low, high):
    """The defining order on pairs (element, finite-type subset), tested
    pairwise; the library only lists down-sets (`SalvettiPoset.down_set`)."""
    u, T = low
    v, R = high
    if not T <= R:
        return False
    # generators are involutions, so the reversed word represents v^-1
    quotient = system.mul(tuple(reversed(v)), u)
    # elements of a standard subgroup reduce to words inside it
    if not set(quotient) <= R:
        return False
    return system.is_t_minimal(quotient, T)


def order_complex(
    elements: Sequence, below: Callable[..., Iterable]
) -> list[tuple]:
    """All non-empty chains of a finite poset, as tuples in chain order.

    `below(q)` lists each element p <= q once, q included, and everything
    it lists lies in `elements`.  Each chain comes out once."""
    strictly_below: dict = {}
    for q in elements:
        strictly_below[q] = [p for p in below(q) if p != q]
    chains_ending_at: dict = {}
    ordered = sorted(elements, key=lambda p: len(strictly_below[p]))
    for q in ordered:
        chains = [(q,)]
        for p in strictly_below[q]:
            chains.extend(chain + (q,) for chain in chains_ending_at[p])
        chains_ending_at[q] = chains
    out = []
    for chains in chains_ending_at.values():
        out.extend(chains)
    return out


def translates(poset, base, cell):
    """Whether q -> v q maps the down-set of `base` = (e, R) onto that of
    `cell` = (v, R) as posets: translated, the listing below (e, R) must
    be the listing below (v, R), and the listing below each q the listing
    below v q.  Listings run through b in ShortLex order, then T, so a
    translate keeps that order.  The library's poset is all of W x sf by
    construction, which makes this hold by construction of `down_set`."""
    if base not in poset.cells:
        return False
    source = poset.down_set(base)
    left = {u: poset.system.mul(cell[0], u) for u in {u for u, _ in source}}

    def translate(cells):
        return tuple((left.get(u), T) for u, T in cells)

    return translate(source) == poset.down_set(cell) and all(
        translate(poset.down_set(q)) == poset.down_set((left[q[0]], q[1]))
        for q in source
    )


# -- the matchings on cells: the reference for `BarMatching` -------------------


class CellMatching:
    """The two collapse matchings and their audit, computed on cells: the
    reference for `BarMatching`, which computes them on chains of suffix
    products.  `partner` names the edge through a cell.

    Edges are found by merging two factors (`_merge_at`) or splitting one
    by right quotients (`_split_at`), the incidence of a matched pair by
    multiplying out every merge face of its upper cell, and acyclicity by
    Kahn's sort of the whole face graph of each (x, flag) fiber.  It
    shares only the monoid with the library.
    """

    def __init__(self, mon):
        self.mon = mon
        self.system = mon.system
        self.delta_of = {delta: T for T, delta in mon.deltas().items()}

    def _depth(self, products):
        j = len(products)
        while j > 1 and products[j - 2] in self.delta_of:
            j -= 1
        return j

    def _m1_target(self, products, d):
        return self.delta_of[products[d - 1]] if d < len(products) else frozenset()

    def _m1_edge(self, cell, products):
        d = self._depth(products)
        R = self.mon.finishing_set(products[d - 2])
        if R == self._m1_target(products, d):
            return MatchEdge(cell, self._merge_at(cell, d), "M1")
        return MatchEdge(self._split_at(cell, products, d, R), cell, "M1")

    def _sets(self, products):
        return [self.delta_of[p] for p in products[:-1]] + [frozenset()]

    def _chain_step_ok(self, sets, k):
        removed = sets[k - 1] - sets[k]
        return len(removed) == 1 and next(iter(removed)) == max(
            sets[k - 1], key=self.system.index
        )

    def _max_depth(self, sets):
        j = len(sets)
        while j > 1 and self._chain_step_ok(sets, j - 1):
            j -= 1
        return j

    def _m2_collapsible(self, sets, d):
        if d < 2 or d >= len(sets):
            return False
        key = self.system.index
        return max(sets[d - 2], key=key) == max(sets[d - 1], key=key)

    def _m2_edge(self, cell, products):
        sets = self._sets(products)
        d = self._max_depth(sets)
        if d == 1:
            return None
        if self._m2_collapsible(sets, d):
            return MatchEdge(cell, self._merge_at(cell, d), "M2")
        top = max(sets[d - 2], key=self.system.index)
        upper = self._split_at(cell, products, d, sets[d - 1] | {top})
        return MatchEdge(upper, cell, "M2")

    def partner(self, cell):
        return self._edge(cell, suffix_products(self.mon, cell))

    def _edge(self, cell, products):
        if self._depth(products) == 1:
            return self._m2_edge(cell, products)
        return self._m1_edge(cell, products)

    def _merge_at(self, cell, d):
        return cell[: d - 2] + (self.mon.mul(cell[d - 2], cell[d - 1]),) + cell[d:]

    def _split_at(self, cell, products, d, target):
        """Split x_{d-1} = beta * y so the new tail product equals delta(target)."""
        delta = self.mon.deltas().get(target)
        if delta is None:
            raise InternalError(f"no fundamental element on {sorted(target)}")
        y = self.mon.right_quotient(delta, products[d - 1])
        if y is None:
            raise InternalError(f"tail of {cell} does not divide delta of {sorted(target)}")
        beta = self.mon.right_quotient(cell[d - 2], y)
        if beta is None or not beta:
            raise InternalError(f"degenerate split of {cell} at position {d}")
        return cell[: d - 2] + (beta, y) + cell[d - 1 :]

    def audit_grade(self, length, edges=None):
        audits = (GradeAudit((length, 0)), GradeAudit((length, 1)))
        given = None
        if edges is not None:
            given = {}
            for edge in edges:
                given.setdefault(self.mon.mul(*edge.lower), set()).add(edge)
        for x in elements_of_length(self.mon, length):
            # cell -> (flag, essential, suffix products)
            cells = {}
            own = set()
            for cell, products in factorizations(self.mon, x):
                depth_essential = self._depth(products) == 1
                essential = depth_essential and self._max_depth(self._sets(products)) == 1
                cells[cell] = (0 if depth_essential else 1, essential, products)
                if given is None and not essential:
                    own.add(self._edge(cell, products))
            fiber_edges = own if given is None else given.pop(x, set())
            self._audit_fiber(length, cells, fiber_edges, audits)
        if given:
            edge = next(iter(next(iter(given.values()))))
            raise AuditFailure(f"length {length}: edge endpoint {edge.lower} escapes the length")
        return LengthAudit(audits)

    def _audit_fiber(self, length, cells, edges, audits):
        occurrences = {}
        for edge in edges:
            grade = (length, cells[edge.lower][0] if edge.lower in cells else 1)
            if len(edge.upper) != len(edge.lower) + 1:
                raise AuditFailure(f"{grade}: edge {edge} is not codimension 1")
            incidence = sum(
                sign for sign, face in merge_faces(self.mon, edge.upper) if face == edge.lower
            )
            if incidence not in (1, -1):
                raise AuditFailure(
                    f"{grade}: matched face of {edge.upper} has incidence {incidence}"
                )
            for endpoint in (edge.upper, edge.lower):
                occurrences[endpoint] = occurrences.get(endpoint, 0) + 1
                if endpoint not in cells or cells[endpoint][0] != grade[1]:
                    raise AuditFailure(f"{grade}: edge endpoint {endpoint} escapes the fiber")
            expected = "M2" if grade[1] == 0 else "M1"
            if edge.kind != expected:
                raise AuditFailure(f"{grade}: edge {edge} has kind {edge.kind}")
            audits[grade[1]].edges += 1
        for cell, count in occurrences.items():
            if count > 1:
                raise AuditFailure(
                    f"{(length, cells[cell][0])}: cell {cell} lies on {count} edges"
                )
        for cell, (flag, essential, _) in cells.items():
            matched = cell in occurrences
            if essential and matched:
                raise AuditFailure(f"{(length, flag)}: essential cell {cell} is matched")
            if not essential and not matched:
                raise AuditFailure(f"{(length, flag)}: cell {cell} is unmatched")
            audits[flag].cells += 1
            if essential:
                audits[flag].essential.append(cell)
        for flag in (0, 1):
            self._check_fiber_acyclic(
                (length, flag),
                {products: cell for cell, (f, _, products) in cells.items() if f == flag},
                {
                    (cells[edge.upper][2], cells[edge.lower][2])
                    for edge in edges
                    if cells[edge.lower][0] == flag
                },
            )

    def _check_fiber_acyclic(self, grade, cell_of, reversed_pairs):
        """Kahn's sort of one whole (x, flag) fiber, keyed by suffix
        products: faces point down, except matched pairs, which point up."""
        successors = {node: [] for node in cell_of}
        indegree = dict.fromkeys(cell_of, 0)
        for node in cell_of:
            for i in range(1, len(node) - 1):
                face = node[:i] + node[i + 1 :]
                if face not in cell_of:
                    continue
                if (node, face) in reversed_pairs:
                    source, target = face, node
                else:
                    source, target = node, face
                successors[source].append(target)
                indegree[target] += 1
        queue = [node for node, degree in indegree.items() if degree == 0]
        visited = 0
        while queue:
            node = queue.pop()
            visited += 1
            for target in successors[node]:
                indegree[target] -= 1
                if indegree[target] == 0:
                    queue.append(target)
        if visited != len(cell_of):
            stuck = sorted(
                (cell_of[node] for node, degree in indegree.items() if degree > 0),
                key=lambda c: (len(c), c),
            )
            raise AuditFailure(f"{grade}: matched fiber graph has a cycle through {stuck[:4]}")
