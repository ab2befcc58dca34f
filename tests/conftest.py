"""Shared systems and independent oracles for the test suite.

The oracles here decide the word problem through faithful models that
never touch the rewriting code under test: symmetric groups acting by
adjacent transpositions for the linear diagrams, affine maps
x -> sign*x + shift on Z (mod 2m) for the dihedral systems, window
notation for the affine permutations of the affine Weyl group A~2, and
signed permutations for B3.  The positive monoid is checked against
enumeration of braid classes of positive words (`BraidClassMonoid`),
which shares no code with `artin.py`.  Library surface that only the
tests need lives here too.
"""

import math
from itertools import combinations

import pytest

from artinhom import ArtinMonoid, CoxeterSystem
from artinhom.bar import cell_length, factorizations
from artinhom.homology import interval_complex


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


def all_words(letters, max_len):
    words = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (s,) for w in frontier for s in letters]
        words.extend(frontier)
    return words


# -- monoid, cell and matching oracles -------------------------------------------


def iter_cells_of_grade(mon, n):
    """All cells of length n, from the element lists alone; checks
    `bar.factorizations`, which builds each product's cells by splitting."""
    if n == 0:
        yield ()
        return
    for first_len in range(1, n + 1):
        for x in mon.elements_of_length(first_len):
            for rest in iter_cells_of_grade(mon, n - first_len):
                yield (x,) + rest


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
    products = matching.suffix_products(cell)
    d1 = matching._depth(products)
    sets = {j: matching.delta_of[products[j - 1]] for j in range(d1, len(cell) + 1)}
    sets[len(cell) + 1] = frozenset()
    return d1, sets, matching._max_depth(matching._sets(products)) if d1 == 1 else None


def grade(matching, cell):
    """(length, flag); the flag is 0 exactly when `partner` gives None or M2."""
    edge = matching.partner(cell)
    return cell_length(cell), 0 if edge is None or edge.kind == "M2" else 1


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
