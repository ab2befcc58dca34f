"""Coxeter systems: matrix validation, the word problem, finite-type tools.

Group elements are plain words (tuples of generator names); the
ShortLex-least reduced word for the generator order given at
construction is the canonical form, and that order is also the one the
matching uses downstream.  The table of W numbers its elements:
`_elements[x]` holds element x's canonical word, L, R, the ids of xt for
t in R (`below`), of xs for s not in R (`up`, on first use) and of x^-1;
`_lookup` reads a word one letter at a time from the identity, id 0.
The monoid's simples are these ids, moved by `_up` (ws) and `_down`
(a^-1 w).  The table grows only in `_make`, which enters x = ws, s not in
R(w), by one local rule:

- R(x).  Write x = uv with v in W_{s,t} and u minimal in its coset
  (Bjorner-Brenti, *Combinatorics of Coxeter Groups*, GTM 231, 2.4).
  t != s is in R(x) exactly when v is the longest element of W_{s,t}:
  m = m(s, t) is finite and the walk from w by t, s, t, ... descends
  m - 1 times, to u.  Then xt is u times the alternating word of length
  m - 1 that ends in s, m - 1 ascents.
- Key.  x is entered as the `up` of xt by t for each t in R(x); any
  w's' = x has s' in R(x) and w' = xs', so x is found, and numbered, once.
- Inverse.  For a in L(w), x^-1 = (a^-1 x)^-1 a, where a^-1 x = (a^-1 w)s
  is one letter shorter; L(x) = R(x^-1), and `_down` reads a^-1 w as
  (w^-1 a)^-1.  Word: min L(x), then the word of min L(x)^-1 x.

x is entered before x^-1 is made; x^-1 has the length of x and its own
inverse step finds x, and all else the rule reads or makes is shorter,
so the fill ends.  It runs on an explicit stack of `_make` generators,
clear of the recursion limit.  No class of reduced words is enumerated.

Finite-type recognition classifies each connected component of the
Coxeter graph against the catalogue A_n, B_n, D_n, E6, E7, E8, F4, H3,
H4, I2(m).  Everything is exact integer arithmetic.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations
from typing import Iterable, Mapping

from .errors import (
    AsymmetricMatrix,
    BadDiagonal,
    BadEntry,
    DuplicateGenerator,
    InfiniteType,
    UnknownGenerator,
)

Word = tuple[str, ...]

def alternating_word(first: str, second: str, count: int) -> Word:
    """The alternating word ``first second first ...`` of the given length."""
    return tuple(first if i % 2 == 0 else second for i in range(count))


def _pair(s: str, t: str) -> tuple[str, str]:
    return (s, t) if s <= t else (t, s)


class _Element:
    """One element x of W: its canonical word, L(x), R(x), the ids of xt
    for t in R(x) (`below`) and of xs for s not in R(x) (`up`, filled on
    first use), and the id of x^-1.  The defaults are the identity's."""

    __slots__ = ("word", "left", "right", "below", "up", "inverse")

    def __init__(self, right: frozenset[str], below: dict[str, int]):
        self.word, self.left, self.right, self.below = (), frozenset(), right, below
        self.up: dict[str, int] = {}
        self.inverse = 0


class CoxeterSystem:
    """An ordered generating set with a validated Coxeter matrix.

    `gens` fixes the total order used for ShortLex canonical forms.
    `orders` maps unordered generator pairs to m(s, t); missing pairs
    default to 2 (commuting) and ``math.inf`` marks absent relations.
    """

    def __init__(self, gens: Iterable[str], orders: Mapping | None = None):
        self.gens: Word = tuple(gens)
        if len(set(self.gens)) != len(self.gens):
            raise DuplicateGenerator(f"duplicate generators in {self.gens}")
        self._index = {s: i for i, s in enumerate(self.gens)}
        self._m: dict[tuple[str, str], int | float] = {}
        for (s, t), value in (orders or {}).items():
            if s not in self._index or t not in self._index:
                raise UnknownGenerator(f"m given for unknown pair ({s}, {t})")
            if s == t:
                raise BadDiagonal(f"m({s},{s}) is fixed at 1 and cannot be set")
            if value != math.inf and (not isinstance(value, int) or value < 2):
                raise BadEntry(f"m({s},{t}) = {value!r}; need an integer >= 2 or inf")
            key = _pair(s, t)
            if key in self._m and self._m[key] != value:
                raise AsymmetricMatrix(
                    f"m({s},{t}) given twice with different values "
                    f"({self._m[key]} vs {value})"
                )
            self._m[key] = value
        # per s: each t with m(s, t) finite, the walk t s t ... and the climb back
        self._walks: dict[str, list[tuple[str, Word, Word]]] = {s: [] for s in self.gens}
        for s, t in permutations(self.gens, 2):
            m = self.m(s, t)
            if m != math.inf:
                self._walks[s].append(
                    (t, alternating_word(t, s, m - 1), alternating_word(s, t, m - 1)[::-1])
                )
        # id 0 is the identity
        self._elements: list[_Element] = [_Element(frozenset(), {})]
        self._finite: dict[frozenset[str], bool] = {}

    # -- basic structure ------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.gens)

    def m(self, s: str, t: str) -> int | float:
        if s not in self._index or t not in self._index:
            raise UnknownGenerator(f"unknown generator in pair ({s}, {t})")
        if s == t:
            return 1
        return self._m.get(_pair(s, t), 2)

    def index(self, s: str) -> int:
        try:
            return self._index[s]
        except KeyError:
            raise UnknownGenerator(f"unknown generator {s!r}") from None

    def key(self, word: Iterable[str]) -> tuple[int, ...]:
        """ShortLex sort key of a word (all comparisons go through this)."""
        return tuple(map(self._index.__getitem__, word))

    def check_word(self, word: Iterable[str]) -> Word:
        word = tuple(word)
        for s in word:
            if s not in self._index:
                raise UnknownGenerator(f"unknown generator {s!r} in word")
        return word

    def check_subset(self, T: Iterable[str]) -> frozenset[str]:
        T = frozenset(T)
        for s in T:
            if s not in self._index:
                raise UnknownGenerator(f"unknown generator {s!r} in subset")
        return T

    def sorted_subset(self, T: Iterable[str]) -> tuple[str, ...]:
        return tuple(sorted(T, key=self._index.__getitem__))

    # -- word problem ----------------------------------------------------

    def _lookup(self, word: Word) -> int:
        """Id of the element a word represents, read one letter at a time."""
        i = 0
        for s in word:
            j = self._up(i, s)
            i = self._elements[i].below[s] if j is None else j
        return i

    def _up(self, i: int, s: str) -> int | None:
        """Id of ws for the element with id i, or None when s is in R(w).  A
        miss runs `_make(i, s)`, and each `_make` it asks for, on one stack."""
        elements = self._elements
        j = elements[i].up.get(s)
        if j is not None or s in elements[i].right:
            return j
        stack = [self._make(i, s)]
        while stack:
            try:
                i, s = stack[-1].send(j)
            except StopIteration as made:
                stack.pop()
                j = made.value
            else:
                j = elements[i].up.get(s)
                if j is None:
                    stack.append(self._make(i, s))
        return j

    def _down(self, a: str, i: int) -> int:
        """Id of a^-1 w for the element with id i, for a in L(w)."""
        elements = self._elements
        return elements[elements[elements[i].inverse].below[a]].inverse

    def _make(self, i: int, s: str):
        """Enter x = ws for w with id i, s not in R(w), by the module's rule:
        a generator that yields each ascent (id, letter) it needs, is sent
        its product's id, and returns the id of x."""
        elements = self._elements
        below = {s: i}
        for t, walk, back in self._walks[s]:
            u = i
            for r in walk:
                if r not in elements[u].right:
                    break
                u = elements[u].below[r]
            else:
                for r in back:
                    u = yield u, r
                below[t] = u
        x = len(elements)
        entry = _Element(frozenset(below), below)
        elements.append(entry)
        for t, v in below.items():
            elements[v].up[t] = x
        if i:
            a = elements[i].word[0]
            shorter = yield self._down(a, i), s
            entry.inverse = yield elements[shorter].inverse, a
        else:
            entry.inverse = x
        entry.left = elements[entry.inverse].right
        a = min(entry.left, key=self._index.__getitem__)
        entry.word = (a,) + elements[self._down(a, x)].word
        return x

    def descents(self, w: Word) -> tuple[frozenset[str], frozenset[str]]:
        """(L(w), R(w)) for the element a word w represents."""
        entry = self._elements[self._lookup(w)]
        return entry.left, entry.right

    def canon(self, word: Iterable[str]) -> Word:
        """ShortLex-least reduced word of the element `word` represents."""
        return self._elements[self._lookup(self.check_word(word))].word

    def mul(self, *words: Iterable[str]) -> Word:
        combined: tuple[str, ...] = ()
        for w in words:
            combined = combined + tuple(w)
        return self.canon(combined)

    # -- finite-type recognition ------------------------------------------

    def is_finite_type(self, T: Iterable[str]) -> bool:
        """Whether the standard subgroup generated by T is finite."""
        T = self.check_subset(T)
        cached = self._finite.get(T)
        if cached is not None:
            return cached
        result = all(
            _finite_component(comp, self.m) for comp in self._components(T)
        )
        self._finite[T] = result
        return result

    def _components(self, T: frozenset[str]) -> list[list[str]]:
        remaining = set(T)
        components = []
        while remaining:
            start = remaining.pop()
            comp = {start}
            stack = [start]
            while stack:
                s = stack.pop()
                for t in list(remaining):
                    if self.m(s, t) != 2:
                        remaining.discard(t)
                        comp.add(t)
                        stack.append(t)
            components.append(sorted(comp, key=self._index.__getitem__))
        return components

    def sf(self) -> list[frozenset[str]]:
        """All subsets T with finite standard subgroup, smallest first."""
        out = []
        for size in range(self.rank + 1):
            for combo in combinations(self.gens, size):
                T = frozenset(combo)
                if self.is_finite_type(T):
                    out.append(T)
        return out

    # -- finite standard subgroups ----------------------------------------

    def enumerate_group(self, T: Iterable[str]) -> list[Word]:
        """All elements of the standard subgroup on T, canonical words."""
        T = self.check_subset(T)
        if not self.is_finite_type(T):
            raise InfiniteType(f"subgroup on {sorted(T)} is infinite")
        letters = self.sorted_subset(T)
        # canonical words are prefix-closed: each element comes once, in ShortLex order
        table = self._elements
        ids = [0]
        for i in ids:
            for s in letters:
                j = self._up(i, s)
                if j is not None and table[j].word[:-1] == table[i].word:
                    ids.append(j)
        return [table[i].word for i in ids]

    def longest_element(self, T: Iterable[str]) -> Word:
        """Canonical word of the longest element of W_T: climb by ascents."""
        T = self.check_subset(T)
        if not self.is_finite_type(T):
            raise InfiniteType(f"subgroup on {sorted(T)} is infinite")
        letters = self.sorted_subset(T)
        table = self._elements
        i = 0
        while True:
            ascent = next((s for s in letters if s not in table[i].right), None)
            if ascent is None:
                return table[i].word
            i = self._up(i, ascent)

    def is_t_minimal(self, word: Iterable[str], T: Iterable[str]) -> bool:
        """Shortest-in-coset test: no letter of T is a right descent."""
        return self.check_subset(T).isdisjoint(self.descents(self.check_word(word))[1])


def _finite_component(comp: list[str], m) -> bool:
    """Catalogue lookup for one connected Coxeter-graph component."""
    n = len(comp)
    edges = [
        (s, t, m(s, t)) for s, t in combinations(comp, 2) if m(s, t) != 2
    ]
    if any(label == math.inf for _, _, label in edges):
        return False
    if n <= 2:
        return True  # A1 or I2(m) with m finite
    if len(edges) != n - 1:
        return False  # a cycle: affine or worse
    degree = {s: 0 for s in comp}
    for s, t, _ in edges:
        degree[s] += 1
        degree[t] += 1
    if max(degree.values()) > 3:
        return False
    branch = [s for s in comp if degree[s] == 3]
    if len(branch) > 1:
        return False
    heavy = sorted(label for _, _, label in edges if label > 3)
    if not heavy:
        if not branch:
            return True  # A_n
        arms = sorted(_arm_lengths(branch[0], comp, edges))
        if arms[0] == 1 and arms[1] == 1:
            return True  # D_n
        return arms in ([1, 2, 2], [1, 2, 3], [1, 2, 4])  # E6, E7, E8
    if branch or len(heavy) > 1 or heavy[0] > 5:
        return False
    # a path with exactly one marked edge
    s, t, label = next(e for e in edges if e[2] > 3)
    at_end = degree[s] == 1 or degree[t] == 1
    if label == 4:
        return at_end or n == 4  # B_n, else F4's middle edge
    # label == 5: H3 or H4 with the marked edge at an end
    return at_end and n in (3, 4)


def _arm_lengths(center: str, comp: list[str], edges) -> list[int]:
    adjacency: dict[str, list[str]] = {s: [] for s in comp}
    for s, t, _ in edges:
        adjacency[s].append(t)
        adjacency[t].append(s)
    arms = []
    for start in adjacency[center]:
        length = 1
        prev, node = center, start
        while True:
            nxt = [x for x in adjacency[node] if x != prev]
            if not nxt:
                break
            prev, node = node, nxt[0]
            length += 1
        arms.append(length)
    return arms
