"""Coxeter systems: matrix validation, the word problem, finite-type tools.

Group elements are plain words (tuples of generator names).  Equality is
decided exactly by Tits' solution of the word problem and Matsumoto's
theorem: the reduced words of one element form a single braid-closure
class, and for reduced w, l(ws) < l(w) exactly when some word of that
class ends in s.  The ShortLex-least reduced word (with respect to the
generator order given at construction) is the canonical form; that same
generator order is the total order consumed by the matching machinery
downstream, so there is one global convention.

The table of W numbers its elements.  `_canon` names every word met by
its element's id, and `_elements`, a list indexed by id, holds per
element its canonical word, L(w), R(w), a reduced word of a^-1 w per
left descent a, and the ids of ws and a^-1 w, resolved on first use.
Both are filled in one place, the miss branch of `_lookup`, from one
braid closure per element.  The Artin monoid's simples (the positive
lifts of W) are these ids and move between each other through the
private transitions `_up` (ws) and `_down` (a^-1 w); a word comes back
from an id, as `_elements[i].word`, only where a public method returns
one.  `canon` folds a word's letters from the right: a letter of L
strips off, any other prepends.

Finite-type recognition classifies each connected component of the
Coxeter graph against the catalogue A_n, B_n, D_n, E6, E7, E8, F4, H3,
H4, I2(m).  Everything is exact integer arithmetic.
"""

from __future__ import annotations

import math
from itertools import combinations
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
    """One element of W: its canonical word, L(w), R(w), a word of a^-1 w
    for each a in L(w), and the ids of ws (`up`, None for s in R(w)) and
    of a^-1 w (`down`), filled on first use."""

    __slots__ = ("word", "left", "right", "tails", "up", "down")

    def __init__(self, word: Word, closure: frozenset[Word]):
        tails: dict[str, Word] = {}
        right: set[str] = set()
        for w in closure:
            if w and w[0] not in tails:
                tails[w[0]] = w[1:]
            if w:
                right.add(w[-1])
        self.word, self.tails = word, tails
        self.left, self.right = frozenset(tails), frozenset(right)
        self.up: dict[str, int | None] = {}
        self.down: dict[str, int] = {}


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
        # braid-move substitutions, which generate each reduced-word class
        self._moves: list[tuple[Word, Word]] = []
        for s, t in combinations(self.gens, 2):
            m = self.m(s, t)
            if m != math.inf:
                left = alternating_word(s, t, m)
                right = alternating_word(t, s, m)
                self._moves.append((left, right))
                self._moves.append((right, left))
        # every value of _canon indexes _elements; the identity is seeded as
        # id 0 because `canon(())` names it without a braid closure
        self._canon: dict[Word, int] = {(): 0}
        self._elements: list[_Element] = [_Element((), frozenset({()}))]
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

    def braid_closure(self, word: Word) -> frozenset[Word]:
        """All words reachable from `word` by braid moves alone."""
        seen = {word}
        stack = [word]
        while stack:
            w = stack.pop()
            for pattern, replacement in self._moves:
                k = len(pattern)
                for i in range(len(w) - k + 1):
                    if w[i : i + k] == pattern:
                        new = w[:i] + replacement + w[i + k :]
                        if new not in seen:
                            seen.add(new)
                            stack.append(new)
        return frozenset(seen)

    def _lookup(self, word: Word) -> int:
        """Id of the element with reduced word `word`.

        The table's only fill: on a miss, close the class once, number its
        entry, keyed by the ShortLex-least word, and name every word of
        the class by it.
        """
        i = self._canon.get(word)
        if i is None:
            closure = self.braid_closure(word)
            i = len(self._elements)
            self._elements.append(_Element(min(closure, key=self.key), closure))
            for w in closure:
                self._canon[w] = i
        return i

    def _up(self, i: int, s: str) -> int | None:
        """Id of ws for the element with id i, or None when s is in R(w)."""
        entry = self._elements[i]
        try:
            return entry.up[s]
        except KeyError:
            j = entry.up[s] = None if s in entry.right else self._lookup(entry.word + (s,))
            return j

    def _down(self, a: str, i: int) -> int:
        """Id of a^-1 w for the element with id i, for a in L(w)."""
        entry = self._elements[i]
        try:
            return entry.down[a]
        except KeyError:
            j = entry.down[a] = self._lookup(entry.tails[a])
            return j

    def descents(self, w: Word) -> tuple[frozenset[str], frozenset[str]]:
        """(L(w), R(w)) for a reduced word w."""
        entry = self._elements[self._lookup(w)]
        return entry.left, entry.right

    def times(self, w: Word, s: str) -> Word | None:
        """Canonical word of ws for a reduced word w, or None when s is in R(w)."""
        j = self._up(self._lookup(w), s)
        return None if j is None else self._elements[j].word

    def strip(self, a: str, w: Word) -> Word:
        """Canonical word of a^-1 w, for a in L(w)."""
        return self._elements[self._down(a, self._lookup(w))].word

    def canon(self, word: Iterable[str]) -> Word:
        """ShortLex-least reduced word of the element `word` represents."""
        word = self.check_word(word)
        i = self._canon.get(word)
        if i is None:
            current: Word = ()
            for s in reversed(word):
                # `current` is reduced and s = s^-1, so s either strips off
                # the left (exchange) or lengthens it
                if s in self.descents(current)[0]:
                    current = self.strip(s, current)
                else:
                    current = self._elements[self._lookup((s,) + current)].word
            i = self._canon[word] = self._lookup(current)
        return self._elements[i].word

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
        elements: list[Word] = [()]
        for w in elements:
            for s in letters:
                u = self.times(w, s)
                if u is not None and u[:-1] == w:
                    elements.append(u)
        return elements

    def longest_element(self, T: Iterable[str]) -> Word:
        """Canonical word of the longest element of W_T: climb by ascents."""
        T = self.check_subset(T)
        if not self.is_finite_type(T):
            raise InfiniteType(f"subgroup on {sorted(T)} is infinite")
        letters = self.sorted_subset(T)
        w: Word = ()
        while True:
            below = self.descents(w)[1]
            ascent = next((s for s in letters if s not in below), None)
            if ascent is None:
                return w
            w = self.times(w, ascent)

    def is_t_minimal(self, word: Iterable[str], T: Iterable[str]) -> bool:
        """Shortest-in-coset test: no letter of T is a right descent."""
        return self.check_subset(T).isdisjoint(self.descents(self.canon(word))[1])


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
