"""Exact arithmetic in the positive (Artin) monoid of a Coxeter system.

Monoid elements are positive words.  The defining relations preserve
length, and the canonical form of an element is the ShortLex-least word
equal to it.  Words go in and canonical words come out; inside, an
element is its left-greedy normal form s_1 | ... | s_k, a tuple of
simple elements (the positive lifts of Coxeter-group elements), s_1
being the greatest simple left divisor of the product, s_2 that of the
rest, and so on.

Write L(s) and R(s) for the letters dividing a simple s on the left and
on the right.  By Michel ("A note on words in braid monoids", J. Algebra
215, 1999) a sequence of simples is in normal form exactly when
L(s_{i+1}) is contained in R(s_i) for every i, in every Artin monoid,
finite type or not.  So a pair u | v is normalized by moving letters
a in L(v) but not in R(u) across, and the simples form a Garside family
(Dehornoy-Digne-Godelle-Krammer-Michel, *Foundations of Garside Theory*,
EMS 2015): after multiplying by a letter on the right one right-to-left
sweep of pair normalizations restores the form, and after dividing by a
letter on the left one left-to-right sweep does.

A simple is named by the id of the Coxeter-group element it lifts in the
table of W in `CoxeterSystem`, so its L and R are that element's descent
sets and the transitions between simples (times a letter, strip a
letter) are the group's (`CoxeterSystem._up` and `_down`), all read from
that table, which grows in one place, `CoxeterSystem._make`.  Every pair
normalization is memoized.  No class of positive words is ever
enumerated; the test suite keeps braid-class enumeration as the oracle
for everything here.

Each element met gets an integer id in one element table, filled in one
place (`_element`) and keyed by normal form: per id it holds the normal
form, L and R, the ids of the proper non-identity right divisors and of
the reversal, and the canonical word.  `_layer` lists the ids of one
length, building each x as w * s from the layer before, so the letters
s that build x are R(x) and are recorded there; any other element gets
R, the L of its reversal, on first need.  The ShortLex-least word peels
min L(s_1) off repeatedly, once per element.  The right divisors of x
are read off its splits d * q, listing the q only (`_divisors`); these
are the entries of the chains of the interval [1, x] that the bar
fibers, the matching's audits and the collapse hold as tuples of ids.
A word goes in by folding its letters (`_id`) and comes back from an id
(`_word`) only for answers, output and error messages.  Right-hand
questions go through the reversal anti-automorphism, linked both ways
between entries (`_reverse`).  Least common multiples use bounded
search over ids.  `none` is reported only when non-existence is a
theorem: every common multiple is left-divisible by all letters that
left-divide an argument, and a set of letters has a common multiple
only when it is of finite type (Brieskorn-Saito).
"""

from __future__ import annotations

from typing import Iterable

from .coxeter import CoxeterSystem, Word
from .errors import InfiniteType, InternalError, Undecided

DEFAULT_SEARCH_BOUND = 16

# a simple element, named by its id in the table of W (0 is the identity)
Simple = int
# the left-greedy normal form of an element: non-identity simples
Normal = tuple[Simple, ...]


class _Element:
    """One monoid element: its normal form, L and R, its proper
    non-identity right divisors (ids), the id of its reversal and its
    canonical word.  All but the normal form and L are filled on first
    need."""

    __slots__ = ("normal", "left", "right", "divisors", "reverse", "word")

    def __init__(self, normal: Normal, left: frozenset[str]):
        self.normal, self.left = normal, left
        self.right: frozenset[str] | None = None
        self.divisors: list[int] | None = None
        self.reverse: int | None = None
        self.word: Word | None = None


class ArtinMonoid:
    """Positive monoid attached to a Coxeter system."""

    def __init__(self, system: CoxeterSystem):
        self.system = system
        # the W table's entries, indexed by the ids that name the simples
        self._simples = system._elements
        # the element table: id -> entry, filled by `_element` alone; the
        # identity is id 0, and its word is the one nothing is peeled from
        self._table: list[_Element] = []
        self._ids: dict[Normal, int] = {}
        self._table[self._element(())].word = ()
        # length n -> the ids of the elements of length n, in ShortLex order
        self._layers: list[list[int]] = [[0]]
        self._deltas: dict[frozenset[str], Word] | None = None
        self._pairs: dict[tuple[Simple, Simple], tuple[Simple, Simple]] = {}
        self._quotients: dict[tuple[int, int], int | None] = {}
        self._letter_sets: dict[tuple[str, ...], frozenset[str]] = {}

    # -- normal forms --------------------------------------------------------

    def _normalize(self, u: Simple, v: Simple) -> tuple[Simple, Simple]:
        """(u', v') with u'v' = uv and u' | v' normal: move the letters of
        L(v) that u can absorb, one at a time."""
        key = (u, v)
        pair = self._pairs.get(key)
        if pair is None:
            simples = self._simples
            while v:
                movable = simples[v].left - simples[u].right
                if not movable:
                    break
                a = next(iter(movable))
                u, v = self.system._up(u, a), self.system._down(a, v)
            pair = self._pairs[key] = (u, v)
        return pair

    def _append(self, normal: Normal, a: str) -> Normal:
        """Normal form of x * a: one right-to-left sweep."""
        parts = list(normal)
        up = self.system._up
        last = up(parts[-1], a) if parts else None
        if last is None:
            # the identity times a: the simple a
            parts.append(up(0, a))
        else:
            parts[-1] = last
        for i in range(len(parts) - 1, 0, -1):
            u, v = self._normalize(parts[i - 1], parts[i])
            if u == parts[i - 1]:
                break
            parts[i - 1], parts[i] = u, v
        while not parts[-1]:
            parts.pop()
        return tuple(parts)

    def _strip_front(self, a: str, normal: Normal) -> Normal:
        """Normal form of a^-1 * x, for a in L(x) = L(s_1): one
        left-to-right sweep."""
        head = self.system._down(a, normal[0])
        if not head:
            return normal[1:]
        parts = [head, *normal[1:]]
        for i in range(len(parts) - 1):
            u, v = self._normalize(parts[i], parts[i + 1])
            if v == parts[i + 1]:
                break
            parts[i], parts[i + 1] = u, v
        while not parts[-1]:
            parts.pop()
        return tuple(parts)

    def _left(self, normal: Normal) -> frozenset[str]:
        """The letters that left-divide the element."""
        return self._simples[normal[0]].left if normal else frozenset()

    # -- the element table -----------------------------------------------------

    def _element(self, normal: Normal) -> int:
        """Id of the element with this normal form; the table's only fill."""
        i = self._ids.get(normal)
        if i is None:
            i = self._ids[normal] = len(self._table)
            self._table.append(_Element(normal, self._left(normal)))
        return i

    def _id(self, word: Word) -> int:
        """Id of the element a word names: its checked letters folded in."""
        normal: Normal = ()
        for a in self.system.check_word(word):
            normal = self._append(normal, a)
        return self._element(normal)

    def _word(self, i: int) -> Word:
        """ShortLex-least word: peel min L until an element with a word is left."""
        table = self._table
        word = table[i].word
        if word is None:
            peeled: list[tuple[int, str]] = []
            while table[i].word is None:
                # min L(x) = min L(s_1), the first letter of the word of s_1
                a = self._simples[table[i].normal[0]].word[0]
                peeled.append((i, a))
                i = self._element(self._strip_front(a, table[i].normal))
            word = table[i].word
            for i, a in reversed(peeled):
                word = table[i].word = (a,) + word
        return word

    def _reverse(self, i: int) -> int:
        """Id of the reversal of element i, linked both ways on first need."""
        entry = self._table[i]
        j = entry.reverse
        if j is None:
            j = entry.reverse = self._id(self._word(i)[::-1])
            self._table[j].reverse = i
        return j

    def _right(self, i: int) -> frozenset[str]:
        """R of element i: recorded when `_layer` built it, else L of the
        reversal, once."""
        entry = self._table[i]
        right = entry.right
        if right is None:
            right = entry.right = self._table[self._reverse(i)].left
        return right

    def _layer(self, n: int) -> list[int]:
        """Ids of all monoid elements of length n, in ShortLex order."""
        table, layers = self._table, self._layers
        while len(layers) <= n:
            # one letter on the right of each element of the layer before.
            # The letters s that build x are R(x), since every x s^-1 is in
            # that layer.  The least word of x ends in some s of R(x), after
            # the least word of x s^-1; the layer before is in ShortLex
            # order and the letters go in generator order, so the first
            # (w, s) to build x spells its least word w s, and the new
            # layer comes out in ShortLex order.
            grown: dict[int, list[str]] = {}
            for w in layers[-1]:
                normal = table[w].normal
                for s in self.system.gens:
                    i = self._element(self._append(normal, s))
                    right = grown.get(i)
                    if right is None:
                        grown[i] = [s]
                    else:
                        right.append(s)
            for i, right in grown.items():
                # one frozenset per set of letters, listed in generator order
                key = tuple(right)
                table[i].right = self._letter_sets.setdefault(key, frozenset(key))
            layers.append(list(grown))
        return layers[n]

    def _divisors(self, i: int) -> list[int]:
        """Ids of the proper non-identity right divisors of element i: each
        q with d * q = x for a non-identity d, once, in the ShortLex order
        of d.

        The ShortLex-least word of d is its least left letter b followed
        by the word of b^-1 d, and b left-divides d exactly when q
        right-divides b^-1 x (cancel b on the left of x = d * q).  So for
        each b in L(x) in turn, the q whose d begins with b are b^-1 x and
        the right divisors of b^-1 x, less those a smaller letter already
        reached; they come out in order.
        """
        entry = self._table[i]
        divisors = entry.divisors
        if divisors is None:
            divisors = []
            reached: set[int] = set()
            for b in self.system.gens:
                if b not in entry.left:
                    continue
                y = self._element(self._strip_front(b, entry.normal))
                if not y:
                    continue
                for q in [y, *self._divisors(y)]:
                    if q not in reached:
                        reached.add(q)
                        divisors.append(q)
            entry.divisors = divisors
        return divisors

    def _quotient(self, x: int, d: int) -> int | None:
        """Id of the y with y * d = x, or None when d does not right divide x."""
        key = (x, d)
        try:
            return self._quotients[key]
        except KeyError:
            pass
        # rev(d) * rev(y) = rev(x)
        quotient = self._left_quotient(
            self._table[self._reverse(x)].normal, self._word(d)[::-1]
        )
        result = None if quotient is None else self._reverse(self._element(quotient))
        self._quotients[key] = result
        return result

    # -- equivalence ------------------------------------------------------

    def canon(self, word: Iterable[str]) -> Word:
        return self._word(self._id(tuple(word)))

    def mul(self, *words: Iterable[str]) -> Word:
        combined: tuple[str, ...] = ()
        for w in words:
            combined = combined + tuple(w)
        return self.canon(combined)

    def rev(self, word: Iterable[str]) -> Word:
        return self.canon(tuple(reversed(tuple(word))))

    # -- divisibility -----------------------------------------------------

    def _left_quotient(self, normal: Normal, d: Word) -> Normal | None:
        """Normal form of d^-1 * x, or None when the word d does not
        left-divide x: strip d's letters one at a time."""
        for a in d:
            if a not in self._left(normal):
                return None
            normal = self._strip_front(a, normal)
        return normal

    def left_divides(self, x: Iterable[str], y: Iterable[str]) -> bool:
        x = self.system.check_word(x)
        y = self.system.check_word(y)
        if len(x) > len(y):
            return False
        return self._left_quotient(self._table[self._id(y)].normal, x) is not None

    def right_divides(self, x: Iterable[str], y: Iterable[str]) -> bool:
        return self.left_divides(tuple(x)[::-1], tuple(y)[::-1])

    def right_quotient(self, x: Iterable[str], d: Iterable[str]) -> Word | None:
        """The y with y*d = x, or None when d does not right divide x."""
        y = self._quotient(self._id(tuple(x)), self._id(tuple(d)))
        return None if y is None else self._word(y)

    # -- gcd / lcm ----------------------------------------------------------

    def left_gcd(self, elems: Iterable[Iterable[str]]) -> Word:
        """Greatest common left divisor of a non-empty set.

        A letter divides the gcd exactly when it divides every argument,
        so peeling the least such letter spells the gcd's canonical word.
        """
        normals = [self._table[self._id(self.system.check_word(e))].normal for e in elems]
        if not normals:
            raise ValueError("left_gcd of an empty set")
        gcd: list[str] = []
        while True:
            common = frozenset.intersection(*(self._left(n) for n in normals))
            if not common:
                return tuple(gcd)
            a = min(common, key=self.system.index)
            gcd.append(a)
            normals = [self._strip_front(a, n) for n in normals]

    def right_gcd(self, elems: Iterable[Iterable[str]]) -> Word:
        reverse = [tuple(reversed(self.system.check_word(e))) for e in elems]
        return self.rev(self.left_gcd(reverse))

    def right_lcm(
        self, elems: Iterable[Iterable[str]], bound: int | None = None
    ) -> Word | None:
        """Least common right multiple; None only on proven non-existence.

        A common right multiple is left-divisible by every letter that
        left-divides an argument, so those letters must be of finite
        type.  For a set of single generators that is also sufficient
        and supplies the exact search bound.  For general sets a
        configurable bound applies and exhausting it raises Undecided.
        """
        elems = sorted(
            {self.canon(e) for e in elems}, key=lambda w: (len(w), self.system.key(w))
        )
        if not elems:
            raise ValueError("right_lcm of an empty set")
        if len(elems) == 1:
            return elems[0]
        letters = frozenset().union(*(self.starting_set(e) for e in elems))
        if not self.system.is_finite_type(letters):
            return None
        guaranteed = False
        if all(len(e) == 1 for e in elems):
            bound = len(self.delta(letters))
            guaranteed = True
        elif bound is None:
            bound = DEFAULT_SEARCH_BOUND
        base = elems[-1]
        others = elems[:-1]
        table = self._table
        # the ids of the multiples of base of each length; the others are
        # no longer than base, so a quotient decides divisibility
        multiples = {self._id(base)}
        for total in range(len(base), bound + 1):
            if total > len(base):
                multiples = {
                    self._element(self._append(table[w].normal, s))
                    for w in multiples
                    for s in self.system.gens
                }
            found = [
                w
                for w in multiples
                if all(self._left_quotient(table[w].normal, e) is not None for e in others)
            ]
            if found:
                if len(found) != 1:
                    words = sorted(self._word(w) for w in found)
                    raise InternalError(f"distinct minimal common multiples {words}")
                return self._word(found[0])
        if guaranteed:
            raise InternalError(
                f"least common multiple of {elems} not found within its bound"
            )
        raise Undecided(
            f"no common right multiple of {elems} within length {bound}"
        )

    def left_lcm(
        self, elems: Iterable[Iterable[str]], bound: int | None = None
    ) -> Word | None:
        reverse = [tuple(reversed(self.system.check_word(e))) for e in elems]
        result = self.right_lcm(reverse, bound=bound)
        return None if result is None else self.rev(result)

    # -- fundamental elements ----------------------------------------------

    def delta(self, T: Iterable[str]) -> Word:
        """Fundamental element on T: the positive lift of the longest element.

        Its reduced words form its monoid class, so the group's canonical
        word is the monoid's too.
        """
        T = self.system.check_subset(T)
        if not self.system.is_finite_type(T):
            raise InfiniteType(f"no fundamental element on {sorted(T)}")
        return self.system.longest_element(T)

    def deltas(self) -> dict[frozenset[str], Word]:
        """Fundamental elements for every non-empty finite-type subset."""
        if self._deltas is None:
            self._deltas = {
                T: self.delta(T) for T in self.system.sf() if T
            }
        return self._deltas

    # -- finishing sets --------------------------------------------------------

    def starting_set(self, x: Iterable[str]) -> frozenset[str]:
        """Generators whose letter left divides x."""
        return self._table[self._id(tuple(x))].left

    def finishing_set(self, x: Iterable[str]) -> frozenset[str]:
        """Generators whose letter right divides x."""
        return self._right(self._id(tuple(x)))

    # -- normal form ---------------------------------------------------------

    def normal_form(self, x: Iterable[str]) -> tuple[frozenset[str], ...]:
        """Greedy right-to-left factorization into fundamental elements.

        Returns (T_1, ..., T_k) with x = delta(T_k) ... delta(T_1); the
        identity gets the empty tuple.  Each T_j is the finishing set of
        what remains, so the finishing-set condition holds by
        construction and is re-verified in tests.
        """
        rest = self.canon(x)
        parts: list[frozenset[str]] = []
        while rest:
            T = self.finishing_set(rest)
            if not self.system.is_finite_type(T):
                raise InternalError(
                    f"finishing set {sorted(T)} of {rest} is not finite type"
                )
            quotient = self.right_quotient(rest, self.delta(T))
            if quotient is None:
                raise InternalError(
                    f"delta of {sorted(T)} does not right divide {rest}"
                )
            parts.append(T)
            rest = quotient
        return tuple(parts)
