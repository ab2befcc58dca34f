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

A simple is named by the canonical word of the Coxeter-group element it
lifts, so its L and R are that element's descent sets and the
transitions between simples (times a letter, strip a letter) are the
group's: all are read from the table of W in `CoxeterSystem`, its
naming map from words to canonical words plus its entry table, whose
only fill is `CoxeterSystem._lookup`.  Every pair normalization is
memoized.  No class of positive words is ever
enumerated; the test suite keeps braid-class enumeration as the oracle
for everything here.

The ShortLex-least word peels min L(s_1) off repeatedly.  The right
divisors of x are read off its splits d * q: `right_divisors` lists the q
only, and these are the entries of the chains of the interval [1, x]
that the bar fibers and the matching's audits walk.  Right-hand
questions go through the reversal anti-automorphism.  Least common
multiples use bounded search.  `none` is reported only when
non-existence is a theorem: every common multiple is left-divisible by
all letters that left-divide an argument, and a set of letters has a
common multiple only when it is of finite type (Brieskorn-Saito).
"""

from __future__ import annotations

from typing import Iterable

from .coxeter import CoxeterSystem, Word
from .errors import InfiniteType, InternalError, Undecided

DEFAULT_SEARCH_BOUND = 16

# a simple element, named by its ShortLex-least reduced word
Simple = Word
# the left-greedy normal form of an element: non-identity simples
Normal = tuple[Simple, ...]


class ArtinMonoid:
    """Positive monoid attached to a Coxeter system."""

    def __init__(self, system: CoxeterSystem):
        self.system = system
        self._elements_by_length: list[list[Word]] = [[()]]
        self._deltas: dict[frozenset[str], Word] | None = None
        self._pairs: dict[tuple[Simple, Simple], tuple[Simple, Simple]] = {}
        self._normals: dict[Word, Normal] = {}
        self._words: dict[Normal, Word] = {}
        self._splits: dict[Word, list[Word]] = {}
        self._quotients: dict[tuple[Word, Word], Word | None] = {}

    # -- normal forms --------------------------------------------------------

    def _normalize(self, u: Simple, v: Simple) -> tuple[Simple, Simple]:
        """(u', v') with u'v' = uv and u' | v' normal: move the letters of
        L(v) that u can absorb, one at a time."""
        key = (u, v)
        pair = self._pairs.get(key)
        if pair is None:
            while v:
                movable = self.system.descents(v)[0] - self.system.descents(u)[1]
                if not movable:
                    break
                a = next(iter(movable))
                u, v = self.system.times(u, a), self.system.strip(a, v)
            pair = self._pairs[key] = (u, v)
        return pair

    def _append(self, normal: Normal, a: str) -> Normal:
        """Normal form of x * a: one right-to-left sweep."""
        parts = list(normal)
        last = self.system.times(parts[-1], a) if parts else None
        if last is None:
            # the identity times a: the simple a, one shared tuple
            parts.append(self.system.times((), a))
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
        head = self.system.strip(a, normal[0])
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

    def _normal(self, word: Word) -> Normal:
        """Normal form of a word, letter by letter; checked on a miss."""
        normal = self._normals.get(word)
        if normal is None:
            normal = ()
            for a in self.system.check_word(word):
                normal = self._append(normal, a)
            self._normals[word] = normal
        return normal

    def _left(self, normal: Normal) -> frozenset[str]:
        """The letters that left-divide the element."""
        return self.system.descents(normal[0])[0] if normal else frozenset()

    def _word(self, normal: Normal) -> Word:
        """ShortLex-least word: peel min L(s_1) until nothing is left."""
        word = self._words.get(normal)
        if word is None:
            peeled: list[tuple[Normal, str]] = []
            rest = normal
            while rest and rest not in self._words:
                a = min(self._left(rest), key=self.system.index)
                peeled.append((rest, a))
                rest = self._strip_front(a, rest)
            word = self._words.get(rest, ())
            for rest, a in reversed(peeled):
                word = self._words[rest] = (a,) + word
        return word

    # -- equivalence ------------------------------------------------------

    def canon(self, word: Iterable[str]) -> Word:
        return self._word(self._normal(tuple(word)))

    def mul(self, *words: Iterable[str]) -> Word:
        combined: tuple[str, ...] = ()
        for w in words:
            combined = combined + tuple(w)
        return self.canon(combined)

    def rev(self, word: Iterable[str]) -> Word:
        return self.canon(tuple(reversed(tuple(word))))

    def elements_of_length(self, n: int) -> list[Word]:
        """Canonical words of all monoid elements of length n."""
        while len(self._elements_by_length) <= n:
            # one letter on the right of each normal form, filed under
            # the canonical word it names
            grown: dict[Word, Normal] = {}
            for w in self._elements_by_length[-1]:
                normal = self._normal(w)
                for s in self.system.gens:
                    longer = self._append(normal, s)
                    grown[self._word(longer)] = longer
            self._normals.update(grown)
            self._elements_by_length.append(sorted(grown, key=self.system.key))
        return self._elements_by_length[n]

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
        return self._left_quotient(self._normal(y), x) is not None

    def right_divides(self, x: Iterable[str], y: Iterable[str]) -> bool:
        return self.left_divides(tuple(x)[::-1], tuple(y)[::-1])

    def right_divisors(self, x: Iterable[str]) -> list[Word]:
        """The proper non-identity right divisors of x: each q with
        d * q = x for a non-identity d, once, in the ShortLex order of d.

        The ShortLex-least word of d is its least left letter b followed
        by the word of b^-1 d, and b left-divides d exactly when q
        right-divides b^-1 x (cancel b on the left of x = d * q).  So for
        each b in L(x) in turn, the q whose d begins with b are b^-1 x and
        the right divisors of b^-1 x, less those a smaller letter already
        reached; they come out in order.  Every q listed is the word of
        b^-1 x or one listed for it, so the lists share their words.
        """
        # the memo is keyed by canonical words, so a hit needs no canon
        x = tuple(x)
        divisors = self._splits.get(x)
        if divisors is None:
            x = self.canon(x)
            divisors = self._splits.get(x)
        if divisors is None:
            normal = self._normal(x)
            divisors = []
            reached: set[Word] = set()
            for b in sorted(self._left(normal), key=self.system.index):
                y = self._word(self._strip_front(b, normal))
                if not y:
                    continue
                for q in [y, *self.right_divisors(y)]:
                    if q not in reached:
                        reached.add(q)
                        divisors.append(q)
            self._splits[x] = divisors
        return divisors

    def right_quotient(self, x: Iterable[str], d: Iterable[str]) -> Word | None:
        """The y with y*d = x, or None when d does not right divide x."""
        key = (tuple(x), tuple(d))
        try:
            return self._quotients[key]
        except KeyError:
            pass
        x = self.system.check_word(key[0])
        d = self.system.check_word(key[1])
        # rev(d) * rev(y) = rev(x)
        quotient = (
            self._left_quotient(self._normal(x[::-1]), d[::-1])
            if len(d) <= len(x)
            else None
        )
        result = None if quotient is None else self.rev(self._word(quotient))
        self._quotients[key] = result
        return result

    # -- gcd / lcm ----------------------------------------------------------

    def left_gcd(self, elems: Iterable[Iterable[str]]) -> Word:
        """Greatest common left divisor of a non-empty set.

        A letter divides the gcd exactly when it divides every argument,
        so peeling the least such letter spells the gcd's canonical word.
        """
        normals = [self._normal(self.system.check_word(e)) for e in elems]
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
        letters = frozenset().union(*(self._left(self._normal(e)) for e in elems))
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
        multiples = {base}
        for total in range(len(base), bound + 1):
            if total > len(base):
                multiples = {
                    self.canon(w + (s,))
                    for w in multiples
                    for s in self.system.gens
                }
            found = {
                w for w in multiples if all(self.left_divides(e, w) for e in others)
            }
            if found:
                if len(found) != 1:
                    raise InternalError(
                        f"distinct minimal common multiples {sorted(found)}"
                    )
                return next(iter(found))
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
        return self._left(self._normal(tuple(x)))

    def finishing_set(self, x: Iterable[str]) -> frozenset[str]:
        """Generators whose letter right divides x: L of the reversal."""
        return self._left(self._normal(tuple(x)[::-1]))

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
