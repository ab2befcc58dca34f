"""Exact arithmetic in the positive (Artin) monoid of a Coxeter system.

Monoid elements are positive words; the defining relations all preserve
length, so an element's equivalence class is a finite set of words and
every question here reduces to finite search over such classes.  The
canonical form of an element is the ShortLex-least word in its class.

Divisibility is decided by prefix/suffix search over classes, on purpose:
it is independent of the Garside normal form computed at the end of the
module and therefore serves as its oracle.  Least common multiples use
bounded iterative-deepening search; for a set of single generators the
existence question is settled first through finite-type recognition, so
`none` is only ever reported when non-existence is a theorem.
"""

from __future__ import annotations

from typing import Iterable

from .coxeter import CoxeterSystem, Word
from .errors import InfiniteType, InternalError, NotAChain, Undecided

DEFAULT_SEARCH_BOUND = 16


class ArtinMonoid:
    """Positive monoid attached to a Coxeter system."""

    def __init__(self, system: CoxeterSystem):
        self.system = system
        self._elements_by_length: list[list[Word]] = [[()]]
        self._deltas: dict[frozenset[str], Word] | None = None

    # -- equivalence ------------------------------------------------------

    def equiv_class(self, word: Iterable[str]) -> frozenset[Word]:
        """All positive words equal to `word`; finite by length preservation.

        Monoid relations are exactly the braid moves, so this is the
        system's memoized braid closure.
        """
        return self.system.braid_closure(self.system.check_word(word))

    def canon(self, word: Iterable[str]) -> Word:
        return self.system.least_word(self.equiv_class(word))

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
            previous = self._elements_by_length[-1]
            seen = set()
            for w in previous:
                for s in self.system.gens:
                    seen.add(self.canon(w + (s,)))
            self._elements_by_length.append(
                sorted(seen, key=self.system.key)
            )
        return self._elements_by_length[n]

    # -- divisibility -----------------------------------------------------

    def left_divides(self, x: Iterable[str], y: Iterable[str]) -> bool:
        x = self.canon(x)
        y = self.system.check_word(y)
        k = len(x)
        if k > len(y):
            return False
        return any(self.canon(w[:k]) == x for w in self.equiv_class(y))

    def right_divides(self, x: Iterable[str], y: Iterable[str]) -> bool:
        x = self.canon(x)
        y = self.system.check_word(y)
        k = len(x)
        if k > len(y):
            return False
        return any(self.canon(w[len(w) - k :]) == x for w in self.equiv_class(y))

    def left_divisors(self, x: Iterable[str]) -> set[Word]:
        return {
            self.canon(w[:k])
            for w in self.equiv_class(x)
            for k in range(len(w) + 1)
        }

    def left_splits(self, x: Iterable[str]) -> list[tuple[Word, Word]]:
        """All pairs (d, q) of non-identity elements with d * q = x,
        ShortLex-ordered by d."""
        quotient: dict[Word, Word] = {}
        for w in self.equiv_class(x):
            for k in range(1, len(w)):
                d = self.canon(w[:k])
                if d not in quotient:
                    quotient[d] = self.canon(w[k:])
        return sorted(quotient.items(), key=lambda pair: self.system.key(pair[0]))

    def right_quotient(self, x: Iterable[str], d: Iterable[str]) -> Word | None:
        """The y with y*d = x, or None when d does not right divide x."""
        d = self.canon(d)
        x = self.system.check_word(x)
        k = len(d)
        if k > len(x):
            return None
        for w in self.equiv_class(x):
            if self.canon(w[len(w) - k :]) == d:
                return self.canon(w[: len(w) - k])
        return None

    # -- gcd / lcm ----------------------------------------------------------

    def left_gcd(self, elems: Iterable[Iterable[str]]) -> Word:
        """Greatest common left divisor of a non-empty set."""
        elems = [self.canon(e) for e in elems]
        if not elems:
            raise ValueError("left_gcd of an empty set")
        common = set.intersection(*(self.left_divisors(e) for e in elems))
        top = max(len(d) for d in common)
        best = [d for d in common if len(d) == top]
        if len(best) != 1 or not all(
            self.left_divides(d, best[0]) for d in common
        ):
            raise NotAChain(f"common left divisors of {elems} have no maximum")
        return best[0]

    def right_gcd(self, elems: Iterable[Iterable[str]]) -> Word:
        reverse = [tuple(reversed(self.system.check_word(e))) for e in elems]
        return self.rev(self.left_gcd(reverse))

    def right_lcm(
        self, elems: Iterable[Iterable[str]], bound: int | None = None
    ) -> Word | None:
        """Least common right multiple; None only on proven non-existence.

        For a set of single generators, existence is equivalent to the
        pair-restricted matrix being of finite type, which also supplies
        the exact search bound.  For general sets a configurable bound
        applies and exhausting it raises Undecided.
        """
        elems = sorted(
            {self.canon(e) for e in elems}, key=lambda w: (len(w), self.system.key(w))
        )
        if not elems:
            raise ValueError("right_lcm of an empty set")
        if len(elems) == 1:
            return elems[0]
        guaranteed = False
        if all(len(e) == 1 for e in elems):
            T = frozenset(s for (s,) in elems)
            if not self.system.is_finite_type(T):
                return None
            bound = len(self.delta(T))
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

    def finishing_set(self, x: Iterable[str]) -> frozenset[str]:
        """Generators whose letter right divides x."""
        return self.system.descents(self.system.check_word(x))

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
