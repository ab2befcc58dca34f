import math
import random
import tracemalloc
from itertools import combinations

import pytest

from artinhom import ArtinMonoid, CoxeterSystem
from artinhom.errors import InfiniteType, Undecided
from conftest import (
    BraidClassMonoid,
    all_words,
    braid_class,
    descents,
    elements_of_length,
    finishing_set,
    forget_words,
    is_squarefree,
    make_a2,
    make_a3,
    make_affine_a2,
    make_b3,
    recompose,
    right_divisors,
    right_quotient,
)


def W(text):
    return tuple(text)


class TestEquivalence:
    def test_class_examples(self, mon_a2):
        assert braid_class(mon_a2.system, W("aba")) == {W("aba"), W("bab")}
        assert braid_class(mon_a2.system, W("ab")) == {W("ab")}
        assert braid_class(mon_a2.system, W("a")) == {W("a")}
        assert mon_a2.canon(W("bab")) == W("aba")

    def test_classes_preserve_length(self, mon_a2, mon_a3):
        for mon, letters in ((mon_a2, "ab"), (mon_a3, "abc")):
            for word in all_words(letters, 4):
                assert {len(w) for w in braid_class(mon.system, word)} == {len(word)}

    def test_length_additivity(self, mon_a2):
        words = all_words("ab", 3)
        for x in words:
            for y in words:
                assert len(mon_a2.mul(x, y)) == len(x) + len(y)

    def test_cancellativity(self, mon_a2, mon_a3):
        for mon, letters, max_len in ((mon_a2, "ab", 5), (mon_a3, "abc", 3)):
            elements = [
                e for n in range(max_len + 1) for e in elements_of_length(mon, n)
            ]
            for x in elements:
                for y in elements:
                    if len(x) != len(y) or x == y:
                        continue
                    for g in letters:
                        assert mon.mul(x, (g,)) != mon.mul(y, (g,))
                        assert mon.mul((g,), x) != mon.mul((g,), y)

    def test_projection(self, mon_a2):
        # the image in the Coxeter group: same letters, group rewriting
        assert mon_a2.system.canon(W("aa")) == ()
        assert mon_a2.system.canon(W("aba")) == W("aba")
        assert mon_a2.system.canon(W("abab")) == W("ba")


class TestDivisibility:
    def test_examples(self, mon_a2):
        assert mon_a2.left_divides(W("a"), W("ab"))
        assert mon_a2.left_divides(W("b"), W("aba"))
        assert not mon_a2.left_divides(W("ab"), W("a"))
        assert mon_a2.right_divides(W("b"), W("ab"))
        assert mon_a2.right_divides(W("a"), W("aba"))
        assert mon_a2.right_divides(W("b"), W("aba"))

    def test_left_divides_matches_brute_force(self, mon_a2):
        # independent route: search for an explicit cofactor
        words = all_words("ab", 4)
        for x in words:
            for y in words:
                expected = any(
                    mon_a2.mul(x, g) == mon_a2.canon(y)
                    for g in all_words("ab", len(y) - len(x))
                    if len(g) == len(y) - len(x)
                ) if len(x) <= len(y) else False
                assert mon_a2.left_divides(x, y) == expected

    def test_antisymmetry(self, mon_a2):
        words = all_words("ab", 4)
        for x in words:
            for y in words:
                if mon_a2.left_divides(x, y) and mon_a2.left_divides(y, x):
                    assert mon_a2.canon(x) == mon_a2.canon(y)

    def test_quotients_recover_factors(self, mon_a2):
        words = all_words("ab", 3)
        for x in words:
            for y in words:
                product = mon_a2.mul(x, y)
                assert right_quotient(mon_a2, product, y) == mon_a2.canon(x)
                # the left quotient, through the reversal anti-automorphism
                left = right_quotient(mon_a2, mon_a2.rev(product), mon_a2.rev(x))
                assert mon_a2.rev(left) == mon_a2.canon(y)
                if x and y:
                    assert mon_a2.canon(y) in right_divisors(mon_a2, product)


class TestGcdLcm:
    def test_gcd_examples(self, mon_a2):
        assert mon_a2.left_gcd([W("ab"), W("aa")]) == W("a")
        assert mon_a2.left_gcd([W("ab")]) == W("ab")
        assert mon_a2.left_gcd([W("aba"), W("bab")]) == W("aba")

    def test_gcd_is_greatest(self, mon_a2):
        oracle = BraidClassMonoid(mon_a2.system)
        words = all_words("ab", 4)
        for x in words[1:]:
            for y in words[1:]:
                gcd = mon_a2.left_gcd([x, y])
                assert mon_a2.left_divides(gcd, x)
                assert mon_a2.left_divides(gcd, y)
                common = oracle.left_divisors(x) & oracle.left_divisors(y)
                assert all(mon_a2.left_divides(d, gcd) for d in common)

    def test_right_gcd_mirrors_left(self, mon_a2):
        words = all_words("ab", 4)
        for x in words[1:]:
            for y in words[1:]:
                mirrored = mon_a2.rev(
                    mon_a2.left_gcd([mon_a2.rev(x), mon_a2.rev(y)])
                )
                assert mon_a2.right_gcd([x, y]) == mirrored

    def test_lcm_examples(self, mon_a2, mon_ainf):
        assert mon_a2.right_lcm([W("a"), W("b")]) == W("aba")
        assert mon_ainf.right_lcm([W("a"), W("b")]) is None
        assert mon_a2.right_lcm([W("a")]) == W("a")

    def test_lcm_general_elements(self, mon_a2):
        assert mon_a2.right_lcm([W("ab"), W("ba")]) == W("aba")
        assert mon_a2.left_lcm([W("ab"), W("ba")]) == W("aba")

    def test_lcm_is_least(self, mon_a2):
        words = [w for w in all_words("ab", 3) if w]
        for x in words:
            for y in words:
                lcm = mon_a2.right_lcm([x, y], bound=12)
                assert lcm is not None  # finite type: everything has an lcm
                assert mon_a2.left_divides(x, lcm)
                assert mon_a2.left_divides(y, lcm)
                # least: divides any common multiple found by search
                for extra in all_words("ab", 2):
                    candidate = mon_a2.mul(x, extra)
                    if mon_a2.left_divides(y, candidate):
                        assert mon_a2.left_divides(lcm, candidate)

    def test_undecided_when_bound_exhausted(self):
        # a and b left-divide the arguments and generate the finite A2, so
        # the left letters cannot rule a common multiple out
        mon = ArtinMonoid(make_affine_a2())
        with pytest.raises(Undecided):
            mon.right_lcm([W("ab"), W("bc")], bound=6)

    def test_none_when_left_letters_are_of_infinite_type(self, mon_ainf):
        # every common multiple of ab and ba is left-divisible by a and b,
        # which have none when m = inf
        assert mon_ainf.right_lcm([W("ab"), W("ba")]) is None
        assert mon_ainf.right_lcm([W("ab"), W("ba")], bound=6) is None
        assert mon_ainf.left_lcm([W("ab"), W("ba")]) is None

    def test_left_lcm_of_generators(self, mon_b2):
        assert mon_b2.left_lcm([W("a"), W("b")]) == W("abab")


class TestDelta:
    def test_examples(self, mon_a2, mon_a1a1):
        assert mon_a2.delta({"a", "b"}) == W("aba")
        assert mon_a2.delta({"a"}) == W("a")
        assert mon_a1a1.delta({"a", "b"}) == W("ab")
        assert mon_a2.delta(()) == ()

    def test_infinite_type(self, mon_ainf):
        with pytest.raises(InfiniteType):
            mon_ainf.delta({"a", "b"})

    def test_delta_is_lcm_both_sides(self, mon_a2, mon_b2, mon_i25, mon_a3):
        for mon in (mon_a2, mon_b2, mon_i25, mon_a3):
            for T in mon.system.sf():
                if not T:
                    continue
                letters = [(s,) for s in T]
                assert mon.delta(T) == mon.right_lcm(letters)
                assert mon.delta(T) == mon.left_lcm(letters)


class TestFinishingRevSquarefree:
    def test_finishing_set(self, mon_a2):
        assert finishing_set(mon_a2, W("aba")) == {"a", "b"}
        assert finishing_set(mon_a2, W("ab")) == {"b"}
        assert finishing_set(mon_a2, ()) == frozenset()

    def test_rev(self, mon_a2):
        assert mon_a2.rev(W("ab")) == W("ba")
        assert mon_a2.rev(W("aba")) == W("aba")
        for word in all_words("ab", 5):
            assert mon_a2.rev(mon_a2.rev(word)) == mon_a2.canon(word)

    def test_rev_antimultiplicative(self, mon_a2):
        for x in all_words("ab", 3):
            for y in all_words("ab", 3):
                assert mon_a2.rev(mon_a2.mul(x, y)) == mon_a2.mul(
                    mon_a2.rev(y), mon_a2.rev(x)
                )

    def test_squarefree(self, mon_a2):
        assert not is_squarefree(mon_a2, W("aa"))
        assert is_squarefree(mon_a2, W("aba"))
        assert not is_squarefree(mon_a2, W("abab"))


class TestNormalForm:
    def test_examples(self, mon_a2):
        assert mon_a2.normal_form(W("ab")) == (frozenset("b"), frozenset("a"))
        assert mon_a2.normal_form(W("aba")) == (frozenset("ab"),)
        assert mon_a2.normal_form(()) == ()

    def test_round_trip(self, mon_a2, mon_a3):
        for mon, letters in ((mon_a2, "ab"), (mon_a3, "abc")):
            for word in all_words(letters, 5):
                parts = mon.normal_form(word)
                assert recompose(mon, parts) == mon.canon(word)
                assert all(part for part in parts)

    def test_finishing_condition(self, mon_a2, mon_a3):
        # the running products delta(T_k)...delta(T_j) finish exactly at T_j
        for mon, letters in ((mon_a2, "ab"), (mon_a3, "abc")):
            for word in all_words(letters, 5):
                parts = mon.normal_form(word)
                for j in range(len(parts)):
                    assert finishing_set(mon, recompose(mon, parts[j:])) == parts[j]

    def test_uniqueness_by_exhaustive_search(self, mon_a2):
        deltas = {T: mon_a2.delta(T) for T in mon_a2.system.sf() if T}

        def competitors(x):
            found = []

            def extend(remaining, parts):
                if not remaining:
                    found.append(tuple(parts))
                    return
                for T, d in deltas.items():
                    rest = right_quotient(mon_a2, remaining, d)
                    if rest is not None:
                        extend(rest, parts + [T])

            extend(mon_a2.canon(x), [])
            valid = []
            for parts in found:
                if recompose(mon_a2, parts) != mon_a2.canon(x):
                    continue
                if all(
                    finishing_set(mon_a2, recompose(mon_a2, parts[j:])) == parts[j]
                    for j in range(len(parts))
                ):
                    valid.append(parts)
            return valid

        for word in all_words("ab", 4):
            if not word:
                continue
            assert competitors(word) == [mon_a2.normal_form(word)]


def random_system(rng):
    """A Coxeter system of rank <= 4 with m in {2, 3, 4, 5, 6, inf} and its
    generators in a random order."""
    gens = "abcd"[: rng.randint(1, 4)]
    orders = {pair: rng.choice([2, 3, 4, 5, 6, math.inf]) for pair in combinations(gens, 2)}
    order = list(gens)
    rng.shuffle(order)
    return CoxeterSystem(order, orders)


# the queries the tests' helpers answer from the element tables
TABLE_QUERIES = {
    "right_divisors": right_divisors,
    "finishing_set": finishing_set,
    "right_quotient": right_quotient,
}


def ask(mon, query):
    """One query of the monoid, of its system or, for `descents` and
    `TABLE_QUERIES`, of the element tables."""
    on_monoid, name, args = query
    if name in TABLE_QUERIES:
        # each query folds its words afresh, in the memo state it meets
        forget_words(mon)
        return TABLE_QUERIES[name](mon, *args)
    if name == "descents":
        return descents(mon.system, *args)
    return getattr(mon if on_monoid else mon.system, name)(*args)


def test_answers_do_not_depend_on_what_the_memos_hold():
    """Each word's queries, asked of a fresh system (`canon` first, the
    identity included), get the answers that one system asked every
    query in a shuffled order gives."""
    rng = random.Random(20261018)
    for _ in range(40):
        shape = random_system(rng)
        orders = {(s, t): shape.m(s, t) for s, t in combinations(shape.gens, 2)}
        words = [()] + [
            tuple(rng.choice(shape.gens) for _ in range(rng.randint(1, 8)))
            for _ in range(5)
        ]
        cold = {}
        for x in words:
            mon = ArtinMonoid(CoxeterSystem(shape.gens, orders))
            w = mon.system.canon(x)
            left = descents(mon.system, w)[0]
            queries = [
                (False, "canon", (x,)),
                (False, "descents", (w,)),
                *((False, "canon", (w + (s,),)) for s in shape.gens),
                *((False, "canon", ((a,) + w,)) for a in left),
                *(
                    (True, name, (x,))
                    for name in ("canon", "normal_form", "right_divisors", "finishing_set")
                ),
                *((True, "right_quotient", (x, x[k:])) for k in range(len(x) + 1)),
                (True, "right_quotient", (x, x[:1])),
            ]
            for query in queries:
                cold[query] = ask(mon, query)
        mon = ArtinMonoid(CoxeterSystem(shape.gens, orders))
        order = list(cold)
        rng.shuffle(order)
        for query in order:
            assert ask(mon, query) == cold[query], (shape.gens, query)


class TestAgainstBraidClasses:
    """Seeded differential test against braid-class enumeration."""

    SYSTEMS = 60

    @pytest.fixture(scope="class")
    def cases(self):
        rng = random.Random(20240611)
        found = []
        for _ in range(self.SYSTEMS):
            system = random_system(rng)
            words = [
                tuple(rng.choice(system.gens) for _ in range(rng.randint(0, 10)))
                for _ in range(6)
            ]
            found.append((ArtinMonoid(system), BraidClassMonoid(system), words))
        return found

    def test_systems_cover_the_matrix_entries(self, cases):
        entries = {
            mon.system.m(s, t)
            for mon, _, _ in cases
            for s, t in combinations(mon.system.gens, 2)
        }
        assert entries == {2, 3, 4, 5, 6, math.inf}
        finite = [mon.system.is_finite_type(mon.system.gens) for mon, _, _ in cases]
        assert any(finite) and not all(finite)

    def test_canon_mul_rev_and_finishing_sets(self, cases):
        for mon, oracle, words in cases:
            for x, y in zip(words, words[1:] + words[:1]):
                assert mon.canon(x) == oracle.canon(x), (mon.system.gens, x)
                assert mon.rev(x) == oracle.rev(x), (mon.system.gens, x)
                assert finishing_set(mon, x) == oracle.finishing_set(x), (mon.system.gens, x)
                assert mon.starting_set(x) == oracle.starting_set(x), (mon.system.gens, x)
                if len(x) + len(y) <= 10:
                    assert mon.mul(x, y) == oracle.canon(x + y), (mon.system.gens, x, y)

    def test_divisibility_quotients_and_splits(self, cases):
        for mon, oracle, words in cases:
            for y in words:
                for k in (0, 1, len(y) // 2, len(y)):
                    for x in (y[:k], y[k:], y[::-1][:k]):
                        args = (mon.system.gens, x, y)
                        assert mon.left_divides(x, y) == oracle.left_divides(x, y), args
                        assert mon.right_divides(x, y) == oracle.right_divides(x, y), args
                        assert right_quotient(mon, y, x) == oracle.right_quotient(y, x), args
                quotients = [q for _, q in oracle.left_splits(y)]
                assert right_divisors(mon, y) == quotients, (mon.system.gens, y)

    def test_normal_form_and_gcd(self, cases):
        for mon, oracle, words in cases:
            for x, y in zip(words, words[1:] + words[:1]):
                assert mon.normal_form(x) == oracle.normal_form(x), (mon.system.gens, x)
                if x and y:
                    args = (mon.system.gens, x, y)
                    assert mon.left_gcd([x, y]) == oracle.left_gcd([x, y]), args
                    reverse = [x[::-1], y[::-1]]
                    assert mon.right_gcd([x, y]) == oracle.rev(oracle.left_gcd(reverse)), args

    def test_lcm_on_finite_types(self, cases):
        # infinite systems are inputs too: where the search finds no common
        # multiple within the bound, right_lcm gives None or Undecided
        checked, undecided = {True: 0, False: 0}, 0
        for mon, oracle, words in cases:
            letters = [(s,) for s in mon.system.gens]
            for x, y in [*zip(words, words[1:]), *combinations(letters, 2)]:
                if not x or not y or len(x) + len(y) > 6:
                    continue
                if len(x) == len(y) == 1 and mon.system.m(x[0], y[0]) != math.inf:
                    # the letters' lcm is their alternating word of length m
                    expected = oracle.right_lcm([x, y], mon.system.m(x[0], y[0]))
                    found = mon.right_lcm([x, y])
                else:
                    bound = max(len(x), len(y)) + 3
                    expected = oracle.right_lcm([x, y], bound)
                    try:
                        found = mon.right_lcm([x, y], bound=bound)
                    except Undecided:
                        found = None
                        undecided += 1
                assert found == expected, (mon.system.gens, x, y)
                checked[mon.system.is_finite_type(mon.system.gens)] += 1
        assert checked[True] > 20 and checked[False] > 20 and undecided


# systems whose element tables are checked, and the length up to which
TABLE_SYSTEMS = {"A2": (make_a2, 8), "A3": (make_a3, 6), "B3": (make_b3, 5)}


class TestElementTable:
    """The monoid's element table against braid-class enumeration: every
    element up to a length, once as `_layer` builds it and once in a
    fresh monoid as a right divisor of an element of the top length,
    before any layer is built."""

    @staticmethod
    def check_entry(mon, oracle, i):
        word = mon._word(i)
        assert word == oracle.canon(word), word
        assert mon._id(word) == i, word
        assert mon._table[i].left == oracle.starting_set(word), word
        assert mon._right(i) == oracle.finishing_set(word), word
        assert mon._reverse(mon._reverse(i)) == i, word
        assert mon._word(mon._reverse(i)) == oracle.canon(word[::-1]), word
        quotients = [q for _, q in oracle.left_splits(word)]
        assert [mon._word(q) for q in mon._divisors(i)] == quotients, word

    @pytest.mark.parametrize("maker, top", TABLE_SYSTEMS.values(), ids=TABLE_SYSTEMS)
    def test_elements_built_by_layers(self, maker, top):
        system = maker()
        mon, oracle = ArtinMonoid(system), BraidClassMonoid(system)
        # an entry has no slot for a word, and no dict to hold one
        entry = mon._table[0]
        assert "word" not in type(entry).__slots__ and not hasattr(entry, "__dict__")
        for n in range(top + 1):
            layer = mon._layer(n)
            # R was recorded as the layer was built
            assert n == 0 or all(mon._table[i].right is not None for i in layer), n
            words = [mon._word(i) for i in layer]
            assert words == sorted(words, key=system.key), n
            for i in layer:
                self.check_entry(mon, oracle, i)
        # every word of each length names the id of its canonical word
        for word in all_words(system.gens, min(top, 5)):
            assert mon._id(word) == mon._id(oracle.canon(word)), word

    @pytest.mark.parametrize("maker, top", TABLE_SYSTEMS.values(), ids=TABLE_SYSTEMS)
    def test_elements_first_met_as_divisors(self, maker, top):
        system = maker()
        mon, oracle = ArtinMonoid(system), BraidClassMonoid(system)
        # each shorter element right-divides one of the top length, so the
        # table meets it first as a divisor
        for word in all_words(system.gens, top):
            if len(word) == top:
                mon._divisors(mon._id(word))
        assert len(mon._layers) == 1
        lengths = [0] * (top + 1)
        for i in range(len(mon._table)):
            lengths[len(mon._word(i))] += 1
            self.check_entry(mon, oracle, i)
        assert lengths == [len(elements_of_length(mon, n)) for n in range(top + 1)]

    def test_normal_form_holds_no_words(self):
        # W's table for the word (its prefixes and their inverses, 3.7 MB
        # here) is the group's and is built first; what the monoid holds
        # on top is its own tables, in which normal_form puts nothing
        system = make_affine_a2()
        word = ("a", "b", "c") * 300
        system.canon(word)
        mon = ArtinMonoid(system)
        tracemalloc.start()
        try:
            parts = mon.normal_form(word)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parts == (frozenset("c"), frozenset("b"), frozenset("a")) * 300
        assert len(mon._table) == 1, "only the identity is tabled"
        assert peak < 1_000_000, peak
