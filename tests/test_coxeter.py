import math
import random
from itertools import combinations

import pytest

from artinhom import CoxeterSystem
from artinhom.errors import (
    AsymmetricMatrix,
    BadDiagonal,
    BadEntry,
    DuplicateGenerator,
    InfiniteType,
    UnknownGenerator,
)
from conftest import (
    affine_length,
    affine_window,
    all_words,
    braid_class,
    dihedral_of_word,
    inversions,
    make_affine_a2,
    perm_of_word,
)


class TestValidation:
    def test_smallest_valid_system(self):
        system = CoxeterSystem("ab", {("a", "b"): 3})
        assert len(set(system.gens)) == len(system.gens)
        for s, t in combinations(system.gens, 2):
            m = system.m(s, t)
            assert m == system.m(t, s)
            assert m == math.inf or (isinstance(m, int) and m >= 2)
        for s in system.gens:
            assert system.m(s, s) == 1
        assert system.m("a", "b") == system.m("b", "a") == 3
        assert system.m("a", "a") == 1

    def test_off_diagonal_one_rejected(self):
        with pytest.raises(BadEntry):
            CoxeterSystem("ab", {("a", "b"): 1})

    def test_bad_values_rejected(self):
        for bad in (0, -3, 2.5, "4"):
            with pytest.raises(BadEntry):
                CoxeterSystem("ab", {("a", "b"): bad})

    def test_duplicate_generator(self):
        with pytest.raises(DuplicateGenerator):
            CoxeterSystem("aa")

    def test_diagonal_fixed(self):
        with pytest.raises(BadDiagonal):
            CoxeterSystem("ab", {("a", "a"): 2})

    def test_asymmetric_entries(self):
        with pytest.raises(AsymmetricMatrix):
            CoxeterSystem("ab", {("a", "b"): 3, ("b", "a"): 4})

    def test_symmetric_duplicate_tolerated(self):
        system = CoxeterSystem("ab", {("a", "b"): 3, ("b", "a"): 3})
        assert system.m("a", "b") == 3

    def test_unknown_generator_in_matrix(self):
        with pytest.raises(UnknownGenerator):
            CoxeterSystem("ab", {("a", "c"): 3})

    def test_default_order_is_two(self):
        system = CoxeterSystem("ab")
        assert system.m("a", "b") == 2


class TestCanonicalForm:
    def test_spec_examples(self, a2):
        assert a2.canon("abab") == ("b", "a")
        assert a2.canon("aa") == ()
        assert a2.canon("bab") == ("a", "b", "a")

    def test_idempotent(self, a2):
        for word in all_words("ab", 5):
            assert a2.canon(a2.canon(word)) == a2.canon(word)

    def test_unknown_letter(self, a2):
        with pytest.raises(UnknownGenerator):
            a2.canon("abc")

    def test_constant_on_classes_a2(self, a2):
        # the symmetric group model is the oracle for equality and length
        for word in all_words("ab", 6):
            canonical = a2.canon(word)
            assert perm_of_word(word, "ab", 3) == perm_of_word(canonical, "ab", 3)
            assert len(canonical) == inversions(perm_of_word(word, "ab", 3))

    def test_constant_on_classes_a3(self, a3):
        for word in all_words("abc", 5):
            canonical = a3.canon(word)
            assert perm_of_word(word, "abc", 4) == perm_of_word(canonical, "abc", 4)
            assert len(canonical) == inversions(perm_of_word(word, "abc", 4))

    @pytest.mark.parametrize("m", [2, 4, 5, math.inf])
    def test_constant_on_classes_dihedral(self, m):
        system = CoxeterSystem("ab", {("a", "b"): m})
        by_canon = {}
        by_oracle = {}
        for word in all_words("ab", 6):
            by_canon.setdefault(system.canon(word), set()).add(word)
            by_oracle.setdefault(dihedral_of_word(word, m), set()).add(word)
        assert set(map(frozenset, by_canon.values())) == set(
            map(frozenset, by_oracle.values())
        )

    def test_constant_on_classes_affine_a2(self):
        system = make_affine_a2()
        by_canon = {}
        by_oracle = {}
        for word in all_words("abc", 6):
            canonical = system.canon(word)
            assert len(canonical) == affine_length(affine_window(canonical))
            by_canon.setdefault(canonical, set()).add(word)
            by_oracle.setdefault(affine_window(word), set()).add(word)
        assert set(map(frozenset, by_canon.values())) == set(
            map(frozenset, by_oracle.values())
        )

    def test_shortlex_uses_generator_order(self):
        # same matrix, opposite order: the canonical word flips
        forward = CoxeterSystem("ab", {("a", "b"): 3})
        backward = CoxeterSystem("ba", {("a", "b"): 3})
        assert forward.canon("bab") == ("a", "b", "a")
        assert backward.canon("aba") == ("b", "a", "b")


class TestLength:
    def test_examples(self, a2):
        assert len(a2.canon(())) == 0
        assert len(a2.canon("aba")) == 3
        assert len(a2.canon("ab")) == 2

    def test_exchange_condition(self, a2, b2):
        for system in (a2, b2):
            for w in system.enumerate_group(system.gens):
                for s in system.gens:
                    assert abs(len(system.canon(w + (s,))) - len(w)) == 1


class TestFiniteType:
    def test_rank_two(self):
        assert CoxeterSystem("ab", {("a", "b"): 3}).is_finite_type("ab")
        assert not CoxeterSystem("ab", {("a", "b"): math.inf}).is_finite_type("ab")
        assert CoxeterSystem("ab", {("a", "b"): 1000}).is_finite_type("ab")

    def test_empty_subset(self, a2):
        assert a2.is_finite_type(())

    def test_unknown_generator(self, a2):
        with pytest.raises(UnknownGenerator):
            a2.is_finite_type({"z"})

    @pytest.mark.parametrize(
        "gens, orders",
        [
            ("abc", {("a", "b"): 3, ("b", "c"): 3}),  # A3
            ("abc", {("a", "b"): 4, ("b", "c"): 3}),  # B3
            ("abcd", {("a", "b"): 3, ("b", "c"): 3, ("c", "d"): 3}),  # A4
            ("abcd", {("a", "b"): 4, ("b", "c"): 3, ("c", "d"): 3}),  # B4
            ("abcd", {("a", "b"): 3, ("b", "c"): 4, ("c", "d"): 3}),  # F4
            ("abcd", {("a", "b"): 3, ("a", "c"): 3, ("a", "d"): 3}),  # D4
            ("abcde", {("a", "b"): 3, ("b", "c"): 3, ("c", "d"): 3, ("c", "e"): 3}),  # D5
            ("abc", {("a", "b"): 5, ("b", "c"): 3}),  # H3
            ("abcd", {("a", "b"): 5, ("b", "c"): 3, ("c", "d"): 3}),  # H4
            (
                "abcdef",
                {("a", "b"): 3, ("b", "c"): 3, ("c", "d"): 3, ("d", "e"): 3, ("c", "f"): 3},
            ),  # E6
            (
                "abcdefg",
                {
                    ("a", "b"): 3,
                    ("b", "c"): 3,
                    ("c", "d"): 3,
                    ("d", "e"): 3,
                    ("e", "f"): 3,
                    ("c", "g"): 3,
                },
            ),  # E7
            (
                "abcdefgh",
                {
                    ("a", "b"): 3,
                    ("b", "c"): 3,
                    ("c", "d"): 3,
                    ("d", "e"): 3,
                    ("e", "f"): 3,
                    ("f", "g"): 3,
                    ("c", "h"): 3,
                },
            ),  # E8
        ],
    )
    def test_catalogue_positives(self, gens, orders):
        system = CoxeterSystem(gens, orders)
        assert system.is_finite_type(gens)

    @pytest.mark.parametrize(
        "gens, orders",
        [
            ("ab", {("a", "b"): math.inf}),
            ("abc", {("a", "b"): 3, ("b", "c"): 3, ("a", "c"): 3}),  # affine A2
            ("abc", {("a", "b"): 4, ("b", "c"): 4}),  # affine B2
            ("abc", {("a", "b"): 6, ("b", "c"): 3}),  # affine G2
            ("abc", {("a", "b"): 5, ("b", "c"): 4}),  # two heavy labels
            ("abc", {("a", "b"): 5, ("b", "c"): 5}),
            ("abcd", {("a", "b"): 3, ("b", "c"): 3, ("c", "d"): 3, ("a", "d"): 3}),
            ("abcd", {("a", "b"): 4, ("b", "c"): 3, ("c", "d"): 4}),  # affine C3
            ("abcd", {("a", "b"): 3, ("b", "c"): 5, ("c", "d"): 3}),  # 5 inside a path
            ("abcde", {("a", "b"): 3, ("a", "c"): 3, ("a", "d"): 3, ("a", "e"): 3}),  # affine D4
            (
                "abcdefg",
                {
                    ("a", "b"): 3,
                    ("b", "c"): 3,
                    ("c", "d"): 3,
                    ("d", "e"): 3,
                    ("c", "f"): 3,
                    ("f", "g"): 3,
                },
            ),  # affine E6: arms (2, 2, 2)
        ],
    )
    def test_catalogue_negatives(self, gens, orders):
        system = CoxeterSystem(gens, orders)
        assert not system.is_finite_type(gens)

    @pytest.mark.parametrize(
        "gens, orders, order_of_group",
        [
            ("ab", {("a", "b"): 2}, 4),
            ("ab", {("a", "b"): 3}, 6),
            ("ab", {("a", "b"): 4}, 8),
            ("ab", {("a", "b"): 5}, 10),
            ("ab", {("a", "b"): 6}, 12),
            ("abc", {("a", "b"): 3, ("b", "c"): 3}, 24),
            ("abc", {("a", "b"): 4, ("b", "c"): 3}, 48),
        ],
    )
    def test_group_orders_confirm_catalogue(self, gens, orders, order_of_group):
        system = CoxeterSystem(gens, orders)
        assert len(system.enumerate_group(gens)) == order_of_group


class TestSubsetsAndSubgroups:
    def test_sf_examples(self, a2, ainf):
        assert set(a2.sf()) == {
            frozenset(),
            frozenset("a"),
            frozenset("b"),
            frozenset("ab"),
        }
        assert set(ainf.sf()) == {frozenset(), frozenset("a"), frozenset("b")}
        assert CoxeterSystem([]).sf() == [frozenset()]

    def test_sf_inclusion_closed(self, a3):
        mixed = CoxeterSystem(
            "abc", {("a", "b"): math.inf}
        )  # c commutes with both
        for system in (a3, mixed):
            subsets = set(system.sf())
            for T in subsets:
                for s in T:
                    assert T - {s} in subsets

    def test_enumerate_group_examples(self, a2, ainf):
        assert a2.enumerate_group("ab") == [
            (),
            ("a",),
            ("b",),
            ("a", "b"),
            ("b", "a"),
            ("a", "b", "a"),
        ]
        assert a2.enumerate_group("a") == [(), ("a",)]
        assert a2.enumerate_group(()) == [()]
        with pytest.raises(InfiniteType):
            ainf.enumerate_group("ab")

    def test_longest_element(self, a2, a1a1, a3, ainf):
        assert a2.longest_element("ab") == ("a", "b", "a")
        assert a2.longest_element("a") == ("a",)
        assert a1a1.longest_element("ab") == ("a", "b")
        longest = a3.longest_element("abc")
        assert len(longest) == 6
        assert perm_of_word(longest, "abc", 4) == (3, 2, 1, 0)
        with pytest.raises(InfiniteType):
            ainf.longest_element("ab")

    def test_longest_element_is_unique_maximum(self, a2, b2, i25):
        for system in (a2, b2, i25):
            elements = system.enumerate_group(system.gens)
            top = max(len(w) for w in elements)
            assert [w for w in elements if len(w) == top] == [
                system.longest_element(system.gens)
            ]


class TestTMinimal:
    def test_examples(self, a2):
        assert a2.is_t_minimal((), "ab")
        assert a2.is_t_minimal((), "a")
        assert not a2.is_t_minimal(("a",), "a")
        assert a2.is_t_minimal(("b",), "a")

    @pytest.mark.parametrize("maker", ["a2", "b2", "a3"])
    def test_unique_minimal_per_coset(self, maker, request):
        system = request.getfixturevalue(maker)
        elements = system.enumerate_group(system.gens)
        for T in system.sf():
            subgroup = system.enumerate_group(T)
            seen = set()
            for w in elements:
                coset = frozenset(system.mul(w, h) for h in subgroup)
                if coset in seen:
                    continue
                seen.add(coset)
                minimal = [v for v in coset if system.is_t_minimal(v, T)]
                assert len(minimal) == 1
                # the descent criterion picks out the shortest element
                assert len(minimal[0]) == min(len(v) for v in coset)


def tits_canon(system, word):
    """ShortLex-least reduced word by Tits' solution of the word problem: a
    word is reduced exactly when no word of its braid class has a square
    ss, and deleting such a square keeps the element."""
    words = braid_class(system, word)
    while True:
        shorter = next(
            (w[:i] + w[i + 2 :] for w in words for i in range(len(w) - 1) if w[i] == w[i + 1]),
            None,
        )
        if shorter is None:
            return min(words, key=system.key)
        words = braid_class(system, shorter)


class TestAgainstTits:
    """Seeded differential test of W arithmetic against Tits' word problem."""

    SYSTEMS = 60

    @pytest.fixture(scope="class")
    def cases(self):
        rng = random.Random(20261018)
        found = []
        for _ in range(self.SYSTEMS):
            gens = "abcd"[: rng.randint(1, 4)]
            orders = {
                pair: rng.choice([2, 3, 4, 5, 6, 8, math.inf])
                for pair in combinations(gens, 2)
            }
            order = list(gens)
            rng.shuffle(order)
            system = CoxeterSystem(order, orders)
            words = [
                tuple(rng.choice(system.gens) for _ in range(rng.randint(0, 10)))
                for _ in range(6)
            ]
            found.append((system, words))
        return found

    def test_systems_cover_the_matrix_entries(self, cases):
        entries = {
            system.m(s, t) for system, _ in cases for s, t in combinations(system.gens, 2)
        }
        assert entries == {2, 3, 4, 5, 6, 8, math.inf}
        finite = [system.is_finite_type(system.gens) for system, _ in cases]
        assert any(finite) and not all(finite)
        assert max(len(T) for system, _ in cases for T in system.sf()) >= 3

    def test_canon_mul_and_inverse(self, cases):
        for system, words in cases:
            for x, y in zip(words, words[1:] + words[:1]):
                args = (system.gens, x, y)
                assert system.canon(x) == tits_canon(system, x), args
                assert system.canon(x[::-1]) == tits_canon(system, x[::-1]), args
                assert system.mul(x, y) == tits_canon(system, x + y), args

    def test_descents_and_t_minimality(self, cases):
        for system, words in cases:
            subsets = [
                frozenset(T)
                for k in range(system.rank + 1)
                for T in combinations(system.gens, k)
            ]
            for x in words:
                w = tits_canon(system, x)
                left = {s for s in system.gens if len(tits_canon(system, (s,) + w)) < len(w)}
                right = {s for s in system.gens if len(tits_canon(system, w + (s,))) < len(w)}
                assert system.descents(w) == (left, right), (system.gens, x)
                for T in subsets:
                    assert system.is_t_minimal(x, T) == right.isdisjoint(T), (system.gens, x, T)

    def test_longest_element_on_finite_types(self, cases):
        checked = 0
        for system, _ in cases:
            for T in system.sf():
                # the element of W_T with every letter of T as a right descent
                w0 = system.longest_element(T)
                assert set(w0) <= T and tits_canon(system, w0) == w0, (system.gens, T)
                for s in T:
                    assert len(tits_canon(system, w0 + (s,))) < len(w0), (system.gens, T)
                checked += len(T) >= 2
        assert checked > 20


def tits_elements(system, max_len):
    """Canonical words of the elements of length at most max_len, in
    ShortLex order, by Tits' word problem."""
    found, seen = [()], {()}
    for w in found:
        for s in system.gens:
            u = tits_canon(system, w + (s,))
            if len(w) < len(u) <= max_len and u not in seen:
                seen.add(u)
                found.append(u)
    return sorted(found, key=lambda w: (len(w), system.key(w)))


WHOLE_TABLES = {
    "A3": ("abc", {("a", "b"): 3, ("b", "c"): 3}, math.inf),
    "B3": ("abc", {("a", "b"): 4, ("b", "c"): 3}, math.inf),
    "H3": ("abc", {("a", "b"): 5, ("b", "c"): 3}, math.inf),
    "I2(5)": ("ab", {("a", "b"): 5}, math.inf),
    "I2(8)": ("ab", {("a", "b"): 8}, math.inf),
    "A2xA1": ("abc", {("a", "b"): 3}, math.inf),
    "affine A2": ("abc", {("a", "b"): 3, ("b", "c"): 3, ("a", "c"): 3}, 7),
}


def oracle_row(system, w):
    """w, L(w) and R(w) from the braid class of w (Matsumoto), and the
    words of w^-1, ws and sw by Tits' word problem."""
    words = braid_class(system, w) - {()}
    return (
        w,
        {v[0] for v in words},
        {v[-1] for v in words},
        tits_canon(system, w[::-1]),
        {s: tits_canon(system, w + (s,)) for s in system.gens},
        {s: tits_canon(system, (s,) + w) for s in system.gens},
    )


class TestWholeTable:
    """Every entry of W's table, filled in two orders, against braid
    classes and Tits' word problem.  Filled forward, an element is mostly
    made before its inverse; filled from reversed words, mostly after, so
    the same-length inverse step runs both ways."""

    @pytest.fixture(scope="class")
    def oracle(self):
        found = {}
        for name, (gens, orders, max_len) in WHOLE_TABLES.items():
            system = CoxeterSystem(gens, orders)
            found[name] = [oracle_row(system, w) for w in tits_elements(system, max_len)]
        return found

    def test_group_orders(self, oracle):
        sizes = {name: len(rows) for name, rows in oracle.items()}
        # |W| from the degrees (Humphreys, table 3.1); A~2 has 3n
        # elements of length n >= 1
        assert sizes == {
            "A3": 24,
            "B3": 48,
            "H3": 120,
            "I2(5)": 10,
            "I2(8)": 16,
            "A2xA1": 12,
            "affine A2": 1 + sum(3 * n for n in range(1, 8)),
        }

    @pytest.mark.parametrize("reversed_first", [False, True], ids=["forward", "reversed"])
    @pytest.mark.parametrize("name", list(WHOLE_TABLES))
    def test_every_entry(self, oracle, name, reversed_first):
        gens, orders, _ = WHOLE_TABLES[name]
        system = CoxeterSystem(gens, orders)
        rows = oracle[name]
        if reversed_first:
            for w, *_ in reversed(rows):
                system.canon(w[::-1])
        ids = {w: system._lookup(w) for w, *_ in rows}
        # each element is numbered once, and nothing longer is tabled
        assert sorted(ids.values()) == list(range(len(rows)))
        for w, left, right, inverse, times, strip in rows:
            i = ids[w]
            entry = system._elements[i]
            assert (entry.word, entry.left, entry.right) == (w, left, right), (name, w)
            assert system._elements[entry.inverse].word == inverse, (name, w)
            for s in system.gens:
                up = system._up(i, s)
                if s in right:
                    assert up is None, (name, w, s)
                else:
                    assert system._elements[up].word == times[s], (name, w, s)
                    if times[s] in ids:
                        assert up == ids[times[s]], (name, w, s)
            for a in left:
                assert system._elements[system._down(a, i)].word == strip[a], (name, w, a)


class TestLongWords:
    """The table's fill runs on its own stack: a word far longer than the
    recursion limit reduces without a RecursionError."""

    def test_a_long_reduced_word_on_affine_a2(self):
        system = make_affine_a2()
        assert len(system.canon("abc" * 1000)) == 3000

    def test_a_long_word_times_its_inverse_on_a_triangle_group(self):
        system = CoxeterSystem("abc", {("a", "b"): 2, ("b", "c"): 3, ("a", "c"): 7})
        rng = random.Random(20261020)
        w = tuple(rng.choice(system.gens) for _ in range(1000))
        assert system.canon(w + w[::-1]) == ()
