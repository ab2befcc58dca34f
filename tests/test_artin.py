import math

import pytest

from artinhom import ArtinMonoid, CoxeterSystem
from artinhom.errors import InfiniteType, NotAChain, Undecided
from conftest import all_words, is_squarefree, recompose


def W(text):
    return tuple(text)


class TestEquivalence:
    def test_class_examples(self, mon_a2):
        assert mon_a2.equiv_class(W("aba")) == {W("aba"), W("bab")}
        assert mon_a2.equiv_class(W("ab")) == {W("ab")}
        assert mon_a2.equiv_class(W("a")) == {W("a")}

    def test_classes_preserve_length(self, mon_a2, mon_a3):
        for mon, letters in ((mon_a2, "ab"), (mon_a3, "abc")):
            for word in all_words(letters, 4):
                assert {len(w) for w in mon.equiv_class(word)} == {len(word)}

    def test_length_additivity(self, mon_a2):
        words = all_words("ab", 3)
        for x in words:
            for y in words:
                assert len(mon_a2.mul(x, y)) == len(x) + len(y)

    def test_cancellativity(self, mon_a2, mon_a3):
        for mon, letters, max_len in ((mon_a2, "ab", 5), (mon_a3, "abc", 3)):
            elements = [
                e for n in range(max_len + 1) for e in mon.elements_of_length(n)
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
                assert mon_a2.right_quotient(product, y) == mon_a2.canon(x)
                # the left quotient, through the reversal anti-automorphism
                left = mon_a2.right_quotient(mon_a2.rev(product), mon_a2.rev(x))
                assert mon_a2.rev(left) == mon_a2.canon(y)
                if x and y:
                    split = (mon_a2.canon(x), mon_a2.canon(y))
                    assert split in mon_a2.left_splits(product)


class TestGcdLcm:
    def test_gcd_examples(self, mon_a2):
        assert mon_a2.left_gcd([W("ab"), W("aa")]) == W("a")
        assert mon_a2.left_gcd([W("ab")]) == W("ab")
        assert mon_a2.left_gcd([W("aba"), W("bab")]) == W("aba")

    def test_gcd_is_greatest(self, mon_a2):
        words = all_words("ab", 4)
        for x in words[1:]:
            for y in words[1:]:
                gcd = mon_a2.left_gcd([x, y])
                assert mon_a2.left_divides(gcd, x)
                assert mon_a2.left_divides(gcd, y)
                common = mon_a2.left_divisors(x) & mon_a2.left_divisors(y)
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

    def test_undecided_when_bound_exhausted(self, mon_ainf):
        with pytest.raises(Undecided):
            mon_ainf.right_lcm([W("ab"), W("ba")], bound=6)

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
        assert mon_a2.finishing_set(W("aba")) == {"a", "b"}
        assert mon_a2.finishing_set(W("ab")) == {"b"}
        assert mon_a2.finishing_set(()) == frozenset()

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
                    assert mon.finishing_set(recompose(mon, parts[j:])) == parts[j]

    def test_uniqueness_by_exhaustive_search(self, mon_a2):
        deltas = {T: mon_a2.delta(T) for T in mon_a2.system.sf() if T}

        def competitors(x):
            found = []

            def extend(remaining, parts):
                if not remaining:
                    found.append(tuple(parts))
                    return
                for T, d in deltas.items():
                    rest = mon_a2.right_quotient(remaining, d)
                    if rest is not None:
                        extend(rest, parts + [T])

            extend(mon_a2.canon(x), [])
            valid = []
            for parts in found:
                if recompose(mon_a2, parts) != mon_a2.canon(x):
                    continue
                if all(
                    mon_a2.finishing_set(recompose(mon_a2, parts[j:])) == parts[j]
                    for j in range(len(parts))
                ):
                    valid.append(parts)
            return valid

        for word in all_words("ab", 4):
            if not word:
                continue
            assert competitors(word) == [mon_a2.normal_form(word)]
