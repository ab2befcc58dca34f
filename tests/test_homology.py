import math
import random
from itertools import combinations

import pytest

from artinhom import ArtinMonoid, CoxeterSystem
from artinhom.errors import NotAComplex
from artinhom.homology import (
    HomologyGroup,
    IntChainComplex,
    abelianized_presentation_h1,
    direct_sum,
    interval_chains,
    interval_complex,
    invariant_factors,
    poset_core,
)
from conftest import (
    columns,
    elements_of_length,
    full_fiber_complex,
    make_a3,
    smith_normal_form,
)

# the 6-vertex projective plane (half an icosahedron): H = Z, Z/2, 0
RP2_FACETS = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6),
]


def matmul(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def check_reference(matrix, diagonal=None):
    """The dense reference's witnesses and chain hold on `matrix`, it gives
    `diagonal` when one is named, and the sparse route gives its nonzero
    entries."""
    result, left, right = smith_normal_form(matrix)
    if diagonal is not None:
        assert result == diagonal
    for i in range(1, len(result)):
        if result[i - 1]:
            assert result[i] % result[i - 1] == 0
        else:
            assert result[i] == 0
    assert all(d >= 0 for d in result)
    if matrix and matrix[0]:
        product = matmul(matmul(left, matrix), right)
        shape = range(len(matrix)), range(len(matrix[0]))
        assert product == [[result[i] if i == j else 0 for j in shape[1]] for i in shape[0]]
    assert invariant_factors(columns(matrix)) == [d for d in result if d]


def dense_homology(complex_):
    """Homology from the dense Smith reference, each boundary on its own,
    with no clearing between dimensions."""
    ranks = complex_.ranks
    rank, torsion = {}, {}
    for k in range(1, len(ranks)):
        dense = [[col.get(i, 0) for col in complex_.boundary(k)] for i in range(ranks[k - 1])]
        factors = [d for d in smith_normal_form(dense)[0] if d]
        rank[k] = len(factors)
        torsion[k] = tuple(d for d in factors if d > 1)
    return [
        HomologyGroup(ranks[k] - rank.get(k, 0) - rank.get(k + 1, 0), torsion.get(k + 1, ()))
        for k in range(len(ranks))
    ]


def closure(facets):
    """All non-empty faces of the facets, as sorted vertex tuples."""
    return sorted(
        {face for f in facets for r in range(1, len(f) + 1) for face in combinations(sorted(f), r)}
    )


def simplicial_chain_complex(simplices):
    """The chain complex of face-closed simplices with sorted vertices."""
    by_dim = [[] for _ in range(max(map(len, simplices)))]
    for simplex in simplices:
        by_dim[len(simplex) - 1].append(simplex)
    index = [{s: i for i, s in enumerate(found)} for found in by_dim]
    boundaries = {
        k: [
            {index[k - 1][s[:i] + s[i + 1 :]]: (-1) ** i for i in range(len(s))}
            for s in by_dim[k]
        ]
        for k in range(1, len(by_dim))
    }
    return IntChainComplex(tuple(map(len, by_dim)), boundaries)


def random_poset(rng, size):
    """A random DAG on `size` labels, closed transitively: each label to
    the list of labels strictly below it, listed in a random order."""
    labels = rng.sample(range(100), size)
    below = {}
    for j, p in enumerate(labels):
        found = set()
        for q in labels[:j]:
            if rng.random() < 0.35:
                found |= {q} | below[q]
        below[p] = found
    return {p: rng.sample(sorted(found), len(found)) for p, found in below.items()}


def sentinel_chains(elements, below):
    """Every chain of the poset, least entry first, between two sentinel
    ends: the interval complex of its order complex, shifted up two."""
    elements = set(elements)
    ending = {}

    def ending_at(p):
        if p not in ending:
            ending[p] = [(p,)] + [
                chain + (p,) for q in below[p] if q in elements for chain in ending_at(q)
            ]
        return ending[p]

    return [(None, None)] + [(None, *c, None) for p in elements for c in ending_at(p)]


def cokernel(matrix, rows):
    """Z^rows modulo the span of the sparse columns."""
    factors = invariant_factors(matrix)
    return HomologyGroup(rows - len(factors), tuple(d for d in factors if d > 1))


class TestSmithNormalForm:
    def test_coprime_diagonal(self):
        assert invariant_factors(columns([[2, 0], [0, 3]])) == [1, 6]
        check_reference([[2, 0], [0, 3]], [1, 6])

    def test_zero_matrix(self):
        assert invariant_factors(columns([[0, 0], [0, 0]])) == []
        check_reference([[0, 0], [0, 0]], [0, 0])

    def test_identity(self):
        assert invariant_factors(columns([[1, 0], [0, 1]])) == [1, 1]
        check_reference([[1, 0], [0, 1]], [1, 1])

    def test_empty_shapes(self):
        assert invariant_factors(columns([])) == []
        assert invariant_factors(columns([[], []])) == []
        check_reference([], [])
        check_reference([[], []], [])

    def test_textbook_example_with_witnesses(self):
        matrix = [[12, 6, 4, 8], [3, 9, 6, 12], [2, 16, 14, 28], [20, 10, 10, 20]]
        assert invariant_factors(columns(matrix)) == [1, 10, 30]
        check_reference(matrix, [1, 10, 30, 0])

    def test_random_matrices(self):
        rng = random.Random(20240817)
        for _ in range(300):
            rows = rng.randint(0, 5)
            cols = rng.randint(0, 5)
            matrix = [
                [rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)
            ]
            # the sparse route agrees with the dense reference
            check_reference(matrix)

    def test_sparse_elimination_on_larger_unit_matrices(self):
        # many unit pivots whose fill revisits earlier columns
        rng = random.Random(3)
        for _ in range(40):
            rows, cols = rng.randint(5, 25), rng.randint(5, 25)
            matrix = [
                [rng.choice((-1, 1, 2)) if rng.random() < 0.2 else 0 for _ in range(cols)]
                for _ in range(rows)
            ]
            expected = [d for d in smith_normal_form(matrix)[0] if d]
            assert invariant_factors(columns(matrix)) == expected

    def test_large_non_unit_cores_are_invariant(self):
        # cores far past the dense reference's reach: the factors survive
        # elementary operations and transposition, and add over block sums
        rng = random.Random(11)
        entries = (-1, 1, 2, 3, -4, 6)
        previous = None
        for _ in range(30):
            rows, cols = rng.randint(20, 30), rng.randint(20, 30)
            matrix = [
                [rng.choice(entries) if rng.random() < 0.3 else 0 for _ in range(cols)]
                for _ in range(rows)
            ]
            factors = invariant_factors(columns(matrix))
            moved = [row[:] for row in matrix]
            for _ in range(40):
                q = rng.choice((-2, -1, 1, 2))
                if rng.random() < 0.5:
                    i, k = rng.sample(range(rows), 2)
                    moved[i] = [a + q * b for a, b in zip(moved[i], moved[k])]
                else:
                    j, k = rng.sample(range(cols), 2)
                    for row in moved:
                        row[j] += q * row[k]
            assert invariant_factors(columns(moved)) == factors
            assert invariant_factors(columns([list(c) for c in zip(*matrix)])) == factors
            if previous is not None:
                block = [row + [0] * len(previous[0]) for row in matrix]
                block += [[0] * cols + row for row in previous]
                assert cokernel(columns(block), len(block)) == direct_sum(
                    [cokernel(columns(matrix), rows), cokernel(columns(previous), len(previous))]
                )
            previous = matrix

    def test_sparse_elimination_on_structured_input(self):
        # entries sharing a unit pivot's row are absorbed, not new factors
        matrix = [
            [1, 0, 0, 0],
            [0, 1, 0, 5],
            [0, 0, 4, 0],
            [0, 0, 0, 0],
        ]
        assert invariant_factors(columns(matrix)) == [1, 1, 4]
        # a non-unit core still gets its divisibility chain repaired
        matrix = [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 4, 0],
            [0, 0, 0, 6],
        ]
        assert invariant_factors(columns(matrix)) == [1, 1, 2, 12]


class TestChainComplexes:
    def test_shape_validation(self):
        with pytest.raises(NotAComplex):
            IntChainComplex((1, 2), {1: columns([[0]])})

    def test_composition_validation(self):
        bad = IntChainComplex((1, 1, 1), {1: columns([[1]]), 2: columns([[1]])})
        with pytest.raises(NotAComplex):
            bad.homology()

    def test_composition_validation_across_a_zero_rank_dimension(self):
        # dimension 1 has rank 0, yet d_3 after d_4 is not zero
        bad = IntChainComplex((1, 0, 1, 1, 1), {3: columns([[1]]), 4: columns([[1]])})
        with pytest.raises(NotAComplex):
            bad.check_composition()
        with pytest.raises(NotAComplex):
            bad.homology()

    def test_projective_plane(self):
        complex_ = IntChainComplex((1, 1, 1), {1: columns([[0]]), 2: columns([[2]])})
        assert complex_.homology() == dense_homology(complex_)
        assert complex_.homology() == [
            HomologyGroup(1),
            HomologyGroup(0, (2,)),
            HomologyGroup(0),
        ]

    def test_klein_bottle(self):
        complex_ = IntChainComplex(
            (1, 2, 1), {1: columns([[0, 0]]), 2: columns([[2], [0]])}
        )
        assert complex_.homology() == dense_homology(complex_)
        assert complex_.homology() == [
            HomologyGroup(1),
            HomologyGroup(1, (2,)),
            HomologyGroup(0),
        ]

    def test_torus(self):
        complex_ = IntChainComplex(
            (1, 2, 1), {1: columns([[0, 0]]), 2: columns([[0], [0]])}
        )
        assert complex_.homology() == dense_homology(complex_)
        assert complex_.homology() == [
            HomologyGroup(1),
            HomologyGroup(2),
            HomologyGroup(1),
        ]

    def test_clearing_on_random_simplicial_complexes(self):
        # some start from a relabelled projective plane, so torsion shows
        rng = random.Random(20261018)
        for _ in range(200):
            vertices = rng.randint(1, 8)
            facets = [
                rng.sample(range(vertices), rng.randint(1, min(vertices, 4)))
                for _ in range(rng.randint(1, 14))
            ]
            if rng.random() < 0.25:
                label = rng.sample(range(8), 7)
                facets += [[label[v] for v in f] for f in RP2_FACETS]
            simplices = closure(facets)
            complex_ = simplicial_chain_complex(simplices)
            expected = dense_homology(complex_)
            assert complex_.homology() == expected, facets
            # the same complex between two sentinel ends: reduced, up two degrees
            wrapped = [(None, *s, None) for s in [(), *simplices]]
            h0 = expected[0]
            reduced = [HomologyGroup(0), HomologyGroup(0), HomologyGroup(h0.free_rank - 1)]
            assert interval_complex(wrapped).homology() == reduced + expected[1:], facets

    def test_clearing_on_the_projective_plane(self):
        # torsion met after clearing: the unit pivots of d_2 drop columns of d_1
        complex_ = simplicial_chain_complex(closure(RP2_FACETS))
        expected = [HomologyGroup(1), HomologyGroup(0, (2,)), HomologyGroup(0)]
        assert dense_homology(complex_) == expected
        assert complex_.homology() == expected

    def test_clearing_on_a3_fibers(self):
        mon = ArtinMonoid(make_a3())
        fibers = [
            full_fiber_complex(mon, x)
            for n in range(6)
            for x in elements_of_length(mon, n)
        ]
        assert len(fibers) == 168
        for complex_ in fibers:
            assert complex_.homology() == dense_homology(complex_)

    def test_empty_complex(self):
        assert IntChainComplex(()).homology() == []

    def test_invariance_under_signed_permutations(self):
        rng = random.Random(7)
        d1 = [[0, 0, 0], [0, 0, 0]]
        d2 = [[2, 0], [0, 0], [0, 3]]
        base = IntChainComplex((2, 3, 2), {1: columns(d1), 2: columns(d2)})
        reference = base.homology()
        for _ in range(25):

            def signed_permutation(n):
                order = list(range(n))
                rng.shuffle(order)
                signs = [rng.choice((1, -1)) for _ in range(n)]
                matrix = [[0] * n for _ in range(n)]
                for i, j in enumerate(order):
                    matrix[i][j] = signs[i]
                return matrix

            P0 = signed_permutation(2)
            P1 = signed_permutation(3)
            P2 = signed_permutation(2)

            def inverse(P):
                n = len(P)
                out = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(n):
                        out[j][i] = P[i][j]
                return out

            changed = IntChainComplex(
                (2, 3, 2),
                {
                    1: columns(matmul(matmul(P0, d1), inverse(P1))),
                    2: columns(matmul(matmul(P1, d2), inverse(P2))),
                },
            )
            assert changed.homology() == reference


class TestIntervalComplex:
    def test_one_entry_chain_is_a_point(self):
        assert interval_complex([("x",)]).homology() == [HomologyGroup(1)]

    def test_bare_interval_is_the_minus_one_sphere(self):
        # the empty open interval is S^-1: Z in degree -1, dimension 1
        assert interval_complex([(None, None)]).homology() == [
            HomologyGroup(0),
            HomologyGroup(1),
        ]


class TestIntervalChains:
    def test_random_posets_against_sentinel_chains(self):
        # between a top above every element and a bottom below every one,
        # read upwards with both ends as None, the chains are the oracle's
        rng = random.Random(20261020)
        for _ in range(200):
            below = random_poset(rng, rng.randint(0, 9))
            listed = interval_chains(
                "top", lambda p: list(below) if p == "top" else below[p], "bottom"
            )
            assert len(listed) == len(set(listed)), below
            upwards = {(None, *chain[-2:0:-1], None) for chain in listed}
            assert upwards == set(sentinel_chains(below, below)), below

    def test_chains_extend_depth_first(self):
        below = {3: [2, 1], 2: [1], 1: []}
        assert interval_chains(3, below.__getitem__, 0) == [
            (3, 0), (3, 2, 0), (3, 2, 1, 0), (3, 1, 0),
        ]

    def test_a_one_element_interval_is_its_one_chain(self):
        assert interval_chains("x", lambda p: ["never listed"], "x") == [("x",)]
        mon = ArtinMonoid(make_a3())
        assert interval_chains(0, mon._divisors, 0) == [(0,)]


class TestPosetCore:
    def test_a_maximum_is_the_whole_core(self):
        subsets = [frozenset(c) for r in (1, 2, 3) for c in combinations("abc", r)]
        below = {p: [q for q in subsets if q < p] for p in subsets}
        assert poset_core(subsets, below) == [frozenset("abc")]
        rng = random.Random(1)
        for _ in range(50):
            below = random_poset(rng, rng.randint(0, 8))
            below["top"] = list(below)
            assert poset_core(below, below) == ["top"]

    def test_spheres_have_no_beat_points(self):
        # S^0, and the face poset of a square's boundary (S^1)
        assert poset_core("pq", {"p": [], "q": []}) == ["p", "q"]
        edges = [(1, 2), (2, 3), (3, 4), (1, 4)]
        below = {v: [] for v in range(1, 5)} | {e: list(e) for e in edges}
        assert poset_core(below, below) == list(below)

    def test_no_beat_point_is_left(self):
        def is_beat_point(p, core, below):
            lower = [q for q in below[p] if q in core]
            upper = [q for q in core if p in below[q]]
            return any(all(r == m or r in below[m] for r in lower) for m in lower) or any(
                all(r == m or m in below[r] for r in upper) for m in upper
            )

        rng = random.Random(3)
        for _ in range(500):
            below = random_poset(rng, rng.randint(0, 12))
            core = set(poset_core(below, below))
            assert not any(is_beat_point(p, core, below) for p in core), below

    def test_the_core_does_not_depend_on_the_input_order(self):
        rng = random.Random(2)
        for _ in range(100):
            below = random_poset(rng, rng.randint(0, 9))
            core = set(poset_core(below, below))
            for _ in range(3):
                shuffled = {p: rng.sample(qs, len(qs)) for p, qs in below.items()}
                order = rng.sample(sorted(below), len(below))
                assert set(poset_core(order, shuffled)) == core

    def test_the_core_keeps_the_homology_of_the_order_complex(self):
        rng = random.Random(20261019)
        shrunk = 0
        for _ in range(200):
            below = random_poset(rng, rng.randint(0, 9))
            core = poset_core(below, below)
            shrunk += len(core) < len(below)
            whole = interval_complex(sentinel_chains(below, below)).homology()
            reduced = interval_complex(sentinel_chains(core, below)).homology()
            # the core's chains are shorter: it may lack some top dimensions
            assert reduced == whole[: len(reduced)], below
            assert all(h == HomologyGroup(0) for h in whole[len(reduced) :]), below
        assert shrunk > 100


class TestDirectSum:
    def test_torsion_merges_into_invariant_factors(self):
        groups = [HomologyGroup(1, (2,)), HomologyGroup(0, (3,)), HomologyGroup(2)]
        assert direct_sum(groups) == HomologyGroup(3, (6,))
        assert direct_sum([HomologyGroup(0, (2,))] * 2) == HomologyGroup(0, (2, 2))
        assert direct_sum(
            [HomologyGroup(0, (2, 4)), HomologyGroup(0, (6,))]
        ) == HomologyGroup(0, (2, 2, 12))

    def test_empty_sum_is_trivial(self):
        assert direct_sum([]) == HomologyGroup(0)


class TestPresentationOracle:
    @pytest.mark.parametrize(
        "orders, rank",
        [
            ({("a", "b"): 3}, 1),
            ({("a", "b"): 2}, 2),
            ({("a", "b"): math.inf}, 2),
            ({("a", "b"): 4}, 2),
            ({("a", "b"): 5}, 1),
        ],
    )
    def test_rank_two(self, orders, rank):
        system = CoxeterSystem("ab", orders)
        assert abelianized_presentation_h1(system) == HomologyGroup(rank)

    def test_chain_of_odd_edges(self, a3):
        assert abelianized_presentation_h1(a3) == HomologyGroup(1)

    def test_mixed_graph(self):
        system = CoxeterSystem(
            "abcd", {("a", "b"): 3, ("b", "c"): 4, ("c", "d"): 7}
        )
        # odd edges ab and cd leave two components
        assert abelianized_presentation_h1(system) == HomologyGroup(2)
