import pytest

from artinhom import ArtinMonoid, bar
from artinhom.bar import (
    boundary,
    cell_length,
    faces,
    fiber_complex,
    layer_homology,
)
from artinhom.homology import HomologyGroup, direct_sum
from artinhom.matching import BarMatching
from conftest import (
    BraidClassMonoid,
    cell_faces,
    elements_of_length,
    factorizations,
    full_fiber_complex,
    grade,
    ids,
    iter_cells_of_grade,
    make_a1a1a1,
    make_a2,
    make_a3,
    make_affine_a2,
    make_ainf,
    make_b2,
    make_g2,
    make_i25,
    merge_faces,
    suffix_products,
    words,
)

# systems whose chain faces are checked against the cell faces, through
# length 6
FACE_SYSTEMS = {
    "A2": make_a2,
    "B2": make_b2,
    "A3": make_a3,
    "affine-A2": make_affine_a2,
    "free": make_ainf,
}


def W(text):
    return tuple(text)


def chains_through(mon, top):
    """Every chain of [1, x] for x of length at most `top`, as ids, with
    its cell, from the factorization oracle."""
    for n in range(top + 1):
        for x in elements_of_length(mon, n):
            for cell, products in factorizations(mon, x):
                yield cell, ids(mon, products)


class TestFaces:
    def test_two_cell(self, mon_a2):
        # [a|b] is the chain ab > b > 1; dropping b divides ab by it
        chain = ids(mon_a2, (W("ab"), W("b"), ()))
        assert faces(mon_a2, chain) == [
            (1, ids(mon_a2, (W("b"), ()))),
            (-1, ids(mon_a2, (W("ab"), ()))),
            (1, ids(mon_a2, (W("a"), ()))),
        ]

    def test_one_cell_hits_the_point_twice(self, mon_a2):
        point = ids(mon_a2, ((),))
        assert faces(mon_a2, ids(mon_a2, (W("a"), ()))) == [(1, point), (-1, point)]
        assert boundary(mon_a2, ids(mon_a2, (W("a"), ()))) == {}
        assert faces(mon_a2, point) == []

    def test_sign_pattern(self, mon_a3):
        chain = ids(mon_a3, suffix_products(mon_a3, (W("a"), W("b"), W("c"))))
        signs = [sign for sign, _ in faces(mon_a3, chain)]
        assert signs == [1, -1, 1, -1]

    def test_faces_never_degenerate(self, mon_a2):
        # every face is again a chain: strictly decreasing down to 1
        for n in range(1, 5):
            for cell in iter_cells_of_grade(mon_a2, n):
                for _, face in faces(mon_a2, ids(mon_a2, suffix_products(mon_a2, cell))):
                    face = words(mon_a2, face)
                    assert face[-1] == ()
                    assert all(len(p) > len(q) for p, q in zip(face, face[1:]))
                    assert all(mon_a2.right_divides(q, p) for p, q in zip(face, face[1:]))

    def test_merged_product_respects_multiplication(self, mon_a2):
        cell = (W("ab"), W("a"))
        assert merge_faces(mon_a2, cell) == [(-1, (W("aba"),))]
        # on the chain aba > a > 1 the merge deletes a
        chain = ids(mon_a2, (W("aba"), W("a"), ()))
        assert faces(mon_a2, chain)[1] == (-1, ids(mon_a2, (W("aba"), ())))

    @pytest.mark.parametrize("maker", FACE_SYSTEMS.values(), ids=FACE_SYSTEMS)
    def test_chain_faces_are_the_cell_faces(self, maker):
        # the same faces in the same order with the same signs
        mon = ArtinMonoid(maker())
        for cell, chain in chains_through(mon, 6):
            expected = [
                (sign, ids(mon, suffix_products(mon, face))) for sign, face in cell_faces(mon, cell)
            ]
            assert faces(mon, chain) == expected, cell


class TestGradeEnumeration:
    def test_small_grades(self, mon_a2):
        assert list(iter_cells_of_grade(mon_a2, 0)) == [()]
        assert sorted(iter_cells_of_grade(mon_a2, 1)) == [(W("a"),), (W("b"),)]
        assert sorted(iter_cells_of_grade(mon_a2, 2)) == sorted(
            [
                (W("aa"),),
                (W("ab"),),
                (W("ba"),),
                (W("bb"),),
                (W("a"), W("a")),
                (W("a"), W("b")),
                (W("b"), W("a")),
                (W("b"), W("b")),
            ]
        )

    def test_counts_match_composition_oracle(self, mon_a2, mon_ainf):
        # independent count: convolve the element counts over compositions
        for mon in (mon_a2, mon_ainf):
            element_counts = [len(elements_of_length(mon, n)) for n in range(9)]
            convolution = [1]
            for n in range(1, 9):
                convolution.append(
                    sum(
                        element_counts[l] * convolution[n - l]
                        for l in range(1, n + 1)
                    )
                )
            for n in range(7):
                assert sum(1 for _ in iter_cells_of_grade(mon, n)) == convolution[n]

    def test_cells_have_the_right_length(self, mon_a2):
        for n in range(5):
            for cell in iter_cells_of_grade(mon_a2, n):
                assert cell_length(cell) == n


class TestBoundarySquaresToZero:
    def test_full_boundary(self):
        # d_0, the merges and d_n together, on every chain of the systems
        # whose faces are checked against the cell faces
        for maker in FACE_SYSTEMS.values():
            mon = ArtinMonoid(maker())
            for cell, chain in chains_through(mon, 6):
                acc = {}
                for face, coeff in boundary(mon, chain).items():
                    for grandface, coeff2 in boundary(mon, face).items():
                        acc[grandface] = acc.get(grandface, 0) + coeff * coeff2
                assert not any(acc.values()), cell

    def test_grade_complexes_validate(self, mon_a2, mon_b2):
        # every full fiber's differential is the merge differential on its cells
        for mon in (mon_a2, mon_b2):
            for n in range(6):
                for x in elements_of_length(mon, n):
                    complex_ = full_fiber_complex(mon, x)
                    complex_.check_composition()
                    # each dimension's basis: its cells in the order of
                    # `factorizations`
                    cells = [[] for _ in complex_.ranks]
                    for cell, _ in factorizations(mon, x):
                        cells[len(cell)].append(cell)
                    assert tuple(map(len, cells)) == complex_.ranks
                    for k in range(2, len(complex_.ranks)):
                        row = {c: i for i, c in enumerate(cells[k - 1])}
                        for cell, column in zip(cells[k], complex_.boundary(k)):
                            expected = {}
                            for sign, face in merge_faces(mon, cell):
                                expected[row[face]] = expected.get(row[face], 0) + sign
                            assert column == {
                                i: v for i, v in expected.items() if v
                            }, cell


class TestFibers:
    def test_factorizations_partition_each_layer(self, mon_a2, mon_ainf):
        for mon in (mon_a2, mon_ainf):
            matching = BarMatching(mon)
            for n in range(7):
                by_product = {}
                for cell in iter_cells_of_grade(mon, n):
                    by_product.setdefault(mon.mul(*cell), []).append(cell)
                assert sorted(by_product) == sorted(elements_of_length(mon, n))
                for x, cells in by_product.items():
                    found = factorizations(mon, x)
                    assert sorted(cell for cell, _ in found) == sorted(cells)
                    for cell, products in found:
                        assert products == suffix_products(mon, cell)
                        assert matching.cell_of(ids(mon, products)) == cell

    @pytest.mark.parametrize(
        "maker, top",
        [(make_a2, 8), (make_b2, 8), (make_i25, 8), (make_a3, 6)],
        ids=["A2", "B2", "I2(5)", "A3"],
    )
    def test_fiber_homology_is_concentrated_on_fundamental_elements(
        self, maker, top
    ):
        # the factorizations of x have homology Z in degree |T| when
        # x = delta_T, and none otherwise
        system = maker()
        mon = ArtinMonoid(system)
        subset_of = {mon.delta(T): T for T in system.sf()}
        for n in range(top + 1):
            for x in elements_of_length(mon, n):
                groups = fiber_complex(mon, x).homology()
                expected = [HomologyGroup(0)] * (n + 1)
                if x in subset_of:
                    expected[len(subset_of[x])] = HomologyGroup(1)
                assert groups == expected, x

    @pytest.mark.parametrize(
        "maker, top",
        [
            (make_a2, 8),
            (make_b2, 8),
            (make_i25, 8),
            (make_g2, 8),
            (make_a3, 7),
            (make_affine_a2, 6),
            (make_a1a1a1, 6),
        ],
        ids=["A2", "B2", "I2(5)", "G2", "A3", "affine-A2", "A1xA1xA1"],
    )
    def test_core_fiber_has_the_homology_of_the_full_fiber(self, maker, top):
        mon = ArtinMonoid(maker())
        oracle = BraidClassMonoid(mon.system)
        # whether (1, x) has a greatest or least element, so that its core
        # is that element, read off the braid class of x
        extreme = set()
        for n in range(top + 1):
            for x in elements_of_length(mon, n):
                core = fiber_complex(mon, x)
                assert len(core.ranks) == n + 1, x
                assert core.homology() == full_fiber_complex(mon, x).homology(), x
                if n >= 2:
                    words = oracle.braid_class(x)
                    letters = {w[0] for w in words}, {w[-1] for w in words}
                    extreme.add(1 in map(len, letters))
        assert extreme == {True, False}


class TestLayerHomology:
    @pytest.mark.parametrize(
        "maker, top",
        [(make_a2, 8), (make_b2, 8), (make_i25, 8), (make_a3, 6)],
        ids=["A2", "B2", "I2(5)", "A3"],
    )
    def test_layer_is_the_direct_sum_of_the_full_fibers(self, maker, top):
        mon = ArtinMonoid(maker())
        for n in range(top + 1):
            fibers = [
                full_fiber_complex(mon, x).homology()
                for x in elements_of_length(mon, n)
            ]
            expected = [direct_sum(groups) for groups in zip(*fibers)]
            assert layer_homology(mon, n) == expected, n

    def test_only_fibers_that_are_not_cones_are_reduced(self, monkeypatch):
        # through length 8, all but the fibers of the delta_T are cones
        system = make_a3()
        mon = ArtinMonoid(system)
        reduced = []

        def spy(mon, x):
            reduced.append(x)
            return fiber_complex(mon, x)

        monkeypatch.setattr(bar, "fiber_complex", spy)
        for n in range(9):
            layer_homology(mon, n)
        assert sum(len(elements_of_length(mon, n)) for n in range(9)) == 1704
        assert sorted(reduced) == sorted(mon.delta(T) for T in system.sf())
        assert len(reduced) == 8


class TestEta:
    def test_examples(self, mon_a2):
        matching = BarMatching(mon_a2)
        assert grade(matching, ()) == (0, 0)
        assert grade(matching, (W("a"), W("a"))) == (2, 1)
        assert grade(matching, (W("ab"), W("a"))) == (3, 0)

    def test_eta_is_a_poset_map(self, mon_a2):
        matching = BarMatching(mon_a2)
        for n in range(6):
            for cell in iter_cells_of_grade(mon_a2, n):
                cell_grade = grade(matching, cell)
                for _, face in cell_faces(mon_a2, cell):
                    assert grade(matching, face) <= cell_grade
