"""The two collapse matchings on the classifying-space model, and audits.

The set D of fundamental elements delta_T (T non-empty, finite type)
classifies cells.  A cell is depth-essential when every tail product
x_k...x_n lies in D; the first matching pairs the remaining cells by
splitting or merging at the depth position, keyed on finishing sets.
On the depth-essential cells a second matching does the same with the
maximum-generator condition on the chain of tail sets.  The union is
graded by (length, flag), the flag being 0 exactly on depth-essential
cells, and every matched pair preserves the grade.  Matched pairs and
merge faces also keep the product x of a cell's factors, so
acyclicity and perfect-matching can be audited one finite (x, flag)
fiber at a time.

The paper trail for the two constructions defines only the collapsible
(upper) side; the inverse splits used here are completed so that the
audit can certify, per fiber, that (a) the matching is perfect off the
essential cells and (b) reversing matched edges leaves the fiber's face
graph acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .artin import ArtinMonoid
from .bar import BarCell, factorizations, merge_faces
from .coxeter import Word
from .errors import AuditFailure, InfiniteType, InternalError

Grade = tuple[int, int]


@dataclass(frozen=True)
class MatchEdge:
    """A matched pair: `lower` is the merge of `upper` at the depth slot."""

    upper: BarCell
    lower: BarCell
    kind: str  # "M1" or "M2"


@dataclass
class GradeAudit:
    grade: Grade
    cells: int = 0
    edges: int = 0
    essential: list[BarCell] = field(default_factory=list)


@dataclass
class LengthAudit:
    """The audits of the grades (length, 0) and (length, 1), in that order."""

    grades: tuple[GradeAudit, GradeAudit]

    @property
    def cells(self) -> int:
        return sum(audit.cells for audit in self.grades)


class BarMatching:
    """Cell classification and partner computation for one monoid.

    `partner` is the one entry point that takes a bare cell: it computes
    the cell's suffix products once and hands them to the private
    helpers, which the audit also calls with the products that
    `factorizations` already built.  A cell's flag is 0 exactly when its
    partner is None or an "M2" edge.
    """

    def __init__(self, mon: ArtinMonoid):
        self.mon = mon
        self.system = mon.system
        self._delta_of: dict[Word, frozenset[str]] | None = None

    @property
    def delta_of(self) -> dict[Word, frozenset[str]]:
        """Map from each fundamental element to its generating subset."""
        if self._delta_of is None:
            self._delta_of = {
                delta: T for T, delta in self.mon.deltas().items()
            }
        return self._delta_of

    # -- tail data ----------------------------------------------------------

    def suffix_products(self, cell: BarCell) -> list[Word]:
        """P[j] = x_{j+1} ... x_n for j = 0..n (so P[n] is the identity)."""
        n = len(cell)
        products: list[Word] = [()] * (n + 1)
        for j in range(n - 1, -1, -1):
            products[j] = self.mon.mul(cell[j], products[j + 1])
        return products

    def _depth(self, products: Sequence[Word]) -> int:
        """Least j (1-based) whose tail products P[j-1..n-1] all lie in D."""
        j = len(products)
        while j > 1 and products[j - 2] in self.delta_of:
            j -= 1
        return j

    def _m1_target(self, products: Sequence[Word], d: int) -> frozenset[str]:
        """I_d, the tail set the finishing set is compared with at depth d."""
        return self.delta_of[products[d - 1]] if d < len(products) else frozenset()

    def _m1_edge(self, cell: BarCell, products: Sequence[Word]) -> MatchEdge:
        d = self._depth(products)
        R = self.mon.finishing_set(products[d - 2])
        if R == self._m1_target(products, d):
            return MatchEdge(cell, self._merge_at(cell, d), "M1")
        return MatchEdge(self._split_at(cell, products, d, R), cell, "M1")

    # -- the second matching, on depth-essential cells -----------------------

    def _sets(self, products: Sequence[Word]) -> list[frozenset[str]]:
        """I_1 .. I_{n+1} for a depth-essential cell (strictly decreasing)."""
        return [self.delta_of[p] for p in products[:-1]] + [frozenset()]

    def _chain_step_ok(self, sets: list[frozenset[str]], k: int) -> bool:
        """Whether I_k drops exactly the maximum of I_k (1-based k)."""
        removed = sets[k - 1] - sets[k]
        return len(removed) == 1 and next(iter(removed)) == max(
            sets[k - 1], key=self.system.index
        )

    def _max_depth(self, sets: list[frozenset[str]]) -> int:
        j = len(sets)
        while j > 1 and self._chain_step_ok(sets, j - 1):
            j -= 1
        return j

    def _m2_collapsible(self, sets: list[frozenset[str]], d: int) -> bool:
        if d < 2 or d >= len(sets):
            return False
        key = self.system.index
        return max(sets[d - 2], key=key) == max(sets[d - 1], key=key)

    def _m2_edge(self, cell: BarCell, products: Sequence[Word]) -> MatchEdge | None:
        sets = self._sets(products)
        d = self._max_depth(sets)
        if d == 1:
            return None
        if self._m2_collapsible(sets, d):
            return MatchEdge(cell, self._merge_at(cell, d), "M2")
        top = max(sets[d - 2], key=self.system.index)
        upper = self._split_at(cell, products, d, sets[d - 1] | {top})
        return MatchEdge(upper, cell, "M2")

    def partner(self, cell: BarCell) -> MatchEdge | None:
        """The unique matched edge containing the cell, None if essential."""
        return self._edge(cell, self.suffix_products(cell))

    def _edge(self, cell: BarCell, products: Sequence[Word]) -> MatchEdge | None:
        if self._depth(products) == 1:
            return self._m2_edge(cell, products)
        return self._m1_edge(cell, products)

    # -- edge construction ----------------------------------------------------

    def _merge_at(self, cell: BarCell, d: int) -> BarCell:
        return (
            cell[: d - 2]
            + (self.mon.mul(cell[d - 2], cell[d - 1]),)
            + cell[d:]
        )

    def _split_at(
        self, cell: BarCell, products: Sequence[Word], d: int, target: frozenset[str]
    ) -> BarCell:
        """Split x_{d-1} = beta * y so the new tail product equals delta(target)."""
        delta = self.mon.deltas().get(target)
        if delta is None:
            raise InternalError(f"no fundamental element on {sorted(target)}")
        y = self.mon.right_quotient(delta, products[d - 1])
        if y is None:
            raise InternalError(
                f"tail of {cell} does not divide delta of {sorted(target)}"
            )
        beta = self.mon.right_quotient(cell[d - 2], y)
        if beta is None or not beta:
            raise InternalError(f"degenerate split of {cell} at position {d}")
        return cell[: d - 2] + (beta, y) + cell[d - 1 :]

    # -- grading and per-fiber audits ------------------------------------------

    def essential_cell(self, T: Iterable[str]) -> BarCell:
        """The unique fully essential cell whose top tail set is T."""
        T = self.system.check_subset(T)
        if not self.system.is_finite_type(T):
            raise InfiniteType(f"no fundamental element on {sorted(T)}")
        deltas = self.mon.deltas()
        factors = []
        current = T
        while current:
            rest = current - {max(current, key=self.system.index)}
            factor = self.mon.right_quotient(deltas[current], deltas.get(rest, ()))
            if factor is None:
                raise InternalError(f"fundamental elements on {sorted(T)} do not nest")
            factors.append(factor)
            current = rest
        return tuple(factors)

    def essential_cells(self) -> dict[frozenset[str], BarCell]:
        return {T: self.essential_cell(T) for T in self.system.sf()}

    def audit_grade(
        self, length: int, edges: set[MatchEdge] | None = None
    ) -> LengthAudit:
        """Certify both grades of one length: perfect matching off
        essentials, grading compatibility, regular matched faces, and
        acyclicity.

        Merge faces and matched edges keep the product x of a cell's
        factors, so the grades are audited one (x, flag) fiber at a time,
        in one pass over the elements x of this length.  `edges`, when
        given, is audited in place of the matching's own edges.
        """
        audits = (GradeAudit((length, 0)), GradeAudit((length, 1)))
        given: dict[Word, set[MatchEdge]] | None = None
        if edges is not None:
            given = {}
            for edge in edges:
                given.setdefault(self.mon.mul(*edge.lower), set()).add(edge)
        for x in self.mon.elements_of_length(length):
            # cell -> (flag, essential, suffix products)
            cells: dict[BarCell, tuple[int, bool, tuple[Word, ...]]] = {}
            own: set[MatchEdge] = set()
            for cell, products in factorizations(self.mon, x):
                depth_essential = self._depth(products) == 1
                essential = (
                    depth_essential and self._max_depth(self._sets(products)) == 1
                )
                cells[cell] = (0 if depth_essential else 1, essential, products)
                if given is None and not essential:
                    own.add(self._edge(cell, products))
            fiber_edges = own if given is None else given.pop(x, set())
            self._audit_fiber(length, cells, fiber_edges, audits)
        if given:
            edge = next(iter(next(iter(given.values()))))
            raise AuditFailure(
                f"length {length}: edge endpoint {edge.lower} escapes the length"
            )
        return LengthAudit(audits)

    def _audit_fiber(self, length, cells, edges, audits) -> None:
        """Audit the cells of one x, split by flag, with their edges."""
        occurrences: dict[BarCell, int] = {}
        for edge in edges:
            grade = (length, cells[edge.lower][0] if edge.lower in cells else 1)
            if len(edge.upper) != len(edge.lower) + 1:
                raise AuditFailure(f"{grade}: edge {edge} is not codimension 1")
            incidence = sum(
                sign for sign, face in merge_faces(self.mon, edge.upper)
                if face == edge.lower
            )
            if incidence not in (1, -1):
                raise AuditFailure(
                    f"{grade}: matched face of {edge.upper} has incidence {incidence}"
                )
            for endpoint in (edge.upper, edge.lower):
                occurrences[endpoint] = occurrences.get(endpoint, 0) + 1
                if endpoint not in cells or cells[endpoint][0] != grade[1]:
                    raise AuditFailure(
                        f"{grade}: edge endpoint {endpoint} escapes the fiber"
                    )
            expected = "M2" if grade[1] == 0 else "M1"
            if edge.kind != expected:
                raise AuditFailure(f"{grade}: edge {edge} has kind {edge.kind}")
            audits[grade[1]].edges += 1
        for cell, count in occurrences.items():
            if count > 1:
                raise AuditFailure(
                    f"{(length, cells[cell][0])}: cell {cell} lies on {count} edges"
                )
        for cell, (flag, essential, _) in cells.items():
            matched = cell in occurrences
            if essential and matched:
                raise AuditFailure(f"{(length, flag)}: essential cell {cell} is matched")
            if not essential and not matched:
                raise AuditFailure(f"{(length, flag)}: cell {cell} is unmatched")
            audits[flag].cells += 1
            if essential:
                audits[flag].essential.append(cell)
        for flag in (0, 1):
            self._check_fiber_acyclic(
                (length, flag),
                {products: cell for cell, (f, _, products) in cells.items() if f == flag},
                {
                    (cells[edge.upper][2], cells[edge.lower][2])
                    for edge in edges
                    if cells[edge.lower][0] == flag
                },
            )

    def _check_fiber_acyclic(self, grade, cell_of, reversed_pairs) -> None:
        """Kahn's sort of one (x, flag) fiber, keyed by suffix products.

        Merging x_i with x_{i+1} deletes P[i], so the faces inside the
        fiber are found by deletion; matched pairs point upwards.
        """
        successors: dict[tuple[Word, ...], list[tuple[Word, ...]]] = {
            node: [] for node in cell_of
        }
        indegree = dict.fromkeys(cell_of, 0)
        for node in cell_of:
            for i in range(1, len(node) - 1):
                face = node[:i] + node[i + 1 :]
                if face not in cell_of:
                    continue
                if (node, face) in reversed_pairs:
                    source, target = face, node
                else:
                    source, target = node, face
                successors[source].append(target)
                indegree[target] += 1
        queue = [node for node, degree in indegree.items() if degree == 0]
        visited = 0
        while queue:
            node = queue.pop()
            visited += 1
            for target in successors[node]:
                indegree[target] -= 1
                if indegree[target] == 0:
                    queue.append(target)
        if visited != len(cell_of):
            stuck = sorted(
                (cell_of[node] for node, degree in indegree.items() if degree > 0),
                key=lambda c: (len(c), c),
            )
            raise AuditFailure(
                f"{grade}: matched fiber graph has a cycle through {stuck[:4]}"
            )
