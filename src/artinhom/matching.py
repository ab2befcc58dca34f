"""The two collapse matchings on the classifying-space model, and audits.

A cell [x_1|...|x_n] is held as its chain of suffix products
P[j] = x_{j+1} ... x_n, the chain x = P[0] > P[1] > ... > P[n] = 1 of
right divisors of its product x, as a tuple of the element ids of the
monoid's table (see `artin` and `bar`; the identity is 0).  Merging x_i
with x_{i+1} deletes P[i] and keeps every other entry.  Both matchings
are one rule on such chains (`BarMatching.edge`), and an edge is a pair
of chains; the factors of a cell, the right quotients of consecutive
entries (`BarMatching.cell_of`), are the only way back to words, needed
only for output and error messages.

The set D of fundamental elements delta_T (T non-empty, finite type)
classifies chains.  The depth d is the least j with P[j-1], ..., P[n-1]
all in D.  When d > 1 the first matching compares the finishing set R of
P[d-2] with the tail set I_d of P[d-1] (empty when d = n + 1).  If they
agree, the chain is collapsible and its edge deletes P[d-1]; otherwise
its edge comes down from the chain with delta_R inserted between P[d-2]
and P[d-1].  A chain of depth 1 lies in D down to P[n-1], and the second
matching does the same with the maximum-generator condition on its tail
sets I_1 > ... > I_{n+1} = {}: at the depth d of that condition a
collapsible chain deletes P[d-1], and any other gets delta of I_d plus
the maximum of I_{d-1} inserted there.  The chains left unmatched are
the essential ones.  The rule multiplies nothing: it reads membership in
D from a map of the fundamental elements' ids to their subsets and
finishing sets from the element table, which holds each once.

The union is graded by (length, flag), the flag being 0 exactly on
depth-1 chains, and every matched pair keeps the grade and the product
x, so acyclicity and perfect matching are audited one finite (x, flag)
fiber at a time, over the chains of [1, x] (`audit_grade`), which
`homology.interval_chains` lists from the monoid's right divisors.  The
incidence of a matched pair is that of the merge face: the lower chain is
the upper one with inner entry i deleted, of sign (-1)^i.  Distinct
deletions give distinct chains, so this is the sum of signs over the
merge faces equal to the lower chain.

Acyclicity needs only the matched upper chains.  Once every chain lies on
at most one edge, a directed path of the modified face graph (faces point
down, matched pairs point up) never takes two up-steps in a row: the top
of an up-step is an upper chain, whose one edge is the one just climbed.
A cycle returns to its dimension, so it has as many up-steps as
down-steps; it alternates and lives in two adjacent dimensions (Chari,
"On discrete Morse functions and combinatorial decompositions", Discrete
Math. 217, 2000).  Its down-steps leave an upper chain u by a face
f != M(u) and its up-steps climb from f to M(f).  So the fiber is acyclic
exactly when the graph on matched upper chains with u -> M(f), for every
inner face f != M(u) of u that is matched upward, has no cycle.

The paper trail for the two constructions defines only the collapsible
(upper) side; the inverse steps used here, which insert a fundamental
element into a chain, are completed so that the audit can certify, per
fiber, that (a) the matching is perfect off the essential chains and
(b) reversing matched edges leaves the fiber's face graph acyclic.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple

from .artin import ArtinMonoid
from .bar import BarCell, Chain
from .errors import AuditFailure, InfiniteType, InternalError
from .homology import interval_chains

Grade = tuple[int, int]
# (upper chain, lower chain, kind): the lower chain is the upper one with
# the inner entry at the depth slot deleted; kind is "M1" or "M2"
ChainEdge = tuple[Chain, Chain, str]


class GradeAudit:
    """The cells, edges and essential cells one grade's audit counted."""

    __slots__ = ("grade", "cells", "edges", "essential")
    __hash__ = None

    def __init__(
        self,
        grade: Grade,
        cells: int = 0,
        edges: int = 0,
        essential: list[BarCell] | None = None,
    ):
        self.grade = grade
        self.cells = cells
        self.edges = edges
        self.essential = [] if essential is None else essential

    def _values(self) -> tuple:
        return self.grade, self.cells, self.edges, self.essential

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        return "GradeAudit(grade={!r}, cells={!r}, edges={!r}, essential={!r})".format(
            *self._values()
        )


class LengthAudit(NamedTuple):
    """The audits of the grades (length, 0) and (length, 1), in that order."""

    grades: tuple[GradeAudit, GradeAudit]

    @property
    def cells(self) -> int:
        return sum(audit.cells for audit in self.grades)


def _deletion_sign(upper: Chain, lower: Chain) -> int:
    """(-1)^i when `lower` is `upper` with inner entry i deleted, else 0;
    `upper` is one entry longer."""
    n = len(lower)
    i = 0
    while i < n and upper[i] == lower[i]:
        i += 1
    return (-1) ** i if 0 < i < n and upper[i + 1 :] == lower[i:] else 0


class BarMatching:
    """Chain classification and the matched edges for one monoid.

    `edge` is the matching; `audit_grade` runs it over every chain of a
    length.  A chain's flag is 0 exactly when its edge is None or an
    "M2" edge.
    """

    def __init__(self, mon: ArtinMonoid):
        self.mon = mon
        self.system = mon.system
        # the id of each fundamental element -> its generating subset, and back
        self._subset_of: dict[int, frozenset[str]] = {
            mon._id(delta): T for T, delta in mon.deltas().items()
        }
        self._delta_id: dict[frozenset[str], int] = {
            T: i for i, T in self._subset_of.items()
        }

    # -- tail data ----------------------------------------------------------

    def _depth(self, chain: Chain) -> int:
        """Least j (1-based) whose tail products P[j-1..n-1] all lie in D."""
        j = len(chain)
        while j > 1 and chain[j - 2] in self._subset_of:
            j -= 1
        return j

    # -- the second matching, on depth-1 chains ------------------------------

    def _sets(self, chain: Chain) -> list[frozenset[str]]:
        """I_1 .. I_{n+1} for a depth-essential cell (strictly decreasing)."""
        return [self._subset_of[p] for p in chain[:-1]] + [frozenset()]

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

    # -- the matching on chains ---------------------------------------------

    def edge(self, chain: Chain) -> ChainEdge | None:
        """The matched edge through a chain, None when it is essential.

        A collapsible chain is the upper end and loses P[d-1]; any other
        is the lower end of the chain with delta of the target set
        inserted before P[d-1] (see the module docstring)."""
        d = self._depth(chain)
        if d == 1:
            sets = self._sets(chain)
            d = self._max_depth(sets)
            if d == 1:
                return None
            kind = "M2"
            if self._m2_collapsible(sets, d):
                return chain, chain[: d - 1] + chain[d:], kind
            target = sets[d - 1] | {max(sets[d - 2], key=self.system.index)}
        else:
            kind = "M1"
            target = self.mon._right(chain[d - 2])
            tail = self._subset_of[chain[d - 1]] if d < len(chain) else frozenset()
            if target == tail:
                return chain, chain[: d - 1] + chain[d:], kind
        delta = self._delta_id.get(target)
        if delta is None:
            raise InternalError(f"no fundamental element on {sorted(target)}")
        return chain[: d - 1] + (delta,) + chain[d - 1 :], chain, kind

    def cell_of(self, chain: Chain) -> BarCell:
        """The cell whose suffix products are the chain: the right
        quotients of its consecutive entries."""
        word = self.mon._word
        factors = []
        for above, below in zip(chain, chain[1:]):
            factor = self.mon._quotient(above, below)
            if not factor:
                raise InternalError(
                    f"{word(below)} is not a proper right divisor of {word(above)} "
                    f"in {tuple(map(word, chain))}"
                )
            factors.append(word(factor))
        return tuple(factors)

    def essential_chain(self, T: Iterable[str]) -> Chain:
        """The unique fully essential chain whose top tail set is T:
        delta_T, delta_{T - max T}, ... down to the identity."""
        T = self.system.check_subset(T)
        if not self.system.is_finite_type(T):
            raise InfiniteType(f"no fundamental element on {sorted(T)}")
        chain = []
        while T:
            chain.append(self._delta_id[T])
            T = T - {max(T, key=self.system.index)}
        return (*chain, 0)

    # -- grading and per-fiber audits ------------------------------------------

    def audit_grade(
        self, length: int, edges: set[ChainEdge] | None = None
    ) -> LengthAudit:
        """Certify both grades of one length: perfect matching off
        essentials, grading compatibility, regular matched faces, and
        acyclicity.

        Merge faces and matched edges keep the product x of a cell's
        factors, so the grades are audited one (x, flag) fiber at a time,
        in one pass over the elements x of this length and the chains of
        each.  `edges`, when given as (upper chain, lower chain, kind)
        triples, is audited in place of the matching's own edges.
        """
        audits = (GradeAudit((length, 0)), GradeAudit((length, 1)))
        given: dict[int, set[ChainEdge]] | None = None
        if edges is not None:
            given = {}
            for upper, lower, kind in edges:
                given.setdefault(lower[0], set()).add((upper, lower, kind))
        divisors = self.mon._divisors
        for top in self.mon._layer(length):
            flag_of: dict[Chain, int] = {}
            essential: set[Chain] = set()
            own: set[ChainEdge] = set()
            for chain in interval_chains(top, divisors, 0):
                edge = self.edge(chain)
                if edge is None:
                    flag_of[chain] = 0
                    essential.add(chain)
                else:
                    flag_of[chain] = 0 if edge[2] == "M2" else 1
                    own.add(edge)
            fiber_edges = own if given is None else given.pop(top, set())
            self._audit_fiber(length, flag_of, essential, fiber_edges, audits)
        if given:
            _, lower, _ = next(iter(next(iter(given.values()))))
            raise AuditFailure(
                f"length {length}: edge endpoint {self.cell_of(lower)} escapes the length"
            )
        return LengthAudit(audits)

    def _audit_fiber(self, length, flag_of, essential, edges, audits) -> None:
        """Audit the chains of one x, split by flag, with their edges.

        `flag_of` maps every chain of [1, x] to its flag, in the order of
        the walk, and `essential` holds the unmatched ones."""
        # each chain on an edge -> the other end of its edge (a dict is
        # smaller than a set of as many chains)
        partner: dict[Chain, Chain] = {}
        matched: tuple[list, list] = ([], [])
        for upper, lower, kind in edges:
            flag = flag_of.get(lower, 1)
            if len(upper) != len(lower) + 1:
                raise AuditFailure(
                    f"{(length, flag)}: edge {self.cell_of(upper)} -> "
                    f"{self.cell_of(lower)} is not codimension 1"
                )
            incidence = _deletion_sign(upper, lower)
            if incidence not in (1, -1):
                raise AuditFailure(
                    f"{(length, flag)}: matched face of {self.cell_of(upper)} "
                    f"has incidence {incidence}"
                )
            for endpoint, other in ((upper, lower), (lower, upper)):
                if flag_of.get(endpoint) != flag:
                    raise AuditFailure(
                        f"{(length, flag)}: edge endpoint {self.cell_of(endpoint)} "
                        "escapes the fiber"
                    )
                if endpoint in partner:
                    raise AuditFailure(
                        f"{(length, flag)}: cell {self.cell_of(endpoint)} "
                        "lies on more than one edge"
                    )
                partner[endpoint] = other
            if kind != ("M2" if flag == 0 else "M1"):
                raise AuditFailure(
                    f"{(length, flag)}: edge {self.cell_of(upper)} -> "
                    f"{self.cell_of(lower)} has kind {kind}"
                )
            matched[flag].append((upper, lower))
        for chain, flag in flag_of.items():
            if chain in essential:
                if chain in partner:
                    raise AuditFailure(
                        f"{(length, flag)}: essential cell {self.cell_of(chain)} is matched"
                    )
                audits[flag].essential.append(self.cell_of(chain))
            elif chain not in partner:
                raise AuditFailure(
                    f"{(length, flag)}: cell {self.cell_of(chain)} is unmatched"
                )
            audits[flag].cells += 1
        for flag in (0, 1):
            audits[flag].edges += len(matched[flag])
            self._check_fiber_acyclic((length, flag), self.cell_of, matched[flag])

    def _check_fiber_acyclic(
        self,
        grade: Grade,
        cell_of: Callable[[Chain], BarCell],
        matched: Iterable[tuple[Chain, Chain]],
    ) -> None:
        """Kahn's sort of the matched upper chains of one (x, flag) fiber,
        given as (upper, lower) pairs, with u -> M(f) for every inner face
        f != M(u) of u that is matched upward.

        Exact once every chain lies on at most one edge and every lower
        chain is a face of its upper one (see the module docstring).
        `cell_of` names the chains of a cycle in the failure message.
        """
        upper_of = {lower: upper for upper, lower in matched}
        successors: dict[Chain, list[Chain]] = {upper: [] for upper in upper_of.values()}
        indegree = dict.fromkeys(successors, 0)
        for lower, upper in upper_of.items():
            for i in range(1, len(upper) - 1):
                face = upper[:i] + upper[i + 1 :]
                target = upper_of.get(face)
                if target is not None and face != lower:
                    successors[upper].append(target)
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
        if visited != len(indegree):
            stuck = sorted(
                (cell_of(node) for node, degree in indegree.items() if degree > 0),
                key=lambda c: (len(c), c),
            )
            raise AuditFailure(
                f"{grade}: matched fiber graph has a cycle through {stuck[:4]}"
            )
