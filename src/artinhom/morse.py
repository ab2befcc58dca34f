"""Algebraic collapse along an acyclic matching: the reduced chain
complex and attaching words of 2-cells.

Cells are chains of suffix products throughout, tuples of the element
ids of the monoid's table (see `artin` and `bar`): the faces are
`bar.faces` of a chain and the matching is `BarMatching.edge` of a
chain, which is all the collapse needs (Skoldberg, "Morse theory from an
algebraic viewpoint", Trans. AMS 358, 2006).  The reduced boundary of an
essential chain sums over alternating zig-zag paths: descend along a
face, ascend through a matched pair (with a sign flip and the inverse
incidence), and repeat until another essential chain is reached.
Matched ascents preserve the (length, flag) grade and descents never
raise it, so with the per-grade acyclicity certified by the audits every
path set is finite.  The paths are followed lazily: edges are asked of
the matching on demand and only the chains the paths reach are
expanded, so no cell set is enumerated up front.  A path that returns
to a chain still being expanded raises NonAcyclicInput.  Chains become
cells of words, by `BarMatching.cell_of`, only in the output.

In dimension 2 the same traversal is run on the boundary *word* instead
of the boundary sum: each non-essential edge of the attaching loop is
replaced through the relation of its matched 2-cell until only
essential edges remain.  The result can be compared against the
dihedral relator up to rotation and inversion of the loop.
"""

from __future__ import annotations

from typing import NamedTuple

from .bar import BarCell, Chain, boundary
from .coxeter import Word, alternating_word
from .errors import BadDiagonal, InfiniteM, InternalError, NonAcyclicInput
from .homology import IntChainComplex, Matrix
from .matching import BarMatching

SignedWord = tuple[tuple[int, str], ...]


def morse_boundary(
    matching: BarMatching, essentials: set[Chain]
) -> dict[Chain, dict[Chain, int]]:
    """Reduced boundaries of the essential chains by zig-zag summation.

    Only the chains the paths reach are expanded: a face ascends when the
    matching pairs it with a chain above, whose boundary is computed once
    and kept while that face waits for the flows of the other faces.
    """
    mon = matching.mon
    flow: dict[Chain, dict[Chain, int]] = {}
    # chain on the stack -> the chain matched above it and that one's boundary
    expanding: dict[Chain, tuple[Chain, dict[Chain, int]]] = {}

    def flow_of(start: Chain) -> dict[Chain, int]:
        stack = [start]
        while stack:
            chain = stack[-1]
            if chain in flow:
                stack.pop()
                continue
            if chain in essentials:
                flow[chain] = {chain: 1}
                stack.pop()
                continue
            if chain in expanding:
                upper, faces = expanding.pop(chain)
            else:
                edge = matching.edge(chain)
                if edge is None or edge[1] != chain:
                    # unmatched or matched with a chain below: paths end here
                    flow[chain] = {}
                    stack.pop()
                    continue
                upper, faces = edge[0], boundary(mon, edge[0])
            incidence = faces.get(chain)
            if incidence not in (1, -1):
                raise InternalError(
                    f"matched face {chain} of {upper} has incidence {incidence}"
                )
            pending = [f for f in faces if f != chain and f not in flow]
            if pending:
                if any(f in expanding for f in pending):
                    raise NonAcyclicInput(
                        f"zig-zag paths cycle through {chain}"
                    )
                expanding[chain] = (upper, faces)
                stack.extend(pending)
                continue
            acc: dict[Chain, int] = {}
            for face, coeff in faces.items():
                if face == chain:
                    continue
                for target, value in flow[face].items():
                    total = acc.get(target, 0) - coeff * incidence * value
                    if total:
                        acc[target] = total
                    elif target in acc:
                        del acc[target]
            flow[chain] = acc
            stack.pop()
        return flow[start]

    out: dict[Chain, dict[Chain, int]] = {}
    for chain in essentials:
        acc: dict[Chain, int] = {}
        for face, coeff in boundary(mon, chain).items():
            for target, value in flow_of(face).items():
                total = acc.get(target, 0) + coeff * value
                if total:
                    acc[target] = total
                elif target in acc:
                    del acc[target]
        out[chain] = acc
    return out


class MorseComplex(NamedTuple):
    """The reduced complex: one cell per finite-type subset.

    `essential` maps each subset to the essential bar cell it labels.
    """

    cells_by_dim: list[list[frozenset[str]]]
    boundaries: dict[int, Matrix]
    essential: dict[frozenset[str], BarCell]

    def chain_complex(self) -> IntChainComplex:
        ranks = tuple(len(cells) for cells in self.cells_by_dim)
        return IntChainComplex(ranks, self.boundaries)

    def census(self) -> tuple[int, ...]:
        return tuple(len(cells) for cells in self.cells_by_dim)


def reduced_complex(matching: BarMatching) -> MorseComplex:
    """Collapse the full model onto its essential chains.

    The boundaries come from `morse_boundary`, which expands only the
    chains reached by zig-zag paths from the essential chains.
    """
    system = matching.system
    chains = {T: matching.essential_chain(T) for T in system.sf()}
    for chain in chains.values():
        if matching.edge(chain) is not None:
            raise InternalError(f"constructed essential chain {chain} is matched")
    boundaries_by_chain = morse_boundary(matching, set(chains.values()))
    label_of = {chain: T for T, chain in chains.items()}
    top = max((len(T) for T in chains), default=0)
    by_dim: list[list[frozenset[str]]] = [[] for _ in range(top + 1)]
    for T in sorted(chains, key=lambda T: (len(T), system.key(system.sorted_subset(T)))):
        by_dim[len(T)].append(T)
    index = {T: i for dim_cells in by_dim for i, T in enumerate(dim_cells)}
    boundaries: dict[int, Matrix] = {}
    for k in range(1, top + 1):
        boundaries[k] = [
            {
                index[label_of[target]]: value
                for target, value in boundaries_by_chain[chains[T]].items()
            }
            for T in by_dim[k]
        ]
    essential = {T: matching.cell_of(chain) for T, chain in chains.items()}
    return MorseComplex(by_dim, boundaries, essential)


# -- attaching words in dimension 2 -------------------------------------------


def boundary_word_2cell(matching: BarMatching, s: str, t: str) -> SignedWord:
    """Attaching word of the essential 2-cell on {s, t}, tracked through
    the collapse letter by letter."""
    system = matching.system
    m = system.m(s, t)
    if s == t:
        raise BadDiagonal(f"no 2-cell on the single generator {s}")
    if m == float("inf"):
        raise InfiniteM(f"no 2-cell: m({s},{t}) is infinite")
    mon = matching.mon
    x, y = matching.cell_of(matching.essential_chain({s, t}))
    word: list[tuple[int, Word]] = [(1, x), (1, y), (-1, mon.mul(x, y))]
    while True:
        position = next(
            (i for i, (_, w) in enumerate(word) if len(w) > 1), None
        )
        if position is None:
            break
        sign, w = word[position]
        edge = matching.edge((mon._id(w), 0))
        if edge is None or len(edge[0]) != 3:
            raise InternalError(f"edge [{w}] is not matched with a 2-cell")
        u, v = matching.cell_of(edge[0])
        # the relation [u][v][uv]^-1 of the matched 2-cell solves for [w]
        replacement = [(1, u), (1, v)] if sign == 1 else [(-1, v), (-1, u)]
        word[position : position + 1] = replacement
    return tuple((sign, w[0]) for sign, w in word)


def braid_relator_word(s: str, t: str, m: int) -> SignedWord:
    """The dihedral relator <s t>^m <s t>^-m read around the polygon
    (for odd m the descending half alternates starting from t)."""
    rising = [(1, g) for g in alternating_word(s, t, m)]
    if m % 2 == 0:
        falling = [(-1, g) for g in alternating_word(s, t, m)]
    else:
        falling = [(-1, g) for g in alternating_word(t, s, m)]
    return tuple(rising + falling)


def invert_word(word: SignedWord) -> SignedWord:
    return tuple((-sign, g) for sign, g in reversed(word))


def cyclic_words_equal(first: SignedWord, second: SignedWord) -> bool:
    """Equality of attaching loops up to rotation and global inversion."""
    if len(first) != len(second):
        return False
    if not first:
        return True
    rotations = {
        second[i:] + second[:i] for i in range(len(second))
    }
    inverse = invert_word(second)
    rotations.update(inverse[i:] + inverse[:i] for i in range(len(inverse)))
    return first in rotations
