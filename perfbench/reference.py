"""Reference computations that never import the program under test.

Everything here works from a Coxeter matrix given as plain data:

- the geometric (Tits) representation, in floating point, decides
  whether a word is reduced and whether two words name the same group
  element, which settles questions about simple elements of the monoid
  (a simple element is the positive lift of a reduced word, and two
  such lifts are equal exactly when their images in W agree: Tits,
  Matsumoto);
- the growth series of a spherical Artin monoid, 1/G(t) =
  sum over T of (-1)^|T| t^l(Delta_T) (Deligne 1972, Saito), counts the
  bar cells of each length;
- the odd-edge components of the Coxeter graph give H_1 of the Artin
  group (abelianizing a relation of odd length identifies its two
  generators).
"""

from __future__ import annotations

import math

TOLERANCE = 1e-9


class GeometricModel:
    """Coxeter group acting on the span of its simple roots.

    `orders` maps a frozenset pair of generators to m(s, t); missing
    pairs commute.  Only finite orders are supported.
    """

    def __init__(self, gens, orders):
        self.gens = tuple(gens)
        self.index = {s: i for i, s in enumerate(self.gens)}
        n = len(self.gens)
        self.form = [[0.0] * n for _ in range(n)]
        for i, s in enumerate(self.gens):
            for j, t in enumerate(self.gens):
                m = 1 if s == t else orders.get(frozenset((s, t)), 2)
                self.form[i][j] = -math.cos(math.pi / m)

    def reflect(self, s, vector):
        i = self.index[s]
        coefficient = 2 * sum(self.form[i][j] * v for j, v in enumerate(vector))
        out = list(vector)
        out[i] -= coefficient
        return out

    def act(self, word, vector):
        """Image of `vector` under the element the word names."""
        for s in reversed(tuple(word)):
            vector = self.reflect(s, vector)
        return vector

    def simple_root(self, s):
        vector = [0.0] * len(self.gens)
        vector[self.index[s]] = 1.0
        return vector

    def is_reduced(self, word):
        """l(w s) > l(w) exactly when w sends the root of s to a positive root."""
        word = tuple(word)
        for k, s in enumerate(word):
            root = self.act(word[:k], self.simple_root(s))
            if all(c < TOLERANCE for c in root):
                return False
        return True

    def same_element(self, first, second):
        for s in self.gens:
            a = self.act(first, self.simple_root(s))
            b = self.act(second, self.simple_root(s))
            if any(abs(x - y) > TOLERANCE for x, y in zip(a, b)):
                return False
        return True

    def reflection_count(self):
        """Number of positive roots, i.e. of reflections (finite W only)."""
        seen = set()
        frontier = [self.simple_root(s) for s in self.gens]
        while frontier:
            new = []
            for root in frontier:
                key = tuple(round(c, 6) + 0.0 for c in root)
                if key in seen:
                    continue
                seen.add(key)
                new.extend(self.reflect(s, root) for s in self.gens)
            frontier = new
        return sum(1 for key in seen if all(c > -TOLERANCE for c in key))


def odd_edge_components(gens, orders):
    """Connected components of the graph of odd finite m(s, t)."""
    parent = {s: s for s in gens}

    def find(s):
        while parent[s] != s:
            s = parent[s]
        return s

    for pair, m in orders.items():
        if m != math.inf and m % 2 == 1:
            s, t = sorted(pair)
            parent[find(s)] = find(t)
    return len({find(s) for s in gens})


def bar_cells_per_length(delta_lengths, max_len):
    """Cells [x_1|...|x_n] of each total length 0..max_len.

    `delta_lengths` maps each finite-type subset T (as a frozenset) to
    l(Delta_T).  With M(t) = sum_T (-1)^|T| t^l(Delta_T) the monoid's
    growth series is 1/M, and ordered factorizations into non-identity
    elements have series 1/(2 - 1/M) = M/(2M - 1).
    """
    M = [0] * (max_len + 1)
    for T, length in delta_lengths.items():
        if length <= max_len:
            M[length] += (-1) ** len(T)
    denominator = [2 * c for c in M]
    denominator[0] -= 1
    return _series_divide(M, denominator, max_len)


def _series_divide(numerator, denominator, max_len):
    if denominator[0] != 1:
        raise ValueError("denominator must start with 1")
    out = []
    for n in range(max_len + 1):
        value = numerator[n] - sum(
            denominator[k] * out[n - k] for k in range(1, n + 1)
        )
        out.append(value)
    return out


def subset_counts(gens):
    """Subsets of each size; every subset is of finite type in a finite W."""
    return [math.comb(len(gens), k) for k in range(len(gens) + 1)]
