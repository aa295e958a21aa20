"""Literal-definition oracles the benchmark checks the program against.

Each works on a plain relation (a label tuple and a set of index pairs)
and shares no code with mereo, so a fast path in the program that goes
wrong disagrees with them.
"""

from __future__ import annotations

import itertools


class Relation:
    """A finite universe with a raw part-of relation, as index pairs."""

    def __init__(self, labels, pairs):
        self.labels = tuple(labels)
        self.n = len(self.labels)
        self.pairs = frozenset(pairs)
        self.index = {label: i for i, label in enumerate(self.labels)}
        n = self.n
        # ing[x]: the ingredienses of x (x itself and its parts)
        self.ing = [frozenset([x]) | {p for p, w in self.pairs if w == x}
                    for x in range(n)]

    @classmethod
    def from_labelled(cls, labels, labelled_pairs):
        index = {label: i for i, label in enumerate(labels)}
        return cls(labels, {(index[p], index[w]) for p, w in labelled_pairs})

    def leq(self, x, y):
        """x is an ingrediens of y."""
        return x in self.ing[y]

    def overlap(self, x, y):
        return bool(self.ing[x] & self.ing[y])

    def is_sum(self, x, members):
        return (all(self.leq(m, x) for m in members)
                and all(any(self.overlap(u, m) for m in members)
                        for u in self.ing[x]))

    def is_sup(self, x, members):
        uppers = [u for u in range(self.n)
                  if all(self.leq(m, u) for m in members)]
        return x in uppers and all(self.leq(x, u) for u in uppers)

    def sums(self, members):
        return [x for x in range(self.n) if self.is_sum(x, members)]

    def sups(self, members):
        return [x for x in range(self.n) if self.is_sup(x, members)]

    def is_strict_order(self):
        irreflexive = all(p != w for p, w in self.pairs)
        transitive = all((a, c) in self.pairs
                         for a, b in self.pairs for b2, c in self.pairs
                         if b == b2)
        return irreflexive and transitive

    def is_acyclic(self):
        succ = {x: [w for p, w in self.pairs if p == x] for x in range(self.n)}
        state = [0] * self.n          # 0 new, 1 on the stack, 2 done

        def visit(x):
            state[x] = 1
            for y in succ[x]:
                if state[y] == 1 or (state[y] == 0 and not visit(y)):
                    return False
            state[x] = 2
            return True

        return all(state[x] == 2 or visit(x) for x in range(self.n))

    def covering_pairs(self):
        """x strictly below y under ingrediens with nothing strictly between."""
        def below(a, b):
            return a != b and self.leq(a, b) and not self.leq(b, a)

        return {(x, y) for x in range(self.n) for y in range(self.n)
                if below(x, y)
                and not any(below(x, z) and below(z, y)
                            for z in range(self.n) if z not in (x, y))}

    def unity(self):
        for u in range(self.n):
            if len(self.ing[u]) == self.n:
                return u
        return None


def encode(n, pairs):
    """Row-major relation encoding: bit i*n+j set iff i is a part of j."""
    return sum(1 << (i * n + j) for i, j in pairs)


def is_minimal_encoding(n, pairs):
    """The encoding is the least over all n! relabellings of the universe."""
    own = encode(n, pairs)
    return all(sum(1 << (p[i] * n + p[j]) for i, j in pairs) >= own
               for p in itertools.permutations(range(n)))
