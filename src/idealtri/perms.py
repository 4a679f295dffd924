"""Permutations of {0,1,2,3} as 4-tuples of images.

A permutation ``p`` maps ``i`` to ``p[i]``.  Composition follows the
usual convention ``compose(p, q)[i] == p[q[i]]``.
"""

from __future__ import annotations

import itertools

IDENTITY = (0, 1, 2, 3)


def sign(p):
    """Sign of a permutation: +1 if even, -1 if odd."""
    s = 1
    for i in range(4):
        for j in range(i + 1, 4):
            if p[i] > p[j]:
                s = -s
    return s


def compose(p, q):
    """compose(p, q)[i] = p[q[i]]."""
    return (p[q[0]], p[q[1]], p[q[2]], p[q[3]])


def inverse(p):
    inv = [0] * 4
    for i in range(4):
        inv[p[i]] = i
    return tuple(inv)


# Index ordering of S4 used by the census signature format: the
# lexicographic ordering of image tuples.
S4 = tuple(sorted(itertools.permutations(range(4))))

S4_INDEX = {p: i for i, p in enumerate(S4)}

# Tables for hot loops over S4 indices: COMPOSE[i][j] is the index of
# compose(S4[i], S4[j]), INVERSE[i] the index of inverse(S4[i]).
COMPOSE = tuple(tuple(S4_INDEX[compose(p, q)] for q in S4) for p in S4)
INVERSE = tuple(S4_INDEX[inverse(p)] for p in S4)
