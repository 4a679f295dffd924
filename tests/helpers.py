"""Shared generators and local models for the test suites."""

import random

from idealtri import build, decode
from idealtri.isosig import SCHARS
from idealtri.monodromy import build_bundle
from idealtri.perms import S4, S4_INDEX, compose, inverse
from idealtri.search import random_move_walk


def admissible_keep(tri):
    """Closed, orientable, torus links, no degree-1/2 edges."""
    if not (tri.is_closed and tri.is_orientable):
        return False
    if not all(v.is_torus_link for v in tri.vertex_classes):
        return False
    return min(e.degree for e in tri.edge_classes) >= 3


SEED_SIGS = [
    "gLLMQbeefffehhqxhqq",
    "iLLLQPcbefgffhhhxxhaqxxqh",
    "cPcbbbiht",
]
SEED_WORDS = ["RRLL", "RLRLRL", "RLLRLL"]


def random_admissible(rng, min_tets=2, max_tets=6, steps=None, rank2_only=False):
    """A random closed orientable torus-link triangulation with no
    degree-1/2 edges and 2..6 tetrahedra, from a move walk off a seed.

    Moves do not change the manifold, so seeding from a rank-2 manifold
    guarantees rank-2 cohomology throughout the walk.
    """
    if not rank2_only and rng.random() < 0.5:
        seed = decode(rng.choice(SEED_SIGS))
    elif rank2_only and rng.random() < 0.25:
        seed = decode(SEED_SIGS[0])
    else:
        seed = build_bundle(rng.choice(SEED_WORDS)).tri
    steps = steps if steps is not None else rng.randrange(0, 5)

    def keep(t):
        return min_tets <= t.n <= max_tets and admissible_keep(t)

    tri = random_move_walk(seed, steps, rng, max_tets=max_tets, keep=keep)
    if not keep(tri):
        # seeds themselves satisfy the filter when within size bounds
        tri = seed if seed.n <= max_tets else decode("cPcbbbiht")
    return tri


def random_complex(rng, n, closed=False):
    """A connected complex of n tetrahedra: a spanning tree of gluings,
    then random gluings among the free faces, all of them if closed."""
    gluings = {}
    free = [(0, f) for f in range(4)]

    def glue(a, b):
        free.remove(a)
        free.remove(b)
        perm = rng.choice([p for p in S4 if p[a[1]] == b[1]])
        gluings[a] = (b[0], perm)

    for t in range(1, n):
        free += [(t, f) for f in range(4)]
        glue(rng.choice([s for s in free if s[0] < t]),
             rng.choice([s for s in free if s[0] == t]))
    extra = len(free) // 2 if closed else rng.randrange(2 * n)
    for _ in range(min(extra, len(free) // 2)):
        glue(*rng.sample(free, 2))
    return build(n, gluings, closed=closed)


def octahedron_model():
    """Four tetrahedra around the edge {u,v}: tet i spans u, v and the
    equator vertices x_i, x_{i+1} (labels 0, 1, 2, 3 in that order)."""
    gluings = {(i, 2): ((i + 1) % 4, (0, 1, 3, 2)) for i in range(4)}
    return build(4, gluings, closed=False)


# The straightforward canonical encoder: one full signature string per
# start choice, over permutation tuples.  The differential oracle for
# ``idealtri.isosig.encode_canonical``.

def _encode_int(val, n_chars):
    out = []
    for _ in range(n_chars):
        out.append(SCHARS[val & 0x3F])
        val >>= 6
    return "".join(out)


def _size_chars(size):
    if size < 63:
        return SCHARS[size], 1
    n_chars = 0
    tmp = size
    while tmp > 0:
        tmp >>= 6
        n_chars += 1
    return SCHARS[63] + SCHARS[n_chars] + _encode_int(size, n_chars), n_chars


def _sig_from(tri, start, start_perm):
    """Signature string for the labelling grown from one start choice."""
    n = tri.n
    image = [None] * n          # tet -> its new label
    preimage = [None] * n       # new label -> tet
    vertex_map = [None] * n     # tet -> relabelling of its vertices
    image[start] = 0
    preimage[0] = start
    vertex_map[start] = start_perm
    next_label = 1

    used = [[False] * 4 for _ in range(n)]
    actions = []
    join_dests = []
    join_gluings = []

    for label in range(n):
        t = preimage[label]
        inv = inverse(vertex_map[t])
        for f_img in range(4):
            f = inv[f_img]
            if used[t][f]:
                continue
            used[t][f] = True
            g = tri.gluings[t][f]
            if g is None:
                actions.append(0)
                continue
            t2, perm = g
            used[t2][perm[f]] = True
            if image[t2] is None:
                actions.append(1)
                image[t2] = next_label
                preimage[next_label] = t2
                vertex_map[t2] = compose(vertex_map[t], inverse(perm))
                next_label += 1
            else:
                actions.append(2)
                join_dests.append(image[t2])
                relabelled = compose(vertex_map[t2],
                                     compose(perm, inverse(vertex_map[t])))
                join_gluings.append(S4_INDEX[relabelled])

    size_str, n_chars = _size_chars(n)
    out = [size_str]
    for i in range(0, len(actions), 3):
        chunk = actions[i:i + 3]
        val = sum(a << (2 * j) for j, a in enumerate(chunk))
        out.append(SCHARS[val])
    for dest in join_dests:
        out.append(_encode_int(dest, n_chars))
    for idx in join_gluings:
        out.append(SCHARS[idx])
    return "".join(out)


def reference_encode_canonical(tri):
    """Smallest signature over all start choices: a complete isomorphism
    invariant."""
    best = None
    for start in range(tri.n):
        for perm in S4:
            s = _sig_from(tri, start, perm)
            if best is None or s < best:
                best = s
    return best
