"""Monodromy ideal triangulations of once-punctured torus bundles.

A positive word in the transvections

    R = [[1, 1], [0, 1]]    L = [[1, 0], [1, 1]]

is admissible when both letters occur (equivalently the trace of the
product exceeds 2).  Each letter layers one tetrahedron on the current
two-triangle once-punctured torus fibre, flipping its diagonal; the
final fibre is glued back to the first through the monodromy matrix.

Fibre combinatorics is tracked by Farey triples: after the first j
flips the fibre carries the initial slopes transported by the product
of the first j letters.  Every tetrahedron of the closed bundle has its
two pairs of side edges identified in pairs; the quadrilateral
separating the bottom diagonal {0,1} from the top diagonal {2,3} is the
horizontal one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lst import layer_tetrahedron
from .isosig import encode_canonical
from .perms import inverse
from .triangulation import InvalidTriangulation, Triangulation, _from_table

R_MAT = ((1, 1), (0, 1))
L_MAT = ((1, 0), (1, 1))
IDENT = ((1, 0), (0, 1))

# The quadrilateral type separating vertex pair {0,1} from {2,3}.
HORIZONTAL_QUAD = 1


class MonodromyError(ValueError):
    """The word does not describe a hyperbolic bundle."""


def _mat_mul(m, n):
    return ((m[0][0] * n[0][0] + m[0][1] * n[1][0],
             m[0][0] * n[0][1] + m[0][1] * n[1][1]),
            (m[1][0] * n[0][0] + m[1][1] * n[1][0],
             m[1][0] * n[0][1] + m[1][1] * n[1][1]))


def _mat_vec(m, v):
    return (m[0][0] * v[0] + m[0][1] * v[1],
            m[1][0] * v[0] + m[1][1] * v[1])


def _mat_mod2(m):
    return ((m[0][0] % 2, m[0][1] % 2), (m[1][0] % 2, m[1][1] % 2))


def _normalize(v):
    x, y = v
    if x < 0 or (x == 0 and y < 0):
        x, y = -x, -y
    return (x, y)


@dataclass(frozen=True)
class MonodromyWord:
    word: str
    matrix: tuple
    trace: int
    mod2: tuple
    mod2_order: int


def word_analysis(word):
    """Validate a positive RL-word and compute its trace and mod-2 data."""
    if not word:
        raise MonodromyError("empty monodromy word")
    if any(c not in "RL" for c in word):
        raise MonodromyError(f"monodromy word must be over R, L: {word!r}")
    m = IDENT
    for letter in word:
        m = _mat_mul(m, R_MAT if letter == "R" else L_MAT)
    trace = m[0][0] + m[1][1]
    if not ("R" in word and "L" in word):
        raise MonodromyError(
            f"word {word!r} has trace {trace}: not hyperbolic")
    mod2 = _mat_mod2(m)
    if mod2 == IDENT:
        order = 1
    elif _mat_mod2(_mat_mul(mod2, mod2)) == IDENT:
        order = 2
    else:
        order = 3
    return MonodromyWord(word=word, matrix=m, trace=trace, mod2=mod2,
                         mod2_order=order)


def cover(word, k):
    """The monodromy word of the k-fold cyclic cover of the bundle."""
    if k not in (1, 2, 3):
        raise MonodromyError("covering degree must be 1, 2 or 3")
    return word * k


@dataclass(frozen=True)
class BundleTriangulation:
    """A layered bundle: |word| tetrahedra, one fibre per level."""

    tri: Triangulation
    analysis: MonodromyWord
    fibre_slopes: tuple    # frozenset of slopes per fibre level, 0..|word|
    signature: str         # canonical signature of tri
    horizontal_quad: int = HORIZONTAL_QUAD

    @property
    def word(self):
        return self.analysis.word

    @property
    def quad_tags(self):
        """Quad type -> horizontal / vertical tag, uniform by layering."""
        return {1: "horizontal", 2: "vertical-1", 3: "vertical-2"}


def _fibre_triples(word):
    triple = [(0, 1), (1, 0), (1, 1)]
    triples = [frozenset(triple)]
    m = IDENT
    for letter in word:
        m = _mat_mul(m, R_MAT if letter == "R" else L_MAT)
        triples.append(frozenset(_normalize(_mat_vec(m, v)) for v in triple))
    return triples


class _Fibre:
    """The two free faces of the tower top, with slopes per face edge."""

    def __init__(self, face_a, face_b, slopes_a, slopes_b):
        self.face_a = face_a          # (tet, face)
        self.face_b = face_b
        self.slopes_a = slopes_a      # {frozenset pair: slope}
        self.slopes_b = slopes_b


def build_bundle(word):
    """Layer one tetrahedron per letter and close up by the monodromy."""
    analysis = word_analysis(word)
    triples = _fibre_triples(word)
    for level in range(len(word)):
        if len(triples[level] - triples[level + 1]) != 1:
            raise AssertionError("letter does not induce a diagonal flip")

    # Tetrahedron 0: bottom faces 3 = {0,1,2} and 2 = {0,1,3} form fibre
    # 0, top faces 0 = {1,2,3} and 1 = {0,2,3} form fibre 1.  The bottom
    # diagonal {0,1} carries the first flipped slope; side pairs
    # {0,2}/{1,3} and {1,2}/{0,3} carry the kept slopes.
    tri = Triangulation(1, {}, closed=False)
    (removed,) = triples[0] - triples[1]
    (added,) = triples[1] - triples[0]
    k1, k2 = sorted(triples[0] - {removed})
    fibre0 = _Fibre(
        (0, 3), (0, 2),
        {frozenset((0, 1)): removed, frozenset((0, 2)): k1,
         frozenset((1, 2)): k2},
        {frozenset((0, 1)): removed, frozenset((1, 3)): k1,
         frozenset((0, 3)): k2})
    fibre = _Fibre(
        (0, 0), (0, 1),
        {frozenset((2, 3)): added, frozenset((1, 3)): k1,
         frozenset((1, 2)): k2},
        {frozenset((2, 3)): added, frozenset((0, 2)): k1,
         frozenset((0, 3)): k2})

    for level in range(1, len(word)):
        tri, fibre = _layer_step(tri, fibre, triples, level)

    return _close_bundle(tri, analysis, triples, fibre, fibre0)


def _layer_step(tri, fibre, triples, level):
    (removed,) = triples[level] - triples[level + 1]
    (added,) = triples[level + 1] - triples[level]

    pair_a = next(p for p, s in fibre.slopes_a.items() if s == removed)
    pair_b = next(p for p, s in fibre.slopes_b.items() if s == removed)
    ta, fa = fibre.face_a
    tb, fb = fibre.face_b
    xa = next(v for v in range(4) if v != fa and v not in pair_a)
    xb = next(v for v in range(4) if v != fb and v not in pair_b)

    # Direct the layered edge.  The crossing rule below fixes the
    # relative direction, and the absolute choice is a relabelling of the
    # new tetrahedron.  If the two slots already lie in one edge class
    # with opposite directions, the edge stays reversed in every closure,
    # which ``_close_bundle`` rejects.
    u1, v1 = sorted(pair_a)
    # crossing: the tail neighbour in face a and the head neighbour in
    # face b must carry the same slope (they become one side pair).
    tail_slope = fibre.slopes_a[frozenset((u1, xa))]
    p, q = sorted(pair_b)
    if fibre.slopes_b[frozenset((q, xb))] == tail_slope:
        u2, v2 = p, q
    else:
        u2, v2 = q, p
    if fibre.slopes_b[frozenset((v2, xb))] != tail_slope:
        raise AssertionError("no crossing-compatible direction")

    new = layer_tetrahedron(tri, (ta, fa, (u1, v1)), (tb, fb, (u2, v2)))
    t = new.n - 1

    # New side pairs: {0,2}/{1,3} inherits the tail-neighbour slope,
    # {1,2}/{0,3} the head-neighbour slope.
    head_slope = fibre.slopes_a[frozenset((v1, xa))]
    if fibre.slopes_b[frozenset((u2, xb))] != head_slope:
        raise AssertionError("head slopes disagree across the fibre")
    new_fibre = _Fibre(
        (t, 0), (t, 1),
        {frozenset((2, 3)): added, frozenset((1, 3)): tail_slope,
         frozenset((1, 2)): head_slope},
        {frozenset((2, 3)): added, frozenset((0, 2)): tail_slope,
         frozenset((0, 3)): head_slope})
    return new, new_fibre


def _close_bundle(tri, analysis, triples, fibre, fibre0):
    n = len(analysis.word)
    a_mat = analysis.matrix

    top = frozenset(fibre.slopes_a.values()) | frozenset(fibre.slopes_b.values())
    expected = frozenset(_normalize(_mat_vec(a_mat, v))
                         for v in [(0, 1), (1, 0), (1, 1)])
    if top != expected or top != triples[n]:
        raise AssertionError("final fibre slopes do not match the monodromy")

    def match_face(top_face, top_slopes, bottom_face, bottom_slopes):
        tt, tf = top_face
        bt, bf = bottom_face
        tverts = [v for v in range(4) if v != tf]
        bverts = [v for v in range(4) if v != bf]
        mapping = {}
        for v in tverts:
            mine = {_normalize(top_slopes[frozenset((v, w))])
                    for w in tverts if w != v}
            target = None
            for bv in bverts:
                theirs = {_normalize(_mat_vec(a_mat, bottom_slopes[frozenset((bv, w))]))
                          for w in bverts if w != bv}
                if theirs == mine:
                    target = bv
                    break
            if target is None:
                return None
            mapping[v] = target
        if len(set(mapping.values())) != 3:
            return None
        mapping[tf] = bf
        return tuple(mapping[v] for v in range(4))

    candidates = []
    bottoms = [(fibre0.face_a, fibre0.slopes_a), (fibre0.face_b, fibre0.slopes_b)]
    for first, second in [(0, 1), (1, 0)]:
        perm_a = match_face(fibre.face_a, fibre.slopes_a, *bottoms[first])
        perm_b = match_face(fibre.face_b, fibre.slopes_b, *bottoms[second])
        if perm_a is None or perm_b is None:
            continue
        rows = [list(row) for row in tri.gluings]
        for (t, f), ((b, _), _), perm in (
                (fibre.face_a, bottoms[first], perm_a),
                (fibre.face_b, bottoms[second], perm_b)):
            rows[t][f] = (b, perm)
            rows[b][perm[f]] = (t, inverse(perm))
        try:
            closed = _from_table(rows)
            closed.edge_classes
        except InvalidTriangulation:
            continue
        if not closed.is_orientable:
            continue
        if len(closed.vertex_classes) != 1:
            continue
        if not closed.vertex_classes[0].is_torus_link:
            continue
        if any(e.degree % 2 for e in closed.edge_classes):
            continue
        candidates.append((encode_canonical(closed), closed))

    if not candidates:
        raise AssertionError("no admissible monodromy closure found")
    # Slopes are direction-blind, so the closures through A and -A both
    # appear; they are the factorisations of the two signs of the
    # monodromy.  Take the lexicographically least signature for a
    # deterministic, rotation-stable choice.
    signature, best = min(candidates, key=lambda c: c[0])
    return BundleTriangulation(tri=best, analysis=analysis,
                               fibre_slopes=tuple(triples),
                               signature=signature)


# ---------------------------------------------------------------------------
# the minimality certificate

@dataclass(frozen=True)
class BundleCertificate:
    """The complexity certificate for a bundle, possibly via a cover.

    The canonical surfaces of the certifying rank-2 subgroup meet every
    tetrahedron in a quadrilateral; each surface's -chi equals its
    number of horizontal quadrilaterals, and the three surfaces use the
    horizontal quadrilateral of each tetrahedron exactly once.
    """

    word: str
    covered_word: str
    cover_degree: int
    bundle: BundleTriangulation
    certificate: object           # cohomology.BoundCertificate
    horizontal_counts: tuple      # per surface
    tetrahedra: int

    @property
    def found(self):
        return self.certificate is not None

    @property
    def sum_neg_chi(self):
        return self.certificate.sum_neg_chi if self.certificate else None


def bundle_certificate(word):
    """Certify minimality of the monodromy triangulation.

    When the mod-2 monodromy is not the identity the check runs on the
    2- or 3-fold cyclic cover that trivialises it; minimality of the
    base follows from minimality of the cover.
    """
    from .cohomology import bound_certificate

    analysis = word_analysis(word)
    k = analysis.mod2_order
    covered = cover(word, k)
    bundle = build_bundle(covered)
    cert = bound_certificate(bundle.tri)
    if cert is None:
        return BundleCertificate(
            word=word, covered_word=covered, cover_degree=k, bundle=bundle,
            certificate=None, horizontal_counts=(), tetrahedra=bundle.tri.n)

    horizontal = []
    used = [set() for _ in range(bundle.tri.n)]
    for surface, chi in zip(cert.surfaces, cert.chi):
        count = 0
        for t in range(bundle.tri.n):
            quad_types = [q + 1 for q in range(3) if surface.quads[t][q]]
            if len(quad_types) != 1:
                raise AssertionError(
                    "certificate surface is not a quadrilateral surface")
            used[t].add(quad_types[0])
            if quad_types[0] == bundle.horizontal_quad:
                count += 1
        if chi != -count:
            raise AssertionError(
                f"chi {chi} does not equal minus the horizontal count {count}")
        horizontal.append(count)
    if any(u != {1, 2, 3} for u in used):
        raise AssertionError(
            "the three surfaces do not use each quadrilateral type once")
    if sum(horizontal) != bundle.tri.n:
        raise AssertionError("horizontal quadrilaterals do not cover the bundle")
    return BundleCertificate(
        word=word, covered_word=covered, cover_degree=k, bundle=bundle,
        certificate=cert, horizontal_counts=tuple(horizontal),
        tetrahedra=bundle.tri.n)
