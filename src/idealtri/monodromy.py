"""Monodromy ideal triangulations of once-punctured torus bundles.

A positive word in the transvections

    R = [[1, 1], [0, 1]]    L = [[1, 0], [1, 1]]

is admissible when both letters occur (equivalently the trace of the
product exceeds 2).  Each letter layers one tetrahedron on the current
two-triangle once-punctured torus fibre, flipping its diagonal; the
final fibre is glued back to the first through the monodromy matrix.

This is the layered triangulation of Floyd and Hatcher and of
Gueritaud: tetrahedron i has the bottom diagonal {0,1} and the top
diagonal {2,3}, and its top faces 0 and 1 glue to the bottom faces 3
and 2 of tetrahedron i + 1 by one of two permutation pairs, chosen by
whether the two letters agree.  The last tetrahedron closes onto the
first in two ways, through A and through -A, which differ by the
elliptic involution of the fibre; both are bundles, and the one with
the least canonical signature is kept.  The quadrilateral separating
{0,1} from {2,3} is the horizontal one.

The twist slides.  The elliptic involution E = (1,0,3,2) conjugates
the face-0 gluing of each layer into its face-1 gluing, for agreeing
and for differing letters.  So relabelling the vertices of a run of
consecutive tetrahedra by E leaves the gluings inside the run as they
were, and turns the gluings into and out of it by E: the twist moves
from the gluing into the run to the gluing out of it.  The closure
with the twist on the gluing into any one tetrahedron is therefore the
closure through -A, up to isomorphism.  ``build_bundle`` encodes both
closures in one paired search, ``isosig.least_twin_signature``.  From
a start in tetrahedron t the twist sits on the gluing out of
tetrahedron t + n//2, across the bundle from t, and the run relabelled
is the one that leaves t out.  A grow from t then reads the same
gluings in both closures until it first reaches one of the four facets
that twisted gluing joins, close to its end.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .cohomology import bound_certificate
from .isosig import least_twin_signature
from .perms import IDENTITY, compose, inverse
from .triangulation import Triangulation, _from_table

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


def _mat_mod2(m):
    return ((m[0][0] % 2, m[0][1] % 2), (m[1][0] % 2, m[1][1] % 2))


class MonodromyWord(NamedTuple):
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
    if type(k) is not int or k not in (1, 2, 3):
        raise MonodromyError("covering degree must be 1, 2 or 3")
    return word * k


class BundleTriangulation(NamedTuple):
    """A layered bundle: |word| tetrahedra, one fibre per level."""

    tri: Triangulation
    analysis: MonodromyWord
    signature: str         # canonical signature of tri

    @property
    def word(self):
        return self.analysis.word


# Top faces 0, 1 of a tetrahedron onto bottom faces 3, 2 of the next,
# when the two letters agree and when they differ.
_SAME_LETTER = ((3, 0, 1, 2), (1, 2, 3, 0))
_NEW_LETTER = ((3, 0, 2, 1), (1, 2, 0, 3))
# The elliptic involution of the fibre swaps its two triangles and keeps
# every slope: it turns the closure through A into that through -A.
_ELLIPTIC = (1, 0, 3, 2)


@lru_cache(maxsize=None)
def _layer(same, twist):
    """``(face, perm, inverse(perm))`` for top faces 0 and 1 of a layer,
    glued to the next layer through ``twist``, when the two letters
    agree (``same``) and when they differ."""
    return tuple((face, q, inverse(q)) for face, perm in
                 zip((0, 1), _SAME_LETTER if same else _NEW_LETTER)
                 for q in [compose(twist, perm)])


def _closure(word, twist, at=0):
    """The layered table of ``word`` with ``twist`` on the gluing into
    tetrahedron ``at``; at 0 it closes the bundle through ``twist`` on
    the bottom fibre."""
    n = len(word)
    rows = [[None] * 4 for _ in range(n)]
    for i in range(n):
        j = (i + 1) % n
        for face, perm, back in _layer(word[i] == word[j],
                                       twist if j == at else IDENTITY):
            rows[i][face] = (j, perm)
            rows[j][perm[face]] = (i, back)
    return _from_table(rows)


def _slide(word):
    """The slide of ``isosig.least_twin_signature`` from the closure
    through A to that through -A: for a start in tetrahedron t, the
    twisted gluing out of tetrahedron i = (t + n//2) % n, and the run of
    tetrahedra relabelled by E to move the twist there from the gluing
    into tetrahedron 0, the one of i+1..n-1 and 0..i that leaves t
    out."""
    n = len(word)

    def slide(t):
        i = (t + n // 2) % n
        j = (i + 1) % n
        gluings = {}
        for face, perm, back in _layer(word[i] == word[j], _ELLIPTIC):
            gluings[i, face] = (j, perm)
            gluings[j, perm[face]] = (i, back)
        return gluings, range(i + 1, n) if t <= i else range(i + 1)
    return slide


def build_bundle(word):
    """Layer one tetrahedron per letter and close up by the monodromy.

    The closures through A and -A are both bundles; keep the least
    signature, and on a tie the closure through A.  Both are encoded in
    one paired search, which slides the twist of -A across the bundle
    from each start."""
    analysis = word_analysis(word)
    closures = [_closure(word, twist) for twist in (IDENTITY, _ELLIPTIC)]
    signature, which = least_twin_signature(*closures, _slide(word),
                                            _ELLIPTIC)
    return BundleTriangulation(tri=closures[which], analysis=analysis,
                               signature=signature)


# ---------------------------------------------------------------------------
# the bound certificate

class BundleCertificate(NamedTuple):
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
    """The bound certificate of the monodromy triangulation.

    When the mod-2 monodromy is not the identity the check runs on the
    2- or 3-fold cyclic cover that trivialises it.  The certificate
    shows |T| = sum of -chi on T's own canonical surfaces, which bound
    the norms only from above, so it does not prove minimality; that
    the monodromy triangulations are minimal is the paper's theorem.
    """
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
            if quad_types[0] == HORIZONTAL_QUAD:
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
