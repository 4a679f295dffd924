"""Layered solid tori: construction, arithmetic, detection.

A layered solid torus LST(a,b,c) is built by starting from the unique
one-tetrahedron solid torus LST(1,2,3) and repeatedly layering a fresh
tetrahedron over a boundary edge.  The boundary is always a one-vertex
torus with two triangles; the three boundary edges meet the meridian
disc a, b and c times with a + b = c.

Layering on the edge labelled a, b or c produces LST(b,c,b+c),
LST(a,c,a+c) or LST(a,b,b-a) respectively.  The ideal version (vertex
removed) is the same combinatorial object.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .perms import inverse
from .triangulation import Triangulation, _from_table, find_isomorphism, subcomplex

# One tetrahedron, face 2 glued to face 3 (both sides listed); the edges
# of degree 3, 2, 1 meet the meridian disc 1, 2 and 3 times respectively.
_SEED_ROWS = ((None, None, (0, (1, 2, 3, 0)), (0, (3, 0, 1, 2))),)
_SEED_BOUNDARY = {"a": (0, (0, 1)), "b": (0, (0, 2)), "c": (0, (2, 3))}
_SEED_FACES = ((0, 0), (0, 1))


class LstError(ValueError):
    """Invalid layering request."""


class _LstParamsFields(NamedTuple):
    a: int
    b: int
    c: int


class LstParams(_LstParamsFields):
    __slots__ = ()
    # NamedTuple bodies bar __new__; this _make keeps _replace checked.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, a, b, c):
        if not (0 <= a <= b <= c and a + b == c):
            raise LstError(f"not a meridian triple: {(a, b, c)}")
        if math.gcd(a, b) != 1:
            raise LstError(f"meridian numbers not coprime: {(a, b, c)}")
        return tuple.__new__(cls, (a, b, c))

    def as_tuple(self):
        return (self.a, self.b, self.c)


class LstComplex(NamedTuple):
    """A layered solid torus built by lst_build.

    ``boundary`` maps each meridian number to a representative boundary
    edge slot (tet, (x, y)); ``free_faces`` are the two boundary faces.
    """

    tri: Triangulation
    params: LstParams
    word: str
    boundary: dict
    free_faces: tuple


def layer_tetrahedron(tri, slot_a, slot_b):
    """Glue a fresh tetrahedron over two free faces sharing an edge.

    Each slot is (tet, face, (p, q)): a free face and a directed edge
    inside it.  The new tetrahedron has its faces 3 and 2 glued onto the
    two slots with edge {0,1} landing on (p,q); faces 0 and 1 of the new
    tetrahedron are the fresh boundary, with {2,3} the fresh edge.
    """
    (ta, fa, (p, q)) = slot_a
    (tb, fb, (p2, q2)) = slot_b
    for t, f, edge in (slot_a, slot_b):
        if not (0 <= t < tri.n and 0 <= f < 4) or tri.gluings[t][f] is not None:
            raise LstError("layering target face is not free")
        if len({f, *edge} & {0, 1, 2, 3}) != 3:    # f, p, q distinct labels
            raise LstError("layering edge does not lie in its face")
    if (ta, fa) == (tb, fb):
        raise LstError("layering needs two distinct faces")
    xa = next(v for v in range(4) if v not in (fa, p, q))
    xb = next(v for v in range(4) if v not in (fb, p2, q2))
    n = tri.n
    perm3 = (p, q, xa, fa)
    perm2 = (p2, q2, fb, xb)
    rows = [list(row) for row in tri.gluings]
    rows.append([None, None, (tb, perm2), (ta, perm3)])
    rows[ta][fa] = (n, inverse(perm3))
    rows[tb][fb] = (n, inverse(perm2))
    return _from_table(rows)


def _directed_slot(tri, face, edge_class):
    """The edge of the given free face lying in edge_class, directed so
    its sign is positive."""
    t, f = face
    verts = [v for v in range(4) if v != f]
    for i in range(3):
        x, y = verts[i], verts[(i + 1) % 3]
        if tri.edge_class_of(t, x, y) == edge_class:
            if tri.edge_sign_of(t, x, y) == 1:
                return (t, f, (x, y))
            return (t, f, (y, x))
    raise LstError("edge class does not meet the face")


def lst_build(word="", minimal_context=False):
    """Build a layered solid torus by a word over {'a','b','c'}.

    Each letter layers the next tetrahedron on the boundary edge with
    the corresponding meridian label.  In minimal-context mode layering
    on the c edge (the unital boundary edge) is rejected, since it
    creates an edge of degree two.
    """
    tri = _from_table(_SEED_ROWS)
    params = LstParams(1, 2, 3)
    boundary = dict(_SEED_BOUNDARY)  # role 'a'|'b'|'c' -> slot
    faces = _SEED_FACES
    values = {"a": 1, "b": 2, "c": 3}
    for letter in word:
        if letter not in "abc":
            raise LstError(f"bad layering letter {letter!r}")
        if minimal_context and letter == "c":
            raise LstError(
                "layering on the unital boundary edge creates a degree-two edge")
        t_ref, pair_ref = boundary[letter]
        cls = tri.edge_class_of(t_ref, *pair_ref)
        slot_a = _directed_slot(tri, faces[0], cls)
        slot_b = _directed_slot(tri, faces[1], cls)
        new = layer_tetrahedron(tri, slot_a, slot_b)

        buried = values[letter]
        kept = [(values[r], boundary[r]) for r in "abc" if r != letter]
        (y, slot_y), (z, slot_z) = kept
        fresh = abs(y - z) if buried == y + z else y + z
        entries = sorted([(y, slot_y), (z, slot_z), ((fresh), (tri.n, (2, 3)))])
        tri = new
        params = LstParams(entries[0][0], entries[1][0], entries[2][0])
        boundary = {"a": entries[0][1], "b": entries[1][1], "c": entries[2][1]}
        values = {"a": entries[0][0], "b": entries[1][0], "c": entries[2][0]}
        faces = ((tri.n - 1, 0), (tri.n - 1, 1))
    return LstComplex(tri=tri, params=params, word=word,
                      boundary=boundary, free_faces=faces)


class LstCertificate(NamedTuple):
    """A layered solid torus subcomplex located inside a triangulation."""

    edge: int                 # the degree-3 edge class that seeded detection
    tets: tuple               # tetrahedra in layering order, core first
    core: int
    params: tuple
    word: str
    boundary_edges: tuple     # (edge class in T, degree within the LST)
    maximal: bool

    @property
    def tet_set(self):
        return frozenset(self.tets)


class DetectionFailure(NamedTuple):
    """A degree-3 edge that is not inside an embedded LST(1,3,4)."""

    edge: int
    reason: str


def _match_template(tri, tets, word):
    """Match the subcomplex on ``tets`` against lst_build(word); returns
    (ordered tets, template, subcomplex, index_of) or None."""
    template = lst_build(word)
    sub, index_of = subcomplex(tri, tets)
    iso = find_isomorphism(template.tri, sub)
    if iso is None:
        return None
    tet_map, _ = iso
    back = {v: k for k, v in index_of.items()}
    ordered = tuple(back[tet_map[i]] for i in range(template.tri.n))
    return ordered, template, sub, index_of


def _certificate_from_match(tri, edge_index, match):
    ordered, template, sub, index_of = match
    tets = sorted(index_of, key=index_of.get)
    boundary_edges = []
    for e in sub.edge_classes:
        if not e.boundary:
            continue
        t_sub, (x, y), _ = e.occurrences[0]
        boundary_edges.append((tri.edge_class_of(tets[t_sub], x, y), e.degree))
    return LstCertificate(
        edge=edge_index,
        tets=ordered,
        core=ordered[0],
        params=template.params.as_tuple(),
        word=template.word,
        boundary_edges=tuple(sorted(boundary_edges)),
        maximal=False)


def detect_degree3(tri):
    """Match every degree-3 edge against LST*(1,3,4).

    Returns (certificates, failures); a failure is data, witnessing a
    candidate for non-minimality rather than an error.
    """
    certificates = []
    failures = []
    for e in tri.edge_classes:
        if e.degree != 3 or e.boundary:
            continue
        tets = {t for t, _, _ in e.occurrences}
        if len(tets) == 3:
            failures.append(DetectionFailure(
                e.index, "three distinct tetrahedra: a 3-2 move applies"))
            continue
        if len(tets) == 1:
            failures.append(DetectionFailure(
                e.index, "contained in a single tetrahedron"))
            continue
        match = _match_template(tri, tets, "b")
        if match is None:
            failures.append(DetectionFailure(
                e.index, "two tetrahedra do not form LST(1,3,4)"))
            continue
        certificates.append(_certificate_from_match(tri, e.index, match))
    return certificates, failures


def maximal_extension(cert, tri):
    """Absorb layered tetrahedra over the boundary until no layering
    pattern matches; the result carries the maximal flag."""
    current = cert
    while True:
        # The tetrahedron across each face the LST leaves free, None for
        # a face free in tri too: one tetrahedron across both may layer.
        inside = current.tet_set
        targets = [None if g is None else g[0]
                   for t in current.tets for g in tri.gluings[t]
                   if g is None or g[0] not in inside]
        if len(targets) != 2 or targets[0] is None or targets[0] != targets[1]:
            break
        extended = None
        for letter in "abc":
            match = _match_template(tri, list(current.tets) + targets[:1],
                                    current.word + letter)
            if match is not None:
                extended = _certificate_from_match(tri, current.edge, match)
                break
        if extended is None:
            break
        current = extended
    return current._replace(maximal=True)


def _cells_of(tri, tets):
    tet_set = set(tets)
    faces = set()
    for fc in tri.face_classes:
        if any(t in tet_set for t, _ in fc.sides):
            faces.add(fc.index)
    edges = {e.index for e in tri.edge_classes
             if any(t in tet_set for t, _, _ in e.occurrences)}
    vertices = {v.index for v in tri.vertex_classes
                if any(t in tet_set for t, _ in v.corners)}
    return faces, edges, vertices


def classify_intersection(shared_tets, shared_faces, shared_edges,
                          shared_vertices, edge_endpoints):
    """Classify shared cell sets as empty, a vertex, an edge, or OTHER.

    ``edge_endpoints`` maps an edge class to the set of its endpoint
    vertex classes.  Anything beyond a single vertex or a single edge
    with its endpoints is OTHER: impossible in a minimal triangulation.
    """
    if shared_tets or shared_faces:
        return "OTHER"
    if shared_edges:
        if len(shared_edges) != 1:
            return "OTHER"
        (edge,) = shared_edges
        if shared_vertices == set(edge_endpoints[edge]):
            return "edge"
        return "OTHER"
    if shared_vertices:
        return "vertex" if len(shared_vertices) == 1 else "OTHER"
    return "empty"


def pairwise_intersection(c1, c2, tri):
    """Classify the intersection of two maximal layered solid tori as
    empty, vertex, edge, or OTHER.

    OTHER witnesses a configuration impossible in a minimal
    triangulation.  Comparing a certificate with itself gives OTHER.
    """
    shared_tets = c1.tet_set & c2.tet_set
    f1, e1, v1 = _cells_of(tri, c1.tets)
    f2, e2, v2 = _cells_of(tri, c2.tets)
    shared_faces = f1 & f2
    shared_edges = e1 & e2
    shared_vertices = v1 & v2
    detail = {
        "tets": sorted(shared_tets),
        "faces": sorted(shared_faces),
        "edges": sorted(shared_edges),
        "vertices": sorted(shared_vertices),
    }
    endpoints = {}
    for index in shared_edges:
        edge = tri.edge_classes[index]
        t, (x, y), _ = edge.occurrences[0]
        endpoints[index] = {tri.vertex_class_of(t, x),
                            tri.vertex_class_of(t, y)}
    kind = classify_intersection(shared_tets, shared_faces, shared_edges,
                                 shared_vertices, endpoints)
    return kind, detail
