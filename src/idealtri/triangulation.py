"""Face-paired tetrahedra and their derived combinatorics.

A triangulation is a set of ``n`` tetrahedra, labelled ``0..n-1``, with
vertex labels ``0..3``.  Face ``f`` of a tetrahedron is the triangle
spanned by the three vertices other than ``f``.  A gluing attaches face
``f`` of tetrahedron ``t`` to face ``perm[f]`` of tetrahedron ``t2``,
where ``perm`` maps all four vertex labels of ``t`` to those of ``t2``.

Quotients are only accepted when the projection is injective on the
interior of every simplex: faces may not be glued to themselves, and an
edge identified with itself in reverse raises ``InvalidEdge`` when the
edge classes, or the vertex classes that read them, are computed.

Gluing data is checked where it enters: ``Triangulation(n, gluings,
closed)``, ``build`` and ``subcomplex`` validate it, shapes and ``int``
types included (a ``bool`` is no index), ``relabelled`` checks that its
maps are bijections, and ``isosig.decode`` checks its action stream as
it replays it.  The decoder, layering, bistellar moves, the bundle
closure, the enumerator and ``relabelled`` build valid tables and adopt
them through ``_from_table``.

Derived classes are signed orbits of dense integer items under gluings:

- edge slot ``6t + k`` is the ``k``-th edge of tetrahedron ``t`` in the
  order (0,1), (0,2), (0,3), (1,2), (1,3), (2,3), signed by direction;
- corner ``4t + v`` is vertex ``v`` of tetrahedron ``t``, signed by the
  orientation of its link triangle, and tetrahedron ``t`` by its own
  orientation.  A link triangle is oriented by its tetrahedron's vertex
  order with its normal towards ``v``, so corners and tetrahedra flip
  across every gluing by an even permutation; a link is orientable when
  its corner signs are consistent.

The moves a gluing makes on one tetrahedron's items (``_EDGE_MOVES``,
``_CORNER_MOVES``, ``_TET_MOVES``; the enumerator merges by the first
and the last) are turned at import into step tables: the faces each
item lies on, and its image and flip across each face under each
permutation.  The depth-first walk ``_walk`` reads ``gluings`` through
them for corners and tetrahedra, and ``_edge_walk`` rotates around each
edge, whose slots lie on two faces each.  The derived classes read
their flat arrays into named-tuple records; ``classify_face`` reads them
through ``_FACE_CYCLES``, the slots of each face's directed boundary
cycle.
The enumerator's undoable signed union-find, ``_union_find``, also
links the disc sheets of ``surfaces.components`` and the free-face
corners ``16t + 4f + v`` of ``boundary_surface``; neither is a step
table's fixed set of items stepped across one gluing at a time.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from typing import NamedTuple

from .perms import COMPOSE, INVERSE, S4, S4_INDEX, inverse, sign


class InvalidTriangulation(ValueError):
    """The gluing data violates the pseudo-manifold axioms."""


class InvalidEdge(InvalidTriangulation):
    """An edge is identified with itself in reverse."""


class EdgeClass(NamedTuple):
    """An orbit of tetrahedron edges under the gluing maps.

    Each occurrence is ``(tet, (a, b), sign)`` with ``a < b``; the sign
    records whether the direction ``a -> b`` agrees (+1) or disagrees
    (-1) with the orientation of the class.  The lexicographically
    least occurrence is positively directed.
    """

    index: int
    occurrences: tuple  # ((tet, (a, b), sign), ...)
    boundary: bool

    @property
    def degree(self):
        return len(self.occurrences)


class VertexClass(NamedTuple):
    """An orbit of tetrahedron corners, with its link surface data."""

    index: int
    corners: tuple  # ((tet, vertex), ...)
    link_euler: int
    link_orientable: bool
    link_closed: bool

    @property
    def is_torus_link(self):
        return self.link_closed and self.link_euler == 0 and self.link_orientable


class FaceType(Enum):
    TRIANGLE = "triangle"
    CONE = "cone"
    MOEBIUS = "moebius"
    THREEFOLD = "threefold"
    DUNCE = "dunce"


class FaceClass(NamedTuple):
    index: int
    sides: tuple        # ((t, f),) or ((t, f), (t2, f2))
    boundary: bool


def _union_find(items):
    """An undoable signed union-find over the items ``0..items-1``:
    ``(parent, size, attached, find, link)``.  ``find(x)`` is ``(root,
    flip)``, ``flip`` true when the sign of ``x`` differs from its
    root's.  ``link(a, b, flip)`` joins the roots ``a`` and ``b``, the
    smaller under the larger, so that their signs differ exactly when
    ``flip`` is true, and appends the attached root to ``attached``;
    ``size[r]`` counts the items under root ``r``.  There is no path
    compression, so popping ``b`` off ``attached``, then
    ``size[parent[b]] -= size[b]`` and ``parent[b] = b``, undoes a link.
    """
    parent = list(range(items))
    flipped = [False] * items
    size = [1] * items
    attached = []

    def find(x):
        s = False
        while parent[x] != x:
            s ^= flipped[x]
            x = parent[x]
        return x, s

    def link(a, b, flip):
        if size[a] < size[b]:
            a, b = b, a
        parent[b] = a
        flipped[b] = flip
        size[a] += size[b]
        attached.append(b)

    return parent, size, attached, find, link


# Edge slot 6t + k is edge _PAIRS[k] of tetrahedron t; _SLOT[a][b] = k.
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_SLOT = [[_PAIRS.index((min(a, b), max(a, b))) if a != b else None
          for b in range(4)] for a in range(4)]

# The moves a gluing of face f by perm makes on one tetrahedron's items,
# as (item, image, flip), indexed [perm][f]; the module docstring gives
# the flip rules.
_EDGE_MOVES = {p: tuple(tuple((k, _SLOT[p[a]][p[b]], p[a] > p[b])
                              for k, (a, b) in enumerate(_PAIRS)
                              if f != a and f != b) for f in range(4))
               for p in S4}
_CORNER_MOVES = {p: tuple(tuple((v, p[v], sign(p) == 1)
                                for v in range(4) if v != f)
                          for f in range(4))
                 for p in S4}
_TET_MOVES = {p: (((0, 0, sign(p) == 1),),) * 4 for p in S4}


def _step_table(width, moves):
    """The walk's table for items ``width * t + i``: ``steps[perm][f][i]``
    is the ``(image, flip)`` of item ``i`` across face ``f`` glued by
    ``perm``, or None when the item is not on that face, and
    ``faces[i]`` lists the faces that item ``i`` lies on."""
    steps = {}
    for p in S4:
        rows = [[None] * width for _ in range(4)]
        for f, row in enumerate(rows):
            for a, b, flip in moves[p][f]:
                row[a] = (b, flip)
        steps[p] = tuple(map(tuple, rows))
    faces = tuple(tuple(f for f in range(4) if steps[S4[0]][f][i])
                  for i in range(width))
    return width, faces, steps


_EDGE_STEPS = _step_table(6, _EDGE_MOVES)
_CORNER_STEPS = _step_table(4, _CORNER_MOVES)
_TET_STEPS = _step_table(1, _TET_MOVES)
# An edge slot k entered through face f leaves by face _EDGE_TURN[k] - f.
_EDGE_TURN = tuple(map(sum, _EDGE_STEPS[1]))
# _FACE_CYCLES[f]: the directed boundary cycle a -> b -> c -> a of face
# f, where a < b < c are its vertices, as (slot, direction) per edge.
_FACE_CYCLES = tuple(((_SLOT[a][b], 1), (_SLOT[b][c], 1), (_SLOT[a][c], -1))
                     for a, b, c in (sorted({0, 1, 2, 3} - {f})
                                     for f in range(4)))


def _walk(gluings, table):
    """Signed orbits of the items ``width * t + i`` under the gluings,
    stepping through ``table`` (a ``_step_table``) as it reads each
    item's faces: ``orbit[i]`` numbers the orbit of item ``i`` in the
    order of least items, ``signs[i]`` is its sign relative to that
    least item, and ``consistent[k]`` tells whether no gluing
    contradicts the signs of orbit ``k``.  The batch kernel for corners
    and tetrahedra; edges rotate in ``_edge_walk`` to the same arrays,
    and orbits linked one pair at a time run on ``_union_find``."""
    width, faces, steps = table
    size = width * len(gluings)
    orbit = [-1] * size
    signs = [1] * size
    consistent = []
    for least in range(size):
        if orbit[least] >= 0:
            continue
        k = len(consistent)
        orbit[least] = k
        ok = True
        stack = [least]
        while stack:
            a = stack.pop()
            t = a // width
            i = a - width * t
            row = gluings[t]
            sa = signs[a]
            for f in faces[i]:
                g = row[f]
                if g is not None:
                    t2, perm = g
                    j, flip = steps[perm][f][i]
                    b = width * t2 + j
                    if orbit[b] < 0:
                        orbit[b] = k
                        signs[b] = -sa if flip else sa
                        stack.append(b)
                    elif signs[b] != (-sa if flip else sa):
                        ok = False
        consistent.append(ok)
    return orbit, signs, consistent


def _edge_walk(gluings):
    """``_walk(gluings, _EDGE_STEPS)`` by rotating around each edge: a
    slot lies on two faces, so an orbit is a cycle or a path of slots,
    each entered by one face and left by the other.  The least slot is
    left by its first face, and by its second after a free face."""
    _, faces, steps = _EDGE_STEPS
    size = 6 * len(gluings)
    orbit = [-1] * size
    signs = [1] * size
    consistent = []
    for least in range(size):
        if orbit[least] >= 0:
            continue
        orbit[least] = k = len(consistent)
        consistent.append(True)
        t0, i0 = divmod(least, 6)
        for f in faces[i0]:
            t, i, s = t0, i0, 1
            g = gluings[t][f]
            while g is not None:
                t, perm = g
                j, flip = steps[perm][f][i]
                f, i = perm[_EDGE_TURN[i] - f], j
                s = -s if flip else s
                b = 6 * t + i
                if b == least:          # a cycle: consistent if s is 1
                    consistent[k] = s == 1
                    break
                orbit[b], signs[b] = k, s
                g = gluings[t][f]
            else:
                continue                # a free face: walk the other way
            break
    return orbit, signs, consistent


class Triangulation:
    """An immutable collection of face-paired tetrahedra.

    ``gluings`` may list each gluing from one side or both; a missing
    reverse entry is filled in from the involution, a conflicting one
    is an error.
    """

    def __init__(self, n, gluings, closed=True):
        if type(n) is not int:
            raise InvalidTriangulation(f"tetrahedron count {n!r} is not an integer")
        if n < 1:
            raise InvalidTriangulation("need at least one tetrahedron")
        table = [[None] * 4 for _ in range(n)]
        items = gluings.items() if hasattr(gluings, "items") else gluings
        for item in items:
            key, target = _pair(item)
            if key is None:
                raise InvalidTriangulation(
                    f"gluing {item!r} is not a (face, target) pair")
            t, f = _pair(key)
            if not (type(t) is int and type(f) is int):
                raise InvalidTriangulation(f"face {key!r} is not a pair of integers")
            if not (0 <= t < n and 0 <= f < 4):
                raise InvalidTriangulation(f"face ({t},{f}) out of range")
            if target is None:
                continue
            t2, perm = _pair(target)
            if type(t2) is not int:
                raise InvalidTriangulation(
                    f"gluing of ({t},{f}) is not a (tetrahedron, permutation) pair")
            if not (0 <= t2 < n):
                raise InvalidTriangulation(f"target tetrahedron {t2} out of range")
            try:
                perm = S4[S4_INDEX[tuple(perm)]]
            except (KeyError, TypeError):
                raise InvalidTriangulation(
                    f"gluing of ({t},{f}) is not a permutation") from None
            entry = (t2, perm)
            if table[t][f] is not None and table[t][f] != entry:
                raise InvalidTriangulation(f"conflicting gluings for face ({t},{f})")
            table[t][f] = entry

        for t in range(n):
            for f in range(4):
                if table[t][f] is None:
                    continue
                t2, perm = table[t][f]
                f2 = perm[f]
                if t2 == t and f2 == f:
                    raise InvalidTriangulation(
                        f"face ({t},{f}) glued to itself")
                back = (t, inverse(perm))
                if table[t2][f2] is None:
                    table[t2][f2] = back
                elif table[t2][f2] != back:
                    raise InvalidTriangulation(
                        f"gluing involution violated at face ({t2},{f2})")

        if closed:
            for t in range(n):
                for f in range(4):
                    if table[t][f] is None:
                        raise InvalidTriangulation(
                            f"face ({t},{f}) unglued in a closed triangulation")

        self.n = n
        self.gluings = tuple(tuple(row) for row in table)
        if len(self._tets[2]) != 1:
            raise InvalidTriangulation("triangulation is not connected")

    # -- basic accessors -------------------------------------------------

    def gluing(self, t, f):
        return self.gluings[t][f]

    @cached_property
    def is_closed(self):
        return all(g is not None for row in self.gluings for g in row)

    def __eq__(self, other):
        return (isinstance(other, Triangulation)
                and self.n == other.n and self.gluings == other.gluings)

    def __hash__(self):
        return hash((self.n, self.gluings))

    def __repr__(self):
        kind = "closed" if self.is_closed else "bounded"
        return f"<Triangulation: {self.n} tetrahedra, {kind}>"

    # -- derived classes -------------------------------------------------

    @cached_property
    def _edge_slots(self):
        orbit, signs, consistent = _edge_walk(self.gluings)
        if not all(consistent):
            t, k = divmod(orbit.index(consistent.index(False)), 6)
            a, b = _PAIRS[k]
            raise InvalidEdge(
                f"edge ({t},{{{a},{b}}}) identified with itself in reverse")
        return orbit, signs

    @cached_property
    def edge_classes(self):
        """Edge orbits with direction signs; raises InvalidEdge on a
        reversed self-identification."""
        orbit, signs = self._edge_slots
        occurrences = [[] for _ in range(max(orbit) + 1)]
        boundary = [False] * len(occurrences)
        for slot, k in enumerate(orbit):
            occurrences[k].append((slot // 6, _PAIRS[slot % 6], signs[slot]))
        for t, row in enumerate(self.gluings):
            if None in row:
                for k, (c, d) in zip(orbit[6 * t:6 * t + 6], _EDGE_STEPS[1]):
                    if row[c] is None or row[d] is None:
                        boundary[k] = True
        return tuple(EdgeClass(k, tuple(occs), boundary[k])
                     for k, occs in enumerate(occurrences))

    def edge_class_of(self, t, a, b):
        """Index of the edge class containing edge {a,b} of tetrahedron t."""
        return self._edge_slots[0][6 * t + _SLOT[a][b]]

    def edge_sign_of(self, t, a, b):
        """Sign of the direction a -> b of the given slot."""
        s = self._edge_slots[1][6 * t + _SLOT[a][b]]
        return s if a < b else -s

    @cached_property
    def _corners(self):
        return _walk(self.gluings, _CORNER_STEPS)

    @cached_property
    def vertex_classes(self):
        """Vertex orbits together with link Euler characteristic and
        orientability; raises InvalidEdge like ``edge_classes``."""
        orbit, _, orientable = self._corners
        corners = [[] for _ in orientable]
        free = [0] * len(orientable)
        ends = [0] * len(orientable)
        for t, row in enumerate(self.gluings):
            unglued = row.count(None)
            for v in range(4):
                k = orbit[4 * t + v]
                corners[k].append((t, v))
                free[k] += unglued - (row[v] is None)
        for e in self.edge_classes:
            t, (a, b), _ = e.occurrences[0]
            ends[orbit[4 * t + a]] += 1
            ends[orbit[4 * t + b]] += 1
        # A link has a vertex per edge-class end, a triangle per corner
        # and 3 sides per triangle, free ones once and glued ones in
        # pairs: twice its Euler characteristic is 2 ends - corners - free.
        return tuple(VertexClass(
            index=k,
            corners=tuple(corners[k]),
            link_euler=(2 * ends[k] - len(corners[k]) - free[k]) // 2,
            link_orientable=orientable[k],
            link_closed=(free[k] == 0)) for k in range(len(orientable)))

    def vertex_class_of(self, t, v):
        return self._corners[0][4 * t + v]

    @cached_property
    def _tets(self):
        return _walk(self.gluings, _TET_STEPS)

    @cached_property
    def orientation_signs(self):
        """Coherent orientation signs per tetrahedron, or None."""
        _, signs, consistent = self._tets
        return tuple(signs) if consistent[0] else None

    @cached_property
    def parity_rows(self):
        """One bitmask over edge-class indices per face class: the edge
        classes met an odd number of times by the face's boundary."""
        orbit = self._edge_slots[0]
        rows = []
        for fc in self.face_classes:
            t, f = fc.sides[0]
            row = 0
            for k, _ in _FACE_CYCLES[f]:
                row ^= 1 << orbit[6 * t + k]
            rows.append(row)
        return tuple(rows)

    @cached_property
    def is_orientable(self):
        return self.orientation_signs is not None

    @cached_property
    def face_classes(self):
        """Free faces and glued pairs, each at its (lesser) first side."""
        classes = []
        for t, row in enumerate(self.gluings):
            for f, g in enumerate(row):
                sides = ((t, f),) if g is None else ((t, f), (g[0], g[1][f]))
                if g is None or sides[0] < sides[1]:
                    classes.append(FaceClass(len(classes), sides, g is None))
        return tuple(classes)


def _pair(value):
    """``value`` unpacked as a pair, or ``(None, None)`` if it is not one."""
    try:
        a, b = value
    except (TypeError, ValueError):
        return None, None
    return a, b


def _from_table(rows):
    """Adopt a finished table without checks: ``rows[t][f]`` is
    ``(t2, perm)`` with ``perm`` a 4-tuple, or None for a free face;
    every gluing is listed from both sides, no face is glued to itself
    and the complex is connected.  Only for builders whose output is
    valid by construction (the decoder's replay, moves, layering, the
    bundle closure, the enumerator's leaves and ``relabelled``); data
    from callers is validated by ``Triangulation``."""
    tri = Triangulation.__new__(Triangulation)
    tri.n = len(rows)
    tri.gluings = tuple(tuple(row) for row in rows)
    return tri


def build(n, gluings, closed=True):
    """Validate gluing data and construct a Triangulation."""
    return Triangulation(n, gluings, closed=closed)


def classify_face(tri, t, f):
    """Type of face f of tetrahedron t under the edge identifications."""
    orbit, signs = tri._edge_slots
    cls = [orbit[6 * t + k] for k, _ in _FACE_CYCLES[f]]
    sgn = [d * signs[6 * t + k] for k, d in _FACE_CYCLES[f]]
    distinct = len(set(cls))
    if distinct == 3:
        return FaceType.TRIANGLE
    if distinct == 1:
        if sgn[0] == sgn[1] == sgn[2]:
            return FaceType.THREEFOLD
        return FaceType.DUNCE
    # Exactly one pair of edges identified.  For consecutive directed
    # boundary edges in one class, equal signs slide the shared vertex
    # along (Moebius); opposite signs pin it (cone).
    i = 0 if cls[0] == cls[1] else 1 if cls[1] == cls[2] else 2
    return FaceType.MOEBIUS if sgn[i] == sgn[(i + 1) % 3] else FaceType.CONE


def classify_faces(tri):
    """Map each face class to its FaceType."""
    return {fc.index: classify_face(tri, *fc.sides[0]) for fc in tri.face_classes}


def face_type_counts(tri):
    counts = {ft: 0 for ft in FaceType}
    for ft in classify_faces(tri).values():
        counts[ft] += 1
    return counts


def degree_histogram(tri):
    hist = {}
    for e in tri.edge_classes:
        hist[e.degree] = hist.get(e.degree, 0) + 1
    return dict(sorted(hist.items()))


def anatomy_report(tri):
    """Degree and face-type anatomy, with the necessary conditions a
    minimal triangulation must satisfy."""
    hist = degree_histogram(tri)
    counts = face_type_counts(tri)
    min_degree = min(hist)
    report = {
        "tetrahedra": tri.n,
        "edges": len(tri.edge_classes),
        "min_edge_degree": min_degree,
        "degree_histogram": hist,
        "face_types": {ft.value: counts[ft] for ft in FaceType},
        "no_degree_one_edge": 1 not in hist,
        "no_degree_two_edge": 2 not in hist,
        "no_threefold_face": counts[FaceType.THREEFOLD] == 0,
        "no_dunce_face": counts[FaceType.DUNCE] == 0,
    }
    report["passes_minimal_anatomy"] = (
        report["no_degree_one_edge"] and report["no_degree_two_edge"]
        and report["no_threefold_face"] and report["no_dunce_face"])
    return report


def boundary_surface(tri):
    """Cell counts of the boundary surface built from unglued faces.

    Returns (vertices, edges, triangles, euler) of the surface swept out
    by the boundary faces, or None for a closed triangulation.  An edge
    class with free faces is one path of wedges, so it is one boundary
    edge with exactly two free-face slots.  Boundary vertices are the
    orbits of free-face corners ``16t + 4f + v``, matched tail to tail
    and head to head, by the edge's direction signs, across each such
    pair of slots.  A bounded triangulation with an edge identified with
    itself in reverse raises InvalidEdge, as ``vertex_classes`` does;
    the ``degree3-lst-context`` predicate reads the edge classes first.
    """
    free = [(t, f) for t in range(tri.n) for f in range(4)
            if tri.gluings[t][f] is None]
    if not free:
        return None
    _, _, _, find, link = _union_find(16 * tri.n)
    edges = 0
    for e in tri.edge_classes:
        ends = []       # (tail, head) corners of each free-face slot
        for t, (a, b), s in e.occurrences:
            tail, head = (a, b) if s > 0 else (b, a)
            ends += [(16 * t + 4 * f + tail, 16 * t + 4 * f + head)
                     for f in _PAIRS[5 - _SLOT[a][b]]
                     if tri.gluings[t][f] is None]
        if ends:
            (tail, head), (tail2, head2) = ends
            for x, y in ((tail, tail2), (head, head2)):
                x, y = find(x)[0], find(y)[0]
                if x != y:
                    link(x, y, False)
            edges += 1
    vertices = len({find(16 * t + 4 * f + v)[0]
                    for t, f in free for v in range(4) if v != f})
    return {"vertices": vertices, "edges": edges,
            "triangles": len(free), "euler": vertices - edges + len(free)}


def find_isomorphism(t1, t2):
    """A combinatorial isomorphism t1 -> t2, or None.

    Returns (tet_map, vertex_maps): tetrahedron t of t1 corresponds to
    tet_map[t] of t2 with vertices relabelled by vertex_maps[t].  The
    labelling of t1 grown from tetrahedron 0 is matched against the
    labellings of t2 from every start, which are tried so that the
    vertex map of tetrahedron 0 runs through S4 in index order.
    """
    from .isosig import _flatten, _grow
    flat1, flat2 = _flatten(t1), _flatten(t2)
    if t1.n != t2.n:
        return None
    actions, dests, gluings, _, order1, vmap1 = _grow(*flat1, 0, 0, None)
    for t0 in range(t2.n):
        for i in range(24):
            grown = _grow(*flat2, t0, INVERSE[i], actions)
            if grown is None:
                continue
            _, dests2, gluings2, tied, order2, vmap2 = grown
            if not (tied and dests2 == dests and gluings2 == gluings):
                continue
            tet_map = [0] * t1.n
            vertex_maps = [None] * t1.n
            for t, u in zip(order1, order2):
                tet_map[t] = u
                vertex_maps[t] = S4[COMPOSE[INVERSE[vmap2[u]]][vmap1[t]]]
            return tet_map, vertex_maps
    return None


def subcomplex(tri, tets):
    """The subcomplex spanned by the given tetrahedra: gluings between
    them are kept, all other faces become free.

    Returns (sub, index_of) where index_of maps old to new indices.
    Vertex labels are unchanged.  A tetrahedron that is not an ``int``
    (a ``bool`` is not) in ``range(tri.n)`` raises InvalidTriangulation.
    """
    tets = list(tets)
    for t in tets:
        if not (type(t) is int and 0 <= t < tri.n):
            raise InvalidTriangulation(f"tetrahedron {t!r} out of range")
    tets = sorted(set(tets))
    index_of = {t: i for i, t in enumerate(tets)}
    gluings = {}
    for t in tets:
        for f in range(4):
            g = tri.gluings[t][f]
            if g is not None and g[0] in index_of:
                gluings[(index_of[t], f)] = (index_of[g[0]], g[1])
    return Triangulation(len(tets), gluings, closed=False), index_of


def _relabel_rows(rows, tet_map, vertex_maps):
    """The table ``rows`` (in ``_from_table``'s form) under an
    isomorphism: tetrahedron t becomes ``tet_map[t]``, with its vertices
    relabelled by ``S4[vertex_maps[t]]``.  Returns a tuple of row tuples,
    unchecked; both maps must be bijections."""
    out = [[None] * 4 for _ in rows]
    for t, row in enumerate(rows):
        v = vertex_maps[t]
        image, back, new_row = S4[v], INVERSE[v], out[tet_map[t]]
        for f, g in enumerate(row):
            if g is not None:
                t2, perm = g
                new_row[image[f]] = (tet_map[t2], S4[COMPOSE[vertex_maps[t2]][
                    COMPOSE[S4_INDEX[perm]][back]]])
    return tuple(map(tuple, out))


def relabelled(tri, tet_map, vertex_maps):
    """Apply an isomorphism: tetrahedron t becomes tet_map[t], with its
    vertices relabelled by vertex_maps[t].  Once both maps are checked
    to be bijections, the relabelled table is valid and adopted."""
    try:
        vertex_maps = [S4_INDEX[tuple(p)] for p in vertex_maps]
        bijective = (sorted(tet_map) == list(range(tri.n))
                     and all(type(t) is int for t in tet_map))
    except (KeyError, TypeError):
        bijective = False
    if not bijective or len(vertex_maps) != tri.n:
        raise InvalidTriangulation("relabelling is not a bijection")
    return _from_table(_relabel_rows(tri.gluings, tet_map, vertex_maps))
