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

Derived classes are signed orbits of dense integer items under the
gluings, all found by one kernel, ``_signed_orbits``:

- edge slot ``6t + k`` is the ``k``-th edge of tetrahedron ``t`` in the
  order (0,1), (0,2), (0,3), (1,2), (1,3), (2,3), signed by direction;
- corner ``4t + v`` is vertex ``v`` of tetrahedron ``t``, signed by the
  orientation of its link triangle.  Across face ``f != v`` glued by
  ``perm`` the sign flips when ``sign(perm) == (-1)**(v + perm[v])``,
  and a link is orientable when its corner signs are consistent;
- tetrahedron ``t`` is signed by orientation, flipping across every
  gluing by an even permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .perms import S4, compose, inverse, is_perm, sign


class InvalidTriangulation(ValueError):
    """The gluing data violates the pseudo-manifold axioms."""


class InvalidEdge(InvalidTriangulation):
    """An edge is identified with itself in reverse."""


@dataclass(frozen=True)
class EdgeClass:
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

    def slots(self):
        return [(t, pair) for t, pair, _ in self.occurrences]


@dataclass(frozen=True)
class VertexClass:
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


@dataclass(frozen=True)
class FaceClass:
    index: int
    sides: tuple        # ((t, f),) or ((t, f), (t2, f2))
    boundary: bool


def _signed_orbits(size, moves):
    """Orbits of the items ``0..size-1`` with a sign on every item.

    A move ``(a, b, flip)`` takes item ``a`` to item ``b``, reversing
    the sign when ``flip`` is true; every move must also be listed from
    ``b``.  Returns ``(orbit, signs, consistent)``: ``orbit[i]`` numbers
    the orbit of ``i``, orbits counted in the order of their least items;
    ``signs[i]`` is the sign of ``i`` relative to that least item; and
    ``consistent[k]`` tells whether orbit ``k`` has no move that
    contradicts those signs.
    """
    links = [[] for _ in range(size)]
    for a, b, flip in moves:
        links[a].append((b, flip))
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
            for b, flip in links[a]:
                s = -signs[a] if flip else signs[a]
                if orbit[b] < 0:
                    orbit[b] = k
                    signs[b] = s
                    stack.append(b)
                elif signs[b] != s:
                    ok = False
        consistent.append(ok)
    return orbit, signs, consistent


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
_CORNER_MOVES = {p: tuple(tuple((v, p[v], sign(p) == (-1) ** (v + p[v]))
                                for v in range(4) if v != f)
                          for f in range(4))
                 for p in S4}
_TET_MOVES = {p: (((0, 0, sign(p) == 1),),) * 4 for p in S4}


class Triangulation:
    """An immutable collection of face-paired tetrahedra.

    ``gluings`` may list each gluing from one side or both; a missing
    reverse entry is filled in from the involution, a conflicting one
    is an error.
    """

    def __init__(self, n, gluings, closed=True):
        if n < 1:
            raise InvalidTriangulation("need at least one tetrahedron")
        table = [[None] * 4 for _ in range(n)]
        items = gluings.items() if hasattr(gluings, "items") else gluings
        for key, target in items:
            t, f = key
            if not (0 <= t < n and 0 <= f < 4):
                raise InvalidTriangulation(f"face ({t},{f}) out of range")
            if target is None:
                continue
            t2, perm = target
            perm = tuple(perm)
            if not (0 <= t2 < n):
                raise InvalidTriangulation(f"target tetrahedron {t2} out of range")
            if not is_perm(perm):
                raise InvalidTriangulation(f"gluing of ({t},{f}) is not a permutation")
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

        # connectivity
        seen = {0}
        stack = [0]
        while stack:
            t = stack.pop()
            for f in range(4):
                if self.gluings[t][f] is not None:
                    t2 = self.gluings[t][f][0]
                    if t2 not in seen:
                        seen.add(t2)
                        stack.append(t2)
        if len(seen) != n:
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

    def _orbits(self, width, moves_of):
        """Signed orbits of the ``width * n`` items ``width * t + i``
        under the gluings; ``moves_of[perm][f]`` lists the moves that
        the gluing of face ``f`` by ``perm`` makes on one tetrahedron's
        items."""
        moves = []
        for t, row in enumerate(self.gluings):
            for f, g in enumerate(row):
                if g is not None:
                    base, base2 = width * t, width * g[0]
                    moves += [(base + i, base2 + j, flip)
                              for i, j, flip in moves_of[g[1]][f]]
        return _signed_orbits(width * self.n, moves)

    @cached_property
    def _edge_slots(self):
        orbit, signs, consistent = self._orbits(6, _EDGE_MOVES)
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
            t, i = divmod(slot, 6)
            occurrences[k].append((t, _PAIRS[i], signs[slot]))
            c, d = _PAIRS[5 - i]        # the two faces containing the edge
            row = self.gluings[t]
            boundary[k] = boundary[k] or row[c] is None or row[d] is None
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
        return self._orbits(4, _CORNER_MOVES)

    @cached_property
    def vertex_classes(self):
        """Vertex orbits together with link Euler characteristic and
        orientability; raises InvalidEdge like ``edge_classes``."""
        orbit, _, orientable = self._corners
        corners = [[] for _ in orientable]
        free = [0] * len(orientable)
        ends = [0] * len(orientable)
        for c, k in enumerate(orbit):
            t, v = divmod(c, 4)
            corners[k].append((t, v))
            free[k] += sum(1 for f, g in enumerate(self.gluings[t])
                           if f != v and g is None)
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
    def orientation_signs(self):
        """Coherent orientation signs per tetrahedron, or None."""
        _, signs, consistent = self._orbits(1, _TET_MOVES)
        return tuple(signs) if consistent[0] else None

    @cached_property
    def parity_rows(self):
        """One bitmask over edge-class indices per face class: the edge
        classes met an odd number of times by the face's boundary."""
        rows = []
        for fc in self.face_classes:
            t, f = fc.sides[0]
            row = 0
            for a, b in _PAIRS:
                if f != a and f != b:
                    row ^= 1 << self.edge_class_of(t, a, b)
            rows.append(row)
        return tuple(rows)

    @cached_property
    def is_orientable(self):
        return self.orientation_signs is not None

    @cached_property
    def face_classes(self):
        classes = []
        seen = set()
        for t in range(self.n):
            for f in range(4):
                if (t, f) in seen:
                    continue
                g = self.gluings[t][f]
                if g is None:
                    classes.append(FaceClass(len(classes), ((t, f),), True))
                    seen.add((t, f))
                else:
                    t2, perm = g
                    f2 = perm[f]
                    classes.append(FaceClass(len(classes), ((t, f), (t2, f2)), False))
                    seen.add((t, f))
                    seen.add((t2, f2))
        return tuple(classes)


def build(n, gluings, closed=True):
    """Validate gluing data and construct a Triangulation."""
    return Triangulation(n, gluings, closed=closed)


def classify_face(tri, t, f):
    """Type of face f of tetrahedron t under the edge identifications."""
    verts = [v for v in range(4) if v != f]
    a, b, c = verts
    # Directed boundary cycle a -> b -> c -> a.
    cycle = [(a, b), (b, c), (c, a)]
    cls = [tri.edge_class_of(t, x, y) for x, y in cycle]
    sgn = [tri.edge_sign_of(t, x, y) for x, y in cycle]
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
    for i in range(3):
        j = (i + 1) % 3
        if cls[i] == cls[j]:
            return FaceType.MOEBIUS if sgn[i] == sgn[j] else FaceType.CONE
    raise AssertionError("unreachable")


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
    by the boundary faces, or None for a closed triangulation.
    """
    free = [(t, f) for t in range(tri.n) for f in range(4)
            if tri.gluings[t][f] is None]
    if not free:
        return None
    free_set = set(free)

    # Boundary edge slots: (t, f, {x, y}) for each edge of each free face.
    # Two slots are identified when they belong to the same edge class and
    # are connected through the interior around that edge: walk around the
    # edge class from one free face to the next.
    def walk(t, f, x, y):
        # Rotate around edge {x,y} starting through the other face.
        while True:
            others = [h for h in range(4) if h not in (x, y, f)]
            g = others[0]
            glu = tri.gluings[t][g]
            if glu is None:
                return (t, g, x, y)
            t2, perm = glu
            t, f, x, y = t2, perm[g], perm[x], perm[y]

    slot_ids = {}
    pair_count = 0
    for (t, f) in free:
        verts = [v for v in range(4) if v != f]
        for i in range(3):
            x, y = verts[i], verts[(i + 1) % 3]
            key = (t, f, min(x, y), max(x, y))
            if key in slot_ids:
                continue
            t2, g2, x2, y2 = walk(t, f, x, y)
            key2 = (t2, g2, min(x2, y2), max(x2, y2))
            assert (t2, g2) in free_set
            slot_ids[key] = pair_count
            slot_ids[key2] = pair_count
            pair_count += 1
    edges = pair_count

    # Boundary vertex corners: (t, f, v) for v a vertex of the free face.
    def corner_walk(t, f, v):
        # All corners identified with (t, f, v) across boundary edges.
        seen = {(t, f, v)}
        stack = [(t, f, v)]
        while stack:
            tt, ff, vv = stack.pop()
            for u in range(4):
                if u == ff or u == vv:
                    continue
                t2, g2, v2, _ = walk(tt, ff, vv, u)
                key = (t2, g2, v2)
                if key not in seen:
                    seen.add(key)
                    stack.append(key)
        return seen

    corner_class = {}
    n_vertices = 0
    for (t, f) in free:
        for v in range(4):
            if v == f or (t, f, v) in corner_class:
                continue
            orbit = corner_walk(t, f, v)
            for c in orbit:
                corner_class[c] = n_vertices
            n_vertices += 1

    triangles = len(free)
    euler = n_vertices - edges + triangles
    return {"vertices": n_vertices, "edges": edges,
            "triangles": triangles, "euler": euler}


def find_isomorphism(t1, t2):
    """A combinatorial isomorphism t1 -> t2, or None.

    Returns (tet_map, vertex_maps): tetrahedron t of t1 corresponds to
    tet_map[t] of t2 with vertices relabelled by vertex_maps[t].
    """
    if t1.n != t2.n:
        return None
    from .perms import ALL_PERMS
    for t0 in range(t2.n):
        for p0 in ALL_PERMS:
            tet_map = {0: t0}
            vmaps = {0: p0}
            queue = [0]
            ok = True
            while queue and ok:
                t = queue.pop()
                for f in range(4):
                    g1 = t1.gluings[t][f]
                    img_t = tet_map[t]
                    img_f = vmaps[t][f]
                    g2 = t2.gluings[img_t][img_f]
                    if g1 is None and g2 is None:
                        continue
                    if (g1 is None) != (g2 is None):
                        ok = False
                        break
                    s1, perm1 = g1
                    s2, perm2 = g2
                    req = compose(perm2, compose(vmaps[t], inverse(perm1)))
                    if s1 in tet_map:
                        if tet_map[s1] != s2 or vmaps[s1] != req:
                            ok = False
                            break
                    else:
                        tet_map[s1] = s2
                        vmaps[s1] = req
                        queue.append(s1)
            if ok and len(tet_map) == t1.n and len(set(tet_map.values())) == t1.n:
                return ([tet_map[t] for t in range(t1.n)],
                        [vmaps[t] for t in range(t1.n)])
    return None


def subcomplex(tri, tets):
    """The subcomplex spanned by the given tetrahedra: gluings between
    them are kept, all other faces become free.

    Returns (sub, index_of) where index_of maps old to new indices.
    Vertex labels are unchanged.
    """
    tets = sorted(set(tets))
    index_of = {t: i for i, t in enumerate(tets)}
    gluings = {}
    for t in tets:
        for f in range(4):
            g = tri.gluings[t][f]
            if g is not None and g[0] in index_of:
                gluings[(index_of[t], f)] = (index_of[g[0]], g[1])
    return Triangulation(len(tets), gluings, closed=False), index_of


def relabelled(tri, tet_map, vertex_maps):
    """Apply an isomorphism: tetrahedron t becomes tet_map[t], with its
    vertices relabelled by vertex_maps[t]."""
    gluings = {}
    for t in range(tri.n):
        for f in range(4):
            g = tri.gluings[t][f]
            if g is None:
                continue
            t2, perm = g
            new_perm = compose(vertex_maps[t2], compose(perm, inverse(vertex_maps[t])))
            gluings[(tet_map[t], vertex_maps[t][f])] = (tet_map[t2], new_perm)
    return Triangulation(tri.n, gluings, closed=tri.is_closed)
