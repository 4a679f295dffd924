"""Normal surfaces in ideal triangulations.

Coordinates per tetrahedron: four triangle counts (the triangle at
vertex v cuts off that corner) and three quadrilateral counts.  Quad
type i separates the vertex pair {0, i} from the other two vertices,
so it is disjoint from exactly that pair of opposite edges.

The induced cell structure has one 0-cell per intersection point with
an edge, one 1-cell per matched arc in a face, and the discs as
2-cells; ``euler_characteristic`` computes chi from these counts.  A
connected component is itself a normal surface, so ``components``
reads each component's chi with ``euler_characteristic`` as well.

``from_coordinates`` checks a vector from outside: its length, that
each coordinate is a non-negative ``int`` (not a ``bool``), one quad
type per tetrahedron and the matching equations.  Canonical
and vertex-linking surfaces meet these by construction, so a
``NormalSurface`` itself only checks that its triangulation is closed.
"""

from __future__ import annotations

from typing import NamedTuple

from .cohomology import _rank1_types
from .perms import sign
from .triangulation import _PAIRS, _union_find


class SurfaceError(ValueError):
    """Inadmissible or mismatched normal coordinates."""


def quad_type_of_pair(x, y):
    """The quad type disjoint from edge {x,y} (and its opposite)."""
    if x == 0:
        return y
    if y == 0:
        return x
    return ({1, 2, 3} - {x, y}).pop()


# Edge slot k of a tetrahedron: its vertices and the disjoint quad's index.
_SLOT_CORNERS = tuple((a, b, quad_type_of_pair(a, b) - 1) for a, b in _PAIRS)


class _NormalSurfaceFields(NamedTuple):
    tri: object
    triangles: tuple   # triangles[t][v]
    quads: tuple       # quads[t][i-1] for quad types 1,2,3


class NormalSurface(_NormalSurfaceFields):
    """Vectors of triangle and quadrilateral counts per tetrahedron."""

    __slots__ = ()
    # NamedTuple bodies bar __new__; this _make keeps _replace checked.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, tri, triangles, quads):
        if not tri.is_closed:
            raise SurfaceError("normal surfaces need a closed triangulation")
        return tuple.__new__(cls, (tri, triangles, quads))

    def quad_count(self, t):
        return sum(self.quads[t])

    def arcs(self, t, f, v):
        """Arcs cutting off corner v in face f of tetrahedron t."""
        q = quad_type_of_pair(f, v)
        return self.triangles[t][v] + self.quads[t][q - 1]

    def corner_count(self, t, a, b):
        """Points of the surface on edge {a,b} of tetrahedron t."""
        disjoint = quad_type_of_pair(a, b)
        on_edge = self.quad_count(t) - self.quads[t][disjoint - 1]
        return self.triangles[t][a] + self.triangles[t][b] + on_edge

    def edge_weights(self):
        """Intersection count per edge class, read at its first slot."""
        weights = []
        for e in self.tri.edge_classes:
            t, (a, b), _ = e.occurrences[0]
            weights.append(self.corner_count(t, a, b))
        return weights

    @property
    def weight(self):
        return sum(self.edge_weights())

    @property
    def disc_count(self):
        return (sum(sum(row) for row in self.triangles)
                + sum(sum(row) for row in self.quads))

    def coordinate_vector(self):
        """Length-7n integer vector: 4 triangles then 3 quads per tet."""
        out = []
        for t in range(self.tri.n):
            out.extend(self.triangles[t])
            out.extend(self.quads[t])
        return out


def from_coordinates(tri, vector):
    """Build a surface from a length-7n coordinate vector, checking it:
    non-negative integers, one quad type per tetrahedron, matching
    equations."""
    if len(vector) != 7 * tri.n:
        raise SurfaceError("coordinate vector must have length 7n")
    surface = NormalSurface(
        tri=tri,
        triangles=tuple(tuple(vector[7 * t: 7 * t + 4]) for t in range(tri.n)),
        quads=tuple(tuple(vector[7 * t + 4: 7 * t + 7]) for t in range(tri.n)))
    for t in range(tri.n):
        if any(type(c) is not int or c < 0
               for c in surface.triangles[t] + surface.quads[t]):
            raise SurfaceError("coordinate is not a non-negative integer")
        if sum(1 for c in surface.quads[t] if c) > 1:
            raise SurfaceError(
                f"two quad types in tetrahedron {t}: not embeddable")
    for fc in tri.face_classes:
        (t, f), (t2, f2) = fc.sides
        perm = tri.gluings[t][f][1]
        for v in range(4):
            if v != f and (surface.arcs(t, f, v)
                           != surface.arcs(t2, f2, perm[v])):
                raise SurfaceError(
                    f"matching equation fails across face class {fc.index}")
    return surface


def canonical_surface(tri, phi):
    """The normal surface dual to a nonzero colouring: a quadrilateral
    dual to the even opposite pair in each quad-type tetrahedron, a
    triangle at the odd apex in each triangle-type tetrahedron."""
    if phi.is_zero():
        raise SurfaceError("the zero colouring has no canonical surface")
    return _surface_of_types(tri, _rank1_types(tri._edge_slots[0], phi.mask))


def _surface_of_types(tri, types):
    """The canonical surface of a colouring whose rank-1 type on
    tetrahedron t is ``types[t]``."""
    triangles = [[0, 0, 0, 0] for _ in range(tri.n)]
    quads = [[0, 0, 0] for _ in range(tri.n)]
    for t, (kind, data) in enumerate(types):
        if kind == "q":
            (a, b), _ = data
            quads[t][quad_type_of_pair(a, b) - 1] = 1
        elif kind == "t":
            triangles[t][data] = 1
    return NormalSurface(
        tri=tri,
        triangles=tuple(tuple(r) for r in triangles),
        quads=tuple(tuple(r) for r in quads))


def vertex_link_surface(tri, vertex_index=0):
    """The vertex-linking surface: one triangle per corner of the class.
    Raises ``SurfaceError`` unless ``vertex_index`` is an ``int`` (not a
    ``bool``) that numbers a class."""
    if (type(vertex_index) is not int
            or vertex_index not in range(len(tri.vertex_classes))):
        raise SurfaceError(f"no vertex class {vertex_index}")
    triangles = [[0, 0, 0, 0] for _ in range(tri.n)]
    for (t, v) in tri.vertex_classes[vertex_index].corners:
        triangles[t][v] = 1
    return NormalSurface(
        tri=tri,
        triangles=tuple(tuple(r) for r in triangles),
        quads=tuple((0, 0, 0) for _ in range(tri.n)))


def euler_characteristic(surface):
    """chi from the induced cells: edge points - arcs + discs.

    Each quad type meets every face of its tetrahedron in one arc, and
    each triangle meets every face but the one opposite its vertex; so
    face f of tetrahedron t carries sum(triangles[t]) - triangles[t][f]
    + sum(quads[t]) arcs, for every normal surface."""
    chi, classes = surface.disc_count, 0
    for slot, k in enumerate(surface.tri._edge_slots[0]):
        if k == classes:    # class k's first slot; classes go in slot order
            classes += 1
            a, b, q = _SLOT_CORNERS[slot % 6]
            row, quad = surface.triangles[slot // 6], surface.quads[slot // 6]
            chi += row[a] + row[b] + sum(quad) - quad[q]
    for fc in surface.tri.face_classes:
        t, f = fc.sides[0]
        chi -= (sum(surface.triangles[t]) - surface.triangles[t][f]
                + sum(surface.quads[t]))
    return chi


# ---------------------------------------------------------------------------
# components and orientability

def _disc_sheets(surface):
    sheets = []
    for t in range(surface.tri.n):
        for v in range(4):
            for k in range(surface.triangles[t][v]):
                sheets.append(("tri", t, v, k))
        for i in (1, 2, 3):
            for k in range(surface.quads[t][i - 1]):
                sheets.append(("quad", t, i, k))
    return sheets


def _arc_stack(surface, t, f, v):
    """Disc sheets whose arcs cut corner v in face f, nearest first.

    Parallel copies of a disc are layered along a fixed transverse
    direction: triangle copy 0 sits nearest its vertex, quad copy 0
    nearest the {0, q} side of its partition.  The stack near a corner
    reverses when the corner lies on the far side.
    """
    stack = [("tri", t, v, k) for k in range(surface.triangles[t][v])]
    q = quad_type_of_pair(f, v)
    copies = range(surface.quads[t][q - 1])
    if f != 0 and v != 0:
        # {f, v} is the partition part away from vertex 0: far side first
        copies = reversed(copies)
    stack.extend(("quad", t, q, k) for k in copies)
    return stack


class SurfaceComponent(NamedTuple):
    euler: int
    orientable: bool
    discs: int

    @property
    def is_sphere(self):
        return self.euler == 2


class SurfaceComponents(NamedTuple):
    surface: object
    components: tuple

    @property
    def total_euler(self):
        return sum(c.euler for c in self.components)

    def chi_minus(self):
        return sum(max(0, -c.euler) for c in self.components)

    def has_sphere(self):
        return any(c.is_sphere for c in self.components)


def components(surface):
    """Connected components with Euler characteristic and orientability,
    in the order of their least disc sheet.

    The components are the signed orbits of the disc sheets under the
    matched arcs.  A sheet's sign orients its disc the way a tetrahedron
    is oriented, by its vertex order, with the normal towards the vertex
    of a triangle or the pair {0, i} of quad type i.  Across an arc
    cutting corner v of a face glued by ``perm``, the two tetrahedra's
    orientations disagree exactly when ``perm`` is even, and the two
    normals disagree exactly when one points towards the shared corner
    and the other away; the sign flips when one of the two disagrees.  A
    component is orientable exactly when its signs are consistent.

    The sheets are linked arc by arc in ``triangulation._union_find``.
    A component is itself a normal surface: its sheets name its discs,
    and ``euler_characteristic`` reads its chi.
    """
    tri = surface.tri
    sheets = _disc_sheets(surface)
    index = {s: i for i, s in enumerate(sheets)}
    _, _, _, find, link = _union_find(len(sheets))
    twisted = []    # the root of each arc that contradicts the signs
    for fc in tri.face_classes:
        (t, f), (t2, f2) = fc.sides
        perm = tri.gluings[t][f][1]
        even = sign(perm) == 1
        for v in range(4):
            if v == f:
                continue
            side_a = _arc_stack(surface, t, f, v)
            side_b = _arc_stack(surface, t2, f2, perm[v])
            if len(side_a) != len(side_b):
                raise SurfaceError("arc stacks mismatch across a gluing")
            for sa, sb in zip(side_a, side_b):
                # The normal points towards the corner: a triangle in the
                # stack is at the corner, and quad i when it is in {0, i}.
                flip = even != ((v in (0, sa[2])) != (perm[v] in (0, sb[2])))
                (a, fa), (b, fb) = find(index[sa]), find(index[sb])
                if a != b:
                    link(a, b, fa ^ fb ^ flip)
                elif fa ^ fb != flip:
                    twisted.append(a)
    twisted = {find(x)[0] for x in twisted}
    parts = {}      # root -> disc counts, in the order of least sheets
    for i, (kind, t, label, _) in enumerate(sheets):
        root = find(i)[0]
        if root not in parts:
            parts[root] = ([[0] * 4 for _ in range(tri.n)],
                           [[0] * 3 for _ in range(tri.n)])
        triangles, quads = parts[root]
        if kind == "tri":
            triangles[t][label] += 1
        else:
            quads[t][label - 1] += 1
    comps = []
    for root, (triangles, quads) in parts.items():
        part = NormalSurface(tri=tri, triangles=tuple(map(tuple, triangles)),
                             quads=tuple(map(tuple, quads)))
        comps.append(SurfaceComponent(euler=euler_characteristic(part),
                                      orientable=root not in twisted,
                                      discs=part.disc_count))
    return SurfaceComponents(surface=surface, components=tuple(comps))


def chi_minus(surface):
    """Sum of max(0, -chi) over components; an upper bound for the norm
    of the class the surface represents."""
    comps = components(surface)
    return comps.chi_minus()
