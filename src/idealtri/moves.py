"""Bistellar moves: 2-3, 3-2 and 4-4, with applicability predicates.

A 2-3 move replaces the two distinct tetrahedra around a face by three
around a fresh edge; a 3-2 move is its inverse at an edge of degree
three incident with three distinct tetrahedra; a 4-4 move replaces the
four distinct tetrahedra around a degree-four edge by four around the
other diagonal of the equatorial square (two axis choices).

Each move retriangulates a ball and keeps its boundary.  Small integer
points name the vertices of the ball; the move lists the points at the
vertices of each cluster tetrahedron it removes and of each fresh
tetrahedron it adds, and ``_retriangulate`` does the rest by one rule:
faces match by their three points.  Two fresh faces on the same points
are glued to each other, and a fresh face on the points of a cluster
face inherits whatever was glued to that face.

All moves preserve the vertex classes and their links up to
isomorphism; edge degrees are not protected, so callers re-run the
anatomy checks afterwards.

``_ball`` gives a move's points, and ``image_degrees`` reads the edge
degrees of its image off them without building it: the edges of the
ball are pairs of points.  A pair on a cluster edge stays in that
edge's class, and its degree moves by the fresh tetrahedra on the pair
less the cluster ones; a pair only fresh tetrahedra have is a new
interior edge.  The bounded move search keys its last level by these
degrees.
"""

from __future__ import annotations

from typing import NamedTuple

from .perms import compose, inverse
from .triangulation import _PAIRS, InvalidEdge, _from_table


class MoveError(ValueError):
    """The requested move is not applicable."""


class MoveSite(NamedTuple):
    kind: str            # "2-3" | "3-2" | "4-4"
    index: int           # face class (2-3) or edge class (3-2, 4-4)
    axis: int = 0        # diagonal choice for 4-4; 0 for the others
    tets: tuple = ()     # evidence: the distinct tetrahedra involved


def enumerate_moves(tri):
    """All applicable move sites, with both 4-4 axis choices listed."""
    sites = []
    for fc in tri.face_classes:
        if fc.boundary:
            continue
        (t1, _), (t2, _) = fc.sides
        if t1 != t2:
            sites.append(MoveSite("2-3", fc.index, 0, (t1, t2)))
    for e in tri.edge_classes:
        if e.boundary:
            continue
        tets = tuple(sorted({t for t, _, _ in e.occurrences}))
        if e.degree == 3 and len(tets) == 3:
            sites.append(MoveSite("3-2", e.index, 0, tets))
        if e.degree == 4 and len(tets) == 4:
            sites.append(MoveSite("4-4", e.index, 0, tets))
            sites.append(MoveSite("4-4", e.index, 1, tets))
    return sites


def apply_move(tri, site):
    """Perform the move, returning a new triangulation.

    New tetrahedra take the highest indices; for a 2-3 move the fresh
    edge is edge {0,1} of each new tetrahedron.  A complex with an edge
    identified with itself in reverse is not a triangulation, so no
    move of any kind applies to it.
    """
    return _retriangulate(tri, *_ball(tri, site))


def image_degrees(tri, site, degrees):
    """The sorted edge degrees of ``apply_move(tri, site)``, read off
    the move's ball as the module docstring says; ``degrees[c]`` is the
    degree of edge class c of ``tri``.  The old interior edge of a 3-2
    or 4-4 move drops to degree 0 and is left out."""
    old, new = _ball(tri, site)
    orbit = tri._edge_slots[0]
    degrees = list(degrees)
    classes = {}
    for t, points in old.items():
        for k, (a, b) in enumerate(_PAIRS):
            c = orbit[6 * t + k]
            degrees[c] -= 1
            classes[1 << points[a] | 1 << points[b]] = c
    fresh = {}
    for points in new:
        for a, b in _PAIRS:
            pair = 1 << points[a] | 1 << points[b]
            c = classes.get(pair)
            if c is None:
                fresh[pair] = fresh.get(pair, 0) + 1
            else:
                degrees[c] += 1
    return tuple(sorted([d for d in degrees if d] + list(fresh.values())))


def _ball(tri, site):
    """The ball a move retriangulates, as ``(old, new)`` for
    ``_retriangulate``: the points of each cluster tetrahedron it
    removes and of each fresh one it adds."""
    try:
        edges = tri.edge_classes
    except InvalidEdge as exc:
        raise MoveError(f"no move on an invalid complex: {exc}") from exc
    if site.kind == "2-3":
        classes = tri.face_classes
    elif site.kind in ("3-2", "4-4"):
        classes = edges
    else:
        raise MoveError(f"unknown move kind {site.kind!r}")
    if type(site.index) is not int or not 0 <= site.index < len(classes):
        raise MoveError(
            f"{site.kind} move index {site.index!r} is not in "
            f"range(0, {len(classes)})")
    if type(site.axis) is not int:
        raise MoveError(f"axis choice must be an int, not {site.axis!r}")
    if site.axis != 0 and site.kind != "4-4":
        raise MoveError(f"a {site.kind} move takes axis 0, not {site.axis}")
    if site.kind == "2-3":
        return _two_three(tri, site.index)
    if site.kind == "3-2":
        return _three_two(tri, site.index)
    return _four_four(tri, site.index, site.axis)


# ---------------------------------------------------------------------------
# the one surgery: retriangulate a ball, keeping its boundary

def _face_masks(points):
    """Bitmask of the points on each face of a tetrahedron."""
    bits = [1 << p for p in points]
    full = sum(bits)
    return [full - b for b in bits]


def _match(src, f, dst, g):
    """The gluing of face ``f`` of ``src`` onto face ``g`` of ``dst``,
    two tetrahedra given by their points: vertices on the face go to
    the vertex with the same point, the apex to the apex."""
    return tuple([g if v == f else dst.index(p) for v, p in enumerate(src)])


def _retriangulate(tri, old, new):
    """Swap the cluster tetrahedra of ``old`` for those of ``new``.

    ``old[t][v]`` is the point at vertex v of cluster tetrahedron t;
    ``new[k][v]`` is the point at vertex v of fresh tetrahedron k, which
    takes index ``tri.n - len(old) + k``.  Kept tetrahedra keep their
    order.  Faces match by the bitmask of their points, as the module
    docstring says.  The result is valid by construction, so its table
    is adopted as is.
    """
    keep = [t for t in range(tri.n) if t not in old]
    index = {t: i for i, t in enumerate(keep)}
    base = len(keep)
    rows = [[None] * 4 for _ in range(base + len(new))]
    for i, t in enumerate(keep):
        for f, g in enumerate(tri.gluings[t]):
            if g is not None and g[0] in index:
                rows[i][f] = (index[g[0]], g[1])
    fresh = {}
    for k, points in enumerate(new):
        for f, mask in enumerate(_face_masks(points)):
            if mask in fresh:
                k2, f2 = fresh[mask]
                perm = _match(points, f, new[k2], f2)
                rows[base + k][f] = (base + k2, perm)
                rows[base + k2][f2] = (base + k, inverse(perm))
            else:
                fresh[mask] = (k, f)
    # each cluster face on the boundary of the ball: the fresh face on
    # its points, and the map from that face's labels to the cluster's
    carried = {}
    for t, points in old.items():
        for g, mask in enumerate(_face_masks(points)):
            if mask in fresh:
                k, f = fresh[mask]
                carried[t, g] = (base + k, f, _match(new[k], f, points, g))
    for (t, g), (k, f, omega) in carried.items():
        glued = tri.gluings[t][g]
        if glued is None:
            continue
        t2, perm = glued
        if t2 in old:
            k2, _, omega2 = carried[t2, perm[g]]
            rows[k][f] = (k2, compose(inverse(omega2), compose(perm, omega)))
        else:
            perm = compose(perm, omega)
            rows[k][f] = (index[t2], perm)
            rows[index[t2]][perm[f]] = (k, inverse(perm))
    return _from_table(rows)


# ---------------------------------------------------------------------------
# 2-3

def _two_three(tri, face_class):
    fc = tri.face_classes[face_class]
    if fc.boundary:
        raise MoveError("2-3 move needs an interior face")
    (ta, fa), (tb, _) = fc.sides
    if ta == tb:
        raise MoveError("2-3 move needs two distinct tetrahedra")
    # ta's labels are its points and tb's apex is point 4.  Fresh
    # tetrahedron i omits face vertex verts[i]: its vertices are the
    # apex of ta, the apex of tb, then the other two face vertices.
    pi = tri.gluings[ta][fa][1]
    verts = [v for v in range(4) if v != fa]
    b_points = [4] * 4
    for x in verts:
        b_points[pi[x]] = x
    new = [(fa, 4, *(v for v in verts if v != x)) for x in verts]
    return {ta: (0, 1, 2, 3), tb: tuple(b_points)}, new


# ---------------------------------------------------------------------------
# the cycle of wedges around an edge

def _edge_cycle(tri, edge_class):
    """Wedges (t, u, v, p, q) around the edge in cyclic order: the edge
    runs u -> v, the wedge is entered across the face opposite q and
    left across the face opposite p; q of one wedge meets p of the next.
    The callers have checked that the edge's degree is its number of
    distinct tetrahedra, so its wedges close up after ``e.degree`` of
    them unless they meet a free face."""
    e = tri.edge_classes[edge_class]
    t0, (a0, b0), s0 = e.occurrences[0]
    u0, v0 = (a0, b0) if s0 == 1 else (b0, a0)
    rest = sorted(x for x in range(4) if x not in (a0, b0))
    q0, p0 = rest
    cycle = []
    t, u, v, p, q = t0, u0, v0, p0, q0
    for _ in range(e.degree):
        cycle.append((t, u, v, p, q))
        g = tri.gluings[t][p]
        if g is None:
            raise MoveError("edge cycle crosses a boundary face")
        t2, perm = g
        t, u, v, p, q = t2, perm[u], perm[v], perm[q], perm[p]
    return cycle


def _wedge_points(tri, edge_class):
    """Points of the wedges around an edge: the poles u and v are 4 and
    5, and equator point j sits between wedges j and j+1, so it is q of
    wedge j and p of wedge j+1."""
    cycle = _edge_cycle(tri, edge_class)
    old = {}
    for j, (t, u, v, p, q) in enumerate(cycle):
        points = [None] * 4
        points[u], points[v], points[p], points[q] = 4, 5, (j - 1) % len(cycle), j
        old[t] = tuple(points)
    return old


# ---------------------------------------------------------------------------
# 3-2 and 4-4

def _three_two(tri, edge_class):
    e = tri.edge_classes[edge_class]
    if e.degree != 3 or len({t for t, _, _ in e.occurrences}) != 3:
        raise MoveError(
            "3-2 move needs a degree-three edge in three distinct tetrahedra")
    # top (apex u) and bottom (apex v); label 1+j carries equator point j
    old = _wedge_points(tri, edge_class)
    return old, [(4, 0, 1, 2), (5, 0, 1, 2)]


def _four_four(tri, edge_class, axis):
    e = tri.edge_classes[edge_class]
    if e.degree != 4 or len({t for t, _, _ in e.occurrences}) != 4:
        raise MoveError(
            "4-4 move needs a degree-four edge in four distinct tetrahedra")
    if axis not in (0, 1):
        raise MoveError("axis choice must be 0 or 1")
    old = _wedge_points(tri, edge_class)
    # the new axis joins equator points a1, a2; labels are (pole, a1,
    # off-axis point, a2), the two u-tetrahedra first
    a1, o1, a2, o2 = ((axis + i) % 4 for i in range(4))
    return old, [(4, a1, o1, a2), (4, a1, o2, a2),
                 (5, a1, o1, a2), (5, a1, o2, a2)]
