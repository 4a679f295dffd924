"""Bistellar moves: 2-3, 3-2 and 4-4, with applicability predicates.

A 2-3 move replaces the two distinct tetrahedra around a face by three
around a fresh edge; a 3-2 move is its inverse at an edge of degree
three incident with three distinct tetrahedra; a 4-4 move replaces the
four distinct tetrahedra around a degree-four edge by four around the
other diagonal of the equatorial square (two axis choices).

All moves preserve the vertex classes and their links up to
isomorphism; edge degrees are not protected, so callers re-run the
anatomy checks afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

from .perms import compose, inverse
from .triangulation import _from_table


class MoveError(ValueError):
    """The requested move is not applicable."""


@dataclass(frozen=True)
class MoveSite:
    kind: str            # "2-3" | "3-2" | "4-4"
    index: int           # face class (2-3) or edge class (3-2, 4-4)
    axis: int = 0        # diagonal choice for 4-4
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
    edge is edge {0,1} of each new tetrahedron.
    """
    if site.kind == "2-3":
        return _two_three(tri, site.index)
    if site.kind == "3-2":
        return _three_two(tri, site.index)
    if site.kind == "4-4":
        return _four_four(tri, site.index, site.axis)
    raise MoveError(f"unknown move kind {site.kind!r}")


# ---------------------------------------------------------------------------
# shared cluster surgery

def _replace_cluster(tri, cluster, new_count, internal, interface):
    """Swap the tetrahedra in ``cluster`` for ``new_count`` fresh ones.

    ``internal``: gluings among new tetrahedra, in local indices, each
    listed from one side.
    ``interface``: for each boundary face (t, f) of the cluster, a pair
    (local new tetrahedron, omega) with omega mapping the new labels to
    the labels of t; the face inherits whatever was glued to (t, f).
    The result is valid by construction, so its table is adopted as is.
    """
    keep = [t for t in range(tri.n) if t not in cluster]
    new_index = {t: i for i, t in enumerate(keep)}
    base = len(keep)
    rows = [[None] * 4 for _ in range(base + new_count)]
    for t in keep:
        for f in range(4):
            g = tri.gluings[t][f]
            if g is None:
                continue
            t2, perm = g
            if t2 in cluster:
                local, omega = interface[(t2, perm[f])]
                rows[new_index[t]][f] = (
                    base + local, compose(inverse(omega), perm))
            else:
                rows[new_index[t]][f] = (new_index[t2], perm)
    for (ni, f), (nj, perm) in internal.items():
        rows[base + ni][f] = (base + nj, perm)
        rows[base + nj][perm[f]] = (base + ni, inverse(perm))
    for (t, g), (local, omega) in interface.items():
        old = tri.gluings[t][g]
        if old is None:
            continue
        t2, perm = old
        new_face = inverse(omega)[g]
        if t2 in cluster:
            local2, omega2 = interface[(t2, perm[g])]
            rows[base + local][new_face] = (
                base + local2, compose(inverse(omega2), compose(perm, omega)))
        else:
            rows[base + local][new_face] = (
                new_index[t2], compose(perm, omega))
    return _from_table(rows)


# ---------------------------------------------------------------------------
# 2-3

def _two_three(tri, face_class):
    fc = tri.face_classes[face_class]
    if fc.boundary:
        raise MoveError("2-3 move needs an interior face")
    (ta, fa), (tb, fb) = fc.sides
    if ta == tb:
        raise MoveError("2-3 move needs two distinct tetrahedra")
    pi = tri.gluings[ta][fa][1]
    verts = [v for v in range(4) if v != fa]   # face vertices in ta

    # New tetrahedron i corresponds to omitted face vertex verts[i]; its
    # vertices are 0 = apex of ta, 1 = apex of tb, 2 and 3 the other two
    # face vertices in increasing ta-label order.
    others = {i: sorted(set(verts) - {verts[i]}) for i in range(3)}

    def pos(i, v):
        # position of ta-face-vertex v in new tetrahedron i
        return 2 + others[i].index(v)

    internal = {}
    for i in range(3):
        for j in range(i + 1, 3):
            # shared face: the apexes and the vertex omitted by neither
            w = next(v for v in verts if v not in (verts[i], verts[j]))
            perm = [None] * 4
            perm[0], perm[1] = 0, 1
            perm[pos(i, w)] = pos(j, w)
            perm[pos(i, verts[j])] = pos(j, verts[i])
            internal[(i, pos(i, verts[j]))] = (j, tuple(perm))

    interface = {}
    for i in range(3):
        x = verts[i]
        y, z = others[i]
        omega_a = [None] * 4
        omega_a[0], omega_a[1] = fa, x
        omega_a[2], omega_a[3] = y, z
        interface[(ta, x)] = (i, tuple(omega_a))
        omega_b = [None] * 4
        omega_b[1], omega_b[0] = fb, pi[x]
        omega_b[2], omega_b[3] = pi[y], pi[z]
        interface[(tb, pi[x])] = (i, tuple(omega_b))

    return _replace_cluster(tri, {ta, tb}, 3, internal, interface)


# ---------------------------------------------------------------------------
# the cycle of wedges around an edge

def _edge_cycle(tri, edge_class):
    """Wedges (t, u, v, p, q) around the edge in cyclic order: the edge
    runs u -> v, the wedge is entered across the face opposite q and
    left across the face opposite p; q of one wedge meets p of the next."""
    e = tri.edge_classes[edge_class]
    t0, (a0, b0), s0 = e.occurrences[0]
    u0, v0 = (a0, b0) if s0 == 1 else (b0, a0)
    rest = sorted(x for x in range(4) if x not in (a0, b0))
    q0, p0 = rest
    cycle = []
    t, u, v, p, q = t0, u0, v0, p0, q0
    while True:
        cycle.append((t, u, v, p, q))
        g = tri.gluings[t][p]
        if g is None:
            raise MoveError("edge cycle crosses a boundary face")
        t2, perm = g
        t, u, v, p, q = t2, perm[u], perm[v], perm[q], perm[p]
        if (t, u, v, p, q) == cycle[0]:
            break
        if len(cycle) > e.degree:
            raise MoveError("edge cycle does not close up")
    if len(cycle) != e.degree:
        raise MoveError("edge cycle misses occurrences")
    return cycle


# ---------------------------------------------------------------------------
# 3-2

def _three_two(tri, edge_class):
    e = tri.edge_classes[edge_class]
    tets = {t for t, _, _ in e.occurrences}
    if e.degree != 3 or len(tets) != 3:
        raise MoveError(
            "3-2 move needs a degree-three edge in three distinct tetrahedra")
    cycle = _edge_cycle(tri, edge_class)
    d = 3

    # Equator point j sits between wedges j and j+1: it is q of wedge j
    # and p of wedge j+1.  New tetrahedra: 0 = top (apex u), 1 = bottom
    # (apex v); labels 1+j carry equator point j.
    internal = {(0, 0): (1, (0, 1, 2, 3))}
    interface = {}
    for i, (t, u, v, p, q) in enumerate(cycle):
        point_p = (i - 1) % d      # p of this wedge is equator point i-1
        point_q = i
        omitted = (i + 1) % d
        omega_top = [None] * 4
        omega_top[0] = u
        omega_top[1 + point_p] = p
        omega_top[1 + point_q] = q
        omega_top[1 + omitted] = v
        interface[(t, v)] = (0, tuple(omega_top))
        omega_bot = [None] * 4
        omega_bot[0] = v
        omega_bot[1 + point_p] = p
        omega_bot[1 + point_q] = q
        omega_bot[1 + omitted] = u
        interface[(t, u)] = (1, tuple(omega_bot))
    return _replace_cluster(tri, tets, 2, internal, interface)


# ---------------------------------------------------------------------------
# 4-4

def _four_four(tri, edge_class, axis):
    e = tri.edge_classes[edge_class]
    tets = {t for t, _, _ in e.occurrences}
    if e.degree != 4 or len(tets) != 4:
        raise MoveError(
            "4-4 move needs a degree-four edge in four distinct tetrahedra")
    if axis not in (0, 1):
        raise MoveError("axis choice must be 0 or 1")
    cycle = _edge_cycle(tri, edge_class)

    a1, a2 = axis, axis + 2            # axis equator points
    o1, o2 = (axis + 1) % 4, (axis + 3) % 4

    # New tetrahedra: 0 = {u,a1,o1,a2}, 1 = {u,a1,o2,a2},
    #                 2 = {v,a1,o1,a2}, 3 = {v,a1,o2,a2};
    # labels: 0 = pole, 1 = a1, 2 = off-axis point, 3 = a2.
    internal = {
        (0, 2): (1, (0, 1, 2, 3)),     # {u,a1,a2} between the two u-tets
        (2, 2): (3, (0, 1, 2, 3)),
        (0, 0): (2, (0, 1, 2, 3)),     # {a1,o1,a2} between u and v sides
        (1, 0): (3, (0, 1, 2, 3)),
    }

    def local_pos(point, off):
        if point == a1:
            return 1
        if point == a2:
            return 3
        if point == off:
            return 2
        return None

    interface = {}
    for i, (t, u, v, p, q) in enumerate(cycle):
        point_p = (i - 1) % 4
        point_q = i
        off = point_p if point_p in (o1, o2) else point_q
        local_u = 0 if off == o1 else 1
        local_v = 2 if off == o1 else 3
        other_axis = a2 if (point_p == a1 or point_q == a1) else a1
        omega_top = [None] * 4
        omega_top[0] = u
        omega_top[local_pos(point_p, off)] = p
        omega_top[local_pos(point_q, off)] = q
        omega_top[local_pos(other_axis, off)] = v
        interface[(t, v)] = (local_u, tuple(omega_top))
        omega_bot = [None] * 4
        omega_bot[0] = v
        omega_bot[local_pos(point_p, off)] = p
        omega_bot[local_pos(point_q, off)] = q
        omega_bot[local_pos(other_axis, off)] = u
        interface[(t, u)] = (local_v, tuple(omega_bot))
    return _replace_cluster(tri, tets, 4, internal, interface)
