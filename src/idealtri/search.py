"""Exhaustive enumeration at desk scale, and bounded move-graph search.

The enumerator walks every face pairing of a handful of tetrahedra
(optionally leaving a fixed number of faces unglued), filters by a
predicate and deduplicates by canonical signature, so the result is
complete up to isomorphism.  The walk is its own validator (after
Burton, "Enumeration of non-orientable 3-manifolds using face-pairing
graphs and union-find", 2007): an undoable signed union-find over edge
slots and tetrahedra cuts every partial gluing that reverses an edge,
and tells which leaves are connected; those are adopted unchecked.
When only orientable complexes are asked for, two faces of tetrahedra
already joined are glued only by the 3 of the 6 permutations that keep
the orientation.
For ``closed_admissible`` and ``torus_links_only`` the same union-find
counts the edge classes, and cuts a partial gluing as soon as they rule
out a torus link at every vertex, or an edge of degree below 3.
Every cut is an isomorphism invariant and every table is visited once,
so the first leaf reached of each isomorphism class marks all its
relabellings, and only it is asked the predicate and encoded (the
isomorph rejection of McKay, "Isomorph-free exhaustive generation",
1998).

The bounded move search rejects isomorphs at its last level by the
same pattern, an invariant before the certificate.  The classes of that
level are never expanded, so each is keyed by its sorted edge degrees,
read off the move's ball by ``moves.image_degrees``, and only an image
whose key collides with a class already reached is built and encoded;
one with a new key is a new class and stays a ``(signature, site)``
pair, encoded only if it is reported as smaller and admissible or the
caller iterates over ``reachable``.  The levels before it build and
encode every image, since their classes are expanded from their
signatures.  This pays at depth 1, where the whole search is the last
level; in deeper searches most last-level images meet a key already
reached.

Each class the search expands is encoded with its automorphism group,
and only the first move site of each orbit is tried: the others give
isomorphic images (McKay, "Practical graph isomorphism", 1981).
"""

from __future__ import annotations

from collections.abc import Set
from itertools import permutations, product
from typing import NamedTuple

from . import moves
from .isosig import decode, encode_canonical, encode_with_automorphisms
from .perms import S4, inverse
from .triangulation import (
    _EDGE_MOVES, _SLOT, _TET_MOVES, _from_table, _relabel_rows,
    _union_find, boundary_surface,
)

# _PERMS_TAKING[f1][f2]: the permutations taking face f1 to face f2.
_PERMS_TAKING = tuple(tuple(tuple(p for p in S4 if p[f1] == f2)
                            for f2 in range(4)) for f1 in range(4))
# _PERMS_BY_FLIP[f1][f2][flip]: those of them whose gluing of face f1
# flips the tetrahedron sign by ``flip``, the flip of ``_TET_MOVES``.
_PERMS_BY_FLIP = tuple(tuple(tuple(
    tuple(p for p in perms if _TET_MOVES[p][f1][0][2] == flip)
    for flip in (False, True)) for perms in row)
    for f1, row in enumerate(_PERMS_TAKING))


def enumerate_complexes(n, predicate=None, boundary_faces=0,
                        orientable=False):
    """All connected complexes on n tetrahedra, up to isomorphism.

    ``boundary_faces`` fixes the number of unglued faces (0 gives closed
    pseudo-manifolds; None allows any number).  Invalid gluings (reversed
    edges, disconnected results) are skipped; ``predicate`` filters the
    valid ones.  With ``orientable`` true only orientable complexes are
    kept.  Returns a dict mapping the canonical signature to one
    representative, in the order first visited.

    The walk pairs faces one gluing at a time, writing both sides into
    one table, and keeps a ``triangulation._union_find`` over edge
    slots ``6t + k`` and tetrahedra ``6n + t``, merged by the moves of
    ``triangulation._EDGE_MOVES`` and ``_TET_MOVES``, every item signed.
    A reversed edge cuts the whole subtree.  ``orientable`` picks the
    permutations: when the two faces' tetrahedra already share a root,
    with signs s1 and s2, only the 3 perms of ``_PERMS_BY_FLIP`` whose
    ``_TET_MOVES`` flip is s1 ^ s2 keep the orientation, and the
    orientable walk tries only those; otherwise all 6 perms of
    ``_PERMS_TAKING`` are tried.  ``glue`` makes the edge moves, and
    the tetrahedra are linked once it accepts a gluing.  A leaf is
    connected when tetrahedron 0's root holds all n tetrahedra, and is
    then adopted through ``triangulation._from_table``.  The visit order
    is that of the unpruned walk, so the result is the unpruned walk's.

    Each edge move pairs one unglued face side of each slot, and a
    class's unglued sides are the two ends of a chain of face sides, so
    every edge root has 2 of them until a move pairs two sides within
    it: the class is then closed, for good, and its size is its degree.
    The walk counts the closed classes and the edge roots on its path.

    ``closed_admissible`` and ``torus_links_only`` reject every complex
    that is not closed and orientable, so they force ``orientable``.  A
    closed orientable complex has χ = V - E + n = Σ_v (1 - χ(link v)/2),
    so its links are all tori only when E = n.  Both walks therefore cut
    a gluing that closes more than n classes or leaves fewer than n edge
    roots, and ``closed_admissible`` also one that closes a class of
    degree below 3; each cut is exact, since roots only merge and a
    closed class never changes.  A leaf has no free face exactly when
    all its classes have closed; the other leaves of these walks are
    cut.

    A leaf that survives the cuts is keyed by its table.  The walk
    reaches every table once, and its cuts are isomorphism invariants,
    so the leaves of one class are exactly the n!·24ⁿ relabellings of
    any one of them.  The first reached is the one kept: it marks all
    its relabellings (``triangulation._relabel_rows``) and alone runs
    ``predicate`` and ``encode_canonical``; each later leaf of its class
    finds its mark, takes it out and is skipped.  So the result is the
    unpruned walk's, the marks drain by the end of the walk, and they
    hold at most n!·24ⁿ tables per class met.
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"need an int count of tetrahedra, at least 1: {n!r}")
    if n > 2:
        raise ValueError("exhaustive enumeration is desk-scale: n <= 2")
    if boundary_faces is not None and (type(boundary_faces) is not int
                                       or not 0 <= boundary_faces <= 4 * n):
        raise ValueError(f"boundary_faces must be None or in "
                         f"range(0, {4 * n + 1}), not {boundary_faces!r}")
    faces = [(t, f) for t in range(n) for f in range(4)]
    results = {}
    # Both sides of every gluing on the current path; each face is
    # written before any leaf below it, so nothing is undone.
    rows = [[None] * 4 for _ in range(n)]
    parent, size, attached, find, link = _union_find(7 * n)
    # Only the cut flags read the predicate's identity; every predicate
    # is asked of the adopted leaf.
    counted = predicate in (closed_admissible, torus_links_only)
    orientable = orientable or counted
    low = 3 if predicate is closed_admissible else 0

    def glue(t1, f1, t2, perm, closed, roots):
        """Merge the edge slots of one gluing made with ``closed`` edge
        classes closed and ``roots`` edge roots; their counts after it,
        or None when its subtree is cut."""
        for i, j, flip in _EDGE_MOVES[perm][f1]:
            (a, sa), (b, sb) = find(6 * t1 + i), find(6 * t2 + j)
            if a != b:
                link(a, b, sa ^ sb ^ flip)
                roots -= 1
            elif sa ^ sb != flip:       # a reversed edge
                return None
            else:                       # the class closes
                closed += 1
                if size[a] < low:
                    return None
        if counted and (closed > n or roots < n):
            return None
        return closed, roots

    # The tables the walk has still to reach of the classes it has met.
    marked = set()
    relabellings = [(tets, maps) for tets in permutations(range(n))
                    for maps in product(range(24), repeat=n)]

    def leaf(closed, roots):
        if size[find(6 * n)[0]] != n:
            return
        if counted and closed < roots:      # a free face
            return
        key = tuple(map(tuple, rows))
        if key in marked:
            marked.remove(key)
            return
        marked.update(_relabel_rows(key, *r) for r in relabellings)
        marked.remove(key)
        tri = _from_table(rows)
        if predicate is None or predicate(tri):
            results[encode_canonical(tri)] = tri

    def recurse(unmatched, free_left, closed, roots):
        if not unmatched:
            if free_left is None or free_left == 0:
                leaf(closed, roots)
            return
        (t1, f1), rest = unmatched[0], unmatched[1:]
        if free_left is None or free_left > 0:
            next_free = None if free_left is None else free_left - 1
            rows[t1][f1] = None
            recurse(rest, next_free, closed, roots)
        r1, s1 = find(6 * n + t1)
        for i, (t2, f2) in enumerate(rest):
            remaining = rest[:i] + rest[i + 1:]
            r2, s2 = find(6 * n + t2)
            if r1 == r2 and orientable:
                perms = _PERMS_BY_FLIP[f1][f2][s1 ^ s2]
            else:
                perms = _PERMS_TAKING[f1][f2]
            for perm in perms:
                mark = len(attached)
                counts = glue(t1, f1, t2, perm, closed, roots)
                if counts is not None:
                    if r1 != r2:    # for connectivity, and the signs
                        ((_, _, flip),) = _TET_MOVES[perm][f1]
                        link(r1, r2, s1 ^ s2 ^ flip)
                    rows[t1][f1] = (t2, perm)
                    rows[t2][f2] = (t1, inverse(perm))
                    recurse(remaining, free_left, *counts)
                while len(attached) > mark:
                    b = attached.pop()
                    size[parent[b]] -= size[b]
                    parent[b] = b

    recurse(faces, boundary_faces, 0, 6 * n)
    return results


# -- predicates used by the command line and the test suites --------------

def has_interior_degree3_and_torus_boundary(tri):
    """An interior edge of degree three, and exactly two boundary faces
    forming a one-vertex torus: the context in which a degree-three
    edge forces a layered solid torus."""
    free = sum(1 for t in range(tri.n) for f in range(4)
               if tri.gluings[t][f] is None)
    if free != 2:
        return False
    if not any(e.degree == 3 and not e.boundary for e in tri.edge_classes):
        return False
    bs = boundary_surface(tri)
    return (bs["triangles"] == 2 and bs["vertices"] == 1
            and bs["euler"] == 0)


def closed_admissible(tri):
    """Closed, orientable, one vertex with torus link, no low-degree
    edges: the combinatorial shadow of the census filters."""
    return (torus_links_only(tri) and len(tri.vertex_classes) == 1
            and min(e.degree for e in tri.edge_classes) >= 3)


def torus_links_only(tri):
    return (tri.is_closed and tri.is_orientable
            and all(v.is_torus_link for v in tri.vertex_classes))


PREDICATES = {
    "degree3-lst-context": has_interior_degree3_and_torus_boundary,
    "closed-admissible": closed_admissible,
    "torus-links": torus_links_only,
    "all": None,
}


# -- bounded breadth-first search over the move graph ----------------------

class _Reachable(Set):
    """The signatures a search reached.  Those it encoded are a set;
    each last-level class it did not encode, whose key no other class
    has, is a ``(signature, site)`` pair: a frontier class and the move
    that reaches it.  Its length encodes nothing; the first iteration or
    membership test decodes each pair's frontier class once and encodes
    the image.  The set operators and frozenset's named methods
    (``union``, ...) give frozensets."""

    def __init__(self, sigs, pairs):
        self._sigs = sigs
        self._pairs = list(pairs)

    def __len__(self):
        return len(self._sigs) + len(self._pairs)

    def _encoded(self):
        decoded = {}
        while self._pairs:
            sig, site = self._pairs.pop()
            if sig not in decoded:
                decoded[sig] = decode(sig)
            image = moves.apply_move(decoded[sig], site)
            self._sigs.add(encode_canonical(image))
        return self._sigs

    def __iter__(self):
        return iter(self._encoded())

    def __contains__(self, sig):
        return sig in self._encoded()

    def __repr__(self):
        return repr(frozenset(self._encoded()))

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(frozenset(self._encoded()), name)

    @classmethod
    def _from_iterable(cls, sigs):
        return frozenset(sigs)

    __hash__ = Set._hash


class SearchResult(NamedTuple):
    start: str
    reachable: Set
    min_tetrahedra: int
    smaller_admissible: tuple    # sigs below the start size passing the filter
    depth_reached: int
    truncation_reason: str | None    # "max_nodes", "max_depth" or None

    @property
    def truncated(self):
        return self.truncation_reason is not None


def bounded_move_search(tri, max_tets, max_depth, max_nodes=200_000,
                        admissible=closed_admissible):
    """Breadth-first exploration of the move graph under a size cap.

    Reports every canonical signature reached, whether any triangulation
    with fewer tetrahedra than the start satisfies the admissibility
    filter, and which cap cut the search, if any: ``"max_nodes"`` when
    a new signature came after ``max_nodes`` were seen, ``"max_depth"``
    when the frontier was still live at ``max_depth``.

    Levels that are expanded build and encode every image.  The last
    level is never expanded, so there each class is keyed by its sorted
    edge degrees (which sum to 6n, so the key fixes the size), read off
    the move's ball by ``image_degrees``.  An image whose key no class
    reached so far has is a new class and is kept as its ``(frontier
    signature, site)`` pair, unbuilt and unencoded, unless it is smaller
    than the start and admissible, when its signature is reported.  An
    image whose key collides is built and encoded, with the pair holding
    that key, and deduplicated by signature.  The classes reached before
    are keyed as they are expanded, from the degrees their moves read
    anyway, except the last frontier: the last level may reach one of
    its classes before expanding it, so those are keyed by
    ``image_degrees`` as they are reached, one level earlier.  So every
    field is the one the fully encoding search gives, and ``reachable``
    encodes the pairs only when iterated or tested for membership; its
    length encodes nothing.

    The start and the images of the levels before the last, the classes
    that are expanded, are encoded by ``encode_with_automorphisms``; a
    group other than the identity is kept by signature until its class
    is expanded.  ``_orbit_heads`` then drops each 2-3 or 3-2 site that
    an automorphism takes to an earlier site.  Its image is isomorphic
    to that site's, so the search would have found it reached, and every
    field, ``truncation_reason`` included, is unchanged.
    """
    if not all(type(x) is int for x in (max_tets, max_depth, max_nodes)):
        raise ValueError(f"max_tets, max_depth and max_nodes must be ints, "
                         f"not {max_tets!r}, {max_depth!r}, {max_nodes!r}")
    if max_depth < 0:
        raise ValueError("search depth must be at least 0")
    start, automorphisms = encode_with_automorphisms(tri)
    # Signature -> number of tetrahedra.  Size and admissibility are
    # isomorphism invariants, so both are read off the triangulation
    # that first reaches a signature.
    seen = {start: tri.n}
    # The frontier classes with automorphisms other than the identity,
    # in the labelling of their decoded signatures.
    groups = {start: automorphisms} if len(automorphisms) > 1 else {}
    keyed = set()       # the keys of the classes in seen
    lone = {}           # key -> the last level's unencoded class with it
    smaller = []
    frontier = [start]
    reason = None
    depth = 0
    for depth in range(1, max_depth + 1):
        last = depth == max_depth
        next_frontier = []
        for sig in frontier:
            current = decode(sig)
            sites = moves.enumerate_moves(current)
            if sig in groups:
                sites = _orbit_heads(current, sites, groups.pop(sig))
            degrees = [e.degree for e in current.edge_classes]
            keyed.add(tuple(sorted(degrees)))
            for site in sites:
                if site.kind == "2-3" and current.n + 1 > max_tets:
                    continue
                if not last:
                    image = moves.apply_move(current, site)
                    new_sig, automorphisms = encode_with_automorphisms(image)
                    if new_sig in seen:
                        continue
                    if len(seen) >= max_nodes:
                        reason = "max_nodes"
                        break
                    seen[new_sig] = image.n
                    if len(automorphisms) > 1:
                        groups[new_sig] = automorphisms
                    if image.n < tri.n and admissible(image):
                        smaller.append(new_sig)
                    if depth == max_depth - 1:
                        keyed.add(moves.image_degrees(current, site, degrees))
                    next_frontier.append(new_sig)
                    continue
                key = moves.image_degrees(current, site, degrees)
                n = sum(key) // 6
                if key in lone:     # met again: encode the first one
                    first, first_site = lone.pop(key)
                    first = current if first == sig else decode(first)
                    image = moves.apply_move(first, first_site)
                    seen[encode_canonical(image)] = n
                    keyed.add(key)
                image = new_sig = None
                if key in keyed:
                    image = moves.apply_move(current, site)
                    new_sig = encode_canonical(image)
                    if new_sig in seen:
                        continue
                if len(seen) + len(lone) >= max_nodes:
                    reason = "max_nodes"
                    break
                if n < tri.n:
                    if image is None:
                        image = moves.apply_move(current, site)
                    if admissible(image):
                        if new_sig is None:
                            new_sig = encode_canonical(image)
                        smaller.append(new_sig)
                if new_sig is None:
                    lone[key] = sig, site
                else:
                    seen[new_sig] = n
                    keyed.add(key)
                next_frontier.append(new_sig)
            if reason:
                break
        if reason or not next_frontier:
            frontier = next_frontier
            break
        frontier = next_frontier
    if frontier and not reason and depth == max_depth:
        reason = "max_depth"

    return SearchResult(
        start=start,
        reachable=_Reachable(set(seen), lone.values()),
        min_tetrahedra=min([*seen.values(), *(sum(k) // 6 for k in lone)]),
        smaller_admissible=tuple(sorted(smaller)),
        depth_reached=depth,
        truncation_reason=reason)


def _orbit_heads(tri, sites, automorphisms):
    """The sites no automorphism takes to an earlier site of the same
    kind, in order.  A 2-3 site's orbit is read off the first side of
    its face class, a 3-2 site's off the first slot of its edge class;
    4-4 sites are all kept.  The identity is among ``automorphisms``, so
    a site heads its orbit when no image has a smaller index."""
    face_of = {}
    for fc in tri.face_classes:
        for t, f in fc.sides:
            face_of[4 * t + f] = fc.index
    slots = tri._edge_slots[0]
    heads = []
    for site in sites:
        if site.kind == "2-3":
            t, f = tri.face_classes[site.index].sides[0]
            images = (face_of[4 * img[t] + maps[t][f]]
                      for img, maps in automorphisms)
        elif site.kind == "3-2":
            t, (a, b), _ = tri.edge_classes[site.index].occurrences[0]
            images = (slots[6 * img[t] + _SLOT[maps[t][a]][maps[t][b]]]
                      for img, maps in automorphisms)
        else:
            heads.append(site)
            continue
        if min(images) == site.index:
            heads.append(site)
    return heads


def random_move_walk(tri, steps, rng, max_tets=8, keep=None):
    """A random walk in the move graph, keeping only steps whose result
    passes ``keep``; used to generate varied admissible triangulations."""
    current = tri
    for _ in range(steps):
        sites = moves.enumerate_moves(current)
        rng.shuffle(sites)
        for site in sites:
            if site.kind == "2-3" and current.n + 1 > max_tets:
                continue
            candidate = moves.apply_move(current, site)
            if keep is None or keep(candidate):
                current = candidate
                break
    return current
