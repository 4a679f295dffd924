"""Canonical isomorphism signatures for triangulations.

The format is the census signature grammar: a size prefix, a stream of
2-bit facet actions (0 = boundary, 1 = joined to a new tetrahedron,
2 = joined to a tetrahedron already seen), destination indices for the
type-2 joins, and gluing permutations as indices into the fixed
ordering of S4.  The canonical string is the lexicographic minimum over
all choices of start tetrahedron and start labelling.

Every start emits segments of the same lengths (one action per boundary
facet or glued pair, one destination and one gluing per type-2 join),
so comparing prefixes is exact.  A start is dropped as soon as one of
its action characters exceeds the best start's; starts that tie on all
actions compare their destination and gluing characters.  Characters
compare by code point, as strings do, not by their 6-bit values.

The first action character covers the first three actions, and they
all come from the start tetrahedron's own facets: it has four, and a
tetrahedron with two self-gluings is a lone closed one with only two
actions.  So the character depends only on the shape of that
tetrahedron's row: which facets are free, which are glued to a partner
facet of the same tetrahedron, and which to the same neighbour.  The
characters of the 24 starts are computed once per shape and kept in a
module-level table; only the starts that tie the least first character
are grown, in start order.  An automorphism preserves the first
character, so no start that could win or tie is left out and the
orbits below are unchanged.

Two starts that grow the same full string differ by an automorphism,
and every start in one orbit of the automorphism group grows the same
string.  The first such pair builds a union-find over the starts; each
automorphism found merges their orbits, and a start whose class
already holds a processed start is skipped (the search-tree pruning of
McKay, *Practical graph isomorphism*, 1981).  A periodic bundle of n
tetrahedra then grows about 24n / |Aut| starts; an asymmetric complex
never builds the union-find.

Two triangulations have the same canonical signature exactly when they
are combinatorially isomorphic.  The same labelling kernel, ``_grow``,
also decides isomorphism: ``triangulation.find_isomorphism`` grows one
triangulation from a fixed start and looks for a start of the other
whose labelled stream is equal.
"""

from __future__ import annotations

from .perms import COMPOSE, INVERSE, S4, S4_INDEX
from .triangulation import _from_table

SCHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789+-"
_SVAL = {c: i for i, c in enumerate(SCHARS)}
# Code point of each character: SCHARS is not in code-point order, and
# signatures compare as strings.
_ORD = tuple(map(ord, SCHARS))


class MalformedSignature(ValueError):
    """The string is not a well-formed signature."""


def _size_chars(size):
    """The size prefix, and the number of characters per tetrahedron label."""
    if size < 63:
        return SCHARS[size], 1
    n_chars = (size.bit_length() + 5) // 6
    return (SCHARS[63] + SCHARS[n_chars]
            + "".join(SCHARS[(size >> 6 * i) & 0x3F] for i in range(n_chars)),
            n_chars)


def _flatten(tri):
    """The gluings as flat arrays over facets ``4t + f``: the destination
    tetrahedron (-1 when free), the S4 index of the gluing, and the
    number of facet actions (free facets plus glued pairs)."""
    n = tri.n
    dest = [-1] * (4 * n)
    perm_index = [0] * (4 * n)
    for t, row in enumerate(tri.gluings):
        for f, g in enumerate(row):
            if g is not None:
                dest[4 * t + f] = g[0]
                perm_index[4 * t + f] = S4_INDEX[g[1]]
    return dest, perm_index, 4 * n - sum(d >= 0 for d in dest) // 2


def _grow(dest, perm_index, n_actions, start, start_perm, bound):
    """Grow the labelling from one start choice.

    Returns ``(actions, dests, gluings, tied, order, vmap)``: the code
    points of its action characters, the labels and gluings of its
    type-2 joins, whether its actions tie ``bound``, the best start's
    action code points, the tetrahedron given each new label, and the
    S4 index relabelling each tetrahedron's vertices.  None as soon as
    an action character exceeds ``bound``'s."""
    n = len(dest) // 4
    image = [-1] * n            # tet -> its new label
    order = [start]             # new label -> tet
    vmap = [0] * n              # tet -> S4 index relabelling its vertices
    image[start] = 0
    vmap[start] = start_perm
    used = [False] * (4 * n)
    actions = []
    dests = []
    gluings = []
    chunk = shift = 0
    for t in order:
        vt = vmap[t]
        inv = INVERSE[vt]
        base = 4 * t
        for f in S4[inv]:
            s = base + f
            if used[s]:
                continue
            used[s] = True
            d = dest[s]
            if d >= 0:
                p = perm_index[s]
                used[4 * d + S4[p][f]] = True
                if image[d] < 0:
                    chunk |= 1 << shift
                    image[d] = len(order)
                    order.append(d)
                    vmap[d] = COMPOSE[vt][INVERSE[p]]
                else:
                    chunk |= 2 << shift
                    dests.append(image[d])
                    gluings.append(COMPOSE[vmap[d]][COMPOSE[p][inv]])
            shift += 2
            n_actions -= 1
            if shift == 6 or not n_actions:
                c = _ORD[chunk]
                if bound is not None:
                    b = bound[len(actions)]
                    if c > b:
                        return None
                    if c < b:
                        bound = None
                actions.append(c)
                chunk = shift = 0
    return actions, dests, gluings, bound is not None, order, vmap


# Row shape -> the first action characters of its 24 starts.  A shape
# gives each facet one of a few small values, so the table stays small.
_FIRST = {}


def _first_characters(dest, perm_index, t):
    """Code points of the first action character of starts ``24t + p``,
    for p = 0..23, looked up by the shape of t's row: per facet, -1 when
    free, 4 + g when glued to facet g of t itself, and otherwise the
    neighbour's number in order of first appearance."""
    base = 4 * t
    shape = []
    neighbours = []
    for f in range(4):
        d = dest[base + f]
        if d < 0:
            shape.append(-1)
        elif d == t:
            shape.append(4 + S4[perm_index[base + f]][f])
        else:
            if d not in neighbours:
                neighbours.append(d)
            shape.append(neighbours.index(d))
    shape = tuple(shape)
    chars = _FIRST.get(shape)
    if chars is None:
        chars = _FIRST[shape] = tuple(_first_character(shape, p)
                                      for p in range(24))
    return chars


def _first_character(shape, start_perm):
    """The first action character ``_grow`` emits from a start
    tetrahedron of this row shape: free facets give action 0, self-glued
    pairs action 2, and a neighbour action 1 when it first appears and 2
    after that."""
    used = [False] * 4
    seen = set()
    chunk = shift = 0
    for f in S4[INVERSE[start_perm]]:
        if used[f]:
            continue
        used[f] = True
        x = shape[f]
        if x >= 4:
            used[x - 4] = True
            action = 2
        elif x >= 0:
            action = 2 if x in seen else 1
            seen.add(x)
        else:
            action = 0
        chunk |= action << shift
        shift += 2
        if shift == 6:
            break
    return _ORD[chunk]


def encode_canonical(tri):
    """Smallest signature over all start choices: a complete isomorphism
    invariant."""
    return _canonical(tri)[0]


def _canonical(tri):
    """The canonical signature and the order of the automorphism group.

    Starts are numbered ``24 * tet + perm``; only those whose first
    action character is the least are grown.  Two grown starts with the
    same full string give an automorphism; the union-find, built at the
    first one, merges the orbits of the starts under the automorphisms
    found, and a start whose class already holds a processed start is
    skipped.  The best start's class is its orbit under the whole group.
    """
    dest, perm_index, n_actions = _flatten(tri)
    size_str, n_chars = _size_chars(tri.n)

    best_actions = best_tail = None
    best_start = 0
    # Tail -> (start, order, vmap) for the grown starts whose actions
    # are the best start's: a later start reaches the end only if its
    # actions tie the best, so no other string can recur.
    grown_from = {}
    parent = done = None

    def find(s):
        while parent[s] != s:
            parent[s] = s = parent[parent[s]]
        return s

    firsts = []
    for t in range(tri.n):
        firsts += _first_characters(dest, perm_index, t)
    least = min(firsts)
    for s in range(24 * tri.n):
        if firsts[s] != least:
            continue
        if parent is not None:
            root = find(s)
            if done[root]:
                continue
            done[root] = True
        start, start_perm = divmod(s, 24)
        grown = _grow(dest, perm_index, n_actions, start, start_perm,
                      best_actions)
        if grown is None:
            continue
        actions, dests, gluings, tied, order, vmap = grown
        tail = [_ORD[(d >> 6 * i) & 0x3F]
                for d in dests for i in range(n_chars)]
        tail += [_ORD[g] for g in gluings]
        if not tied:
            best_actions, best_tail, best_start = actions, tail, s
            grown_from = {}
        elif tail < best_tail:
            best_tail, best_start = tail, s
        seen = grown_from.setdefault(bytes(tail), (s, order, vmap))
        if seen[0] == s:
            continue
        # The two labellings differ by an automorphism taking tetrahedron
        # a = order_a[i] to b = order[i]; it sends start 24a + p to
        # 24b + p.tau.  Merge the starts' orbits under it.
        if parent is None:
            parent = list(range(24 * tri.n))
            done = [i <= s for i in range(24 * tri.n)]
        _, order_a, vmap_a = seen
        for a, b in zip(order_a, order):
            tau = COMPOSE[INVERSE[vmap_a[a]]][vmap[b]]
            for p in range(24):
                x, y = find(24 * a + p), find(24 * b + COMPOSE[p][tau])
                parent[y] = x
                done[x] |= done[y]
    signature = size_str + "".join(map(chr, best_actions + best_tail))
    if parent is None:
        return signature, 1
    root = find(best_start)
    return signature, sum(find(s) == root for s in range(24 * tri.n))


def decode(sig):
    """Rebuild the triangulation a signature describes."""
    if not sig:
        raise MalformedSignature("empty signature")
    if any(c not in _SVAL for c in sig):
        raise MalformedSignature("characters outside the signature alphabet")
    pos = 0

    def read_char():
        nonlocal pos
        if pos >= len(sig):
            raise MalformedSignature("truncated signature")
        val = _SVAL[sig[pos]]
        pos += 1
        return val

    def read_int(n_chars):
        val = 0
        for i in range(n_chars):
            val |= read_char() << (6 * i)
        return val

    first = read_char()
    if first < 63:
        n = first
        n_chars = 1
    else:
        n_chars = read_char()
        if n_chars == 0:
            raise MalformedSignature("zero-length size field")
        n = read_int(n_chars)
    if n == 0:
        raise MalformedSignature("empty triangulation")

    # Read facet actions until they account for all 4n facets: an action
    # 0 covers one facet, actions 1 and 2 cover the facet and its partner.
    actions = []
    n_facets = 0
    n_joins = 0
    total = 4 * n
    while n_facets < total:
        val = read_char()
        for j in range(3):
            a = (val >> (2 * j)) & 3
            if n_facets == total:
                if a != 0:
                    raise MalformedSignature("nonzero padding in facet actions")
                continue
            if a == 0:
                n_facets += 1
            elif a in (1, 2):
                n_facets += 2
                if a == 2:
                    n_joins += 1
            else:
                raise MalformedSignature("facet action 3 is undefined")
            actions.append(a)
        if n_facets > total:
            raise MalformedSignature("facet actions overrun the tetrahedra")

    dests = [read_int(n_chars) for _ in range(n_joins)]
    gluings_idx = [read_char() for _ in range(n_joins)]
    if pos != len(sig):
        raise MalformedSignature("trailing data after one component")

    # Replay the actions in facet order, writing both sides of every
    # join, and skip facets already glued from the other side.  A stream
    # that replays exactly joins each facet once, to a fresh partner, and
    # reaches every tetrahedron through a type-1 join, so its table is
    # valid and connected.
    rows = [[None] * 4 for _ in range(n)]
    next_new = 1
    action_pos = 0
    join_pos = 0
    for t in range(n):
        for f in range(4):
            if rows[t][f] is not None:
                continue
            if action_pos >= len(actions):
                raise MalformedSignature("too few facet actions")
            a = actions[action_pos]
            action_pos += 1
            if a == 0:
                continue
            if a == 1:
                if next_new >= n:
                    raise MalformedSignature("join to a nonexistent tetrahedron")
                rows[t][f] = (next_new, (0, 1, 2, 3))
                rows[next_new][f] = (t, (0, 1, 2, 3))
                next_new += 1
                continue
            dest = dests[join_pos]
            idx = gluings_idx[join_pos]
            join_pos += 1
            if dest >= next_new or idx >= 24:
                raise MalformedSignature("join data out of range")
            perm = S4[idx]
            if rows[dest][perm[f]] is not None:
                raise MalformedSignature("facet glued twice")
            # No self-gluing check: it fills one facet, so actions run out.
            rows[t][f] = (dest, perm)
            rows[dest][perm[f]] = (t, S4[INVERSE[idx]])
    if action_pos != len(actions) or join_pos != n_joins or next_new != n:
        raise MalformedSignature("inconsistent gluing stream")
    return _from_table(rows)


def read_census(text):
    """Signatures from census text: one per line, '#' comments ignored."""
    sigs = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            sigs.append(line)
    return sigs
