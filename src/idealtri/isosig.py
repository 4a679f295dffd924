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

Each encode first builds per-facet tables: the partner facet, the
inverse gluing and the gluing's row of ``COMPOSE``, so that a step of
``_grow`` is a few list reads.  A start that ties the best actions
returns them and builds its own list only once it beats them.  Its
tail, the destination and gluing characters, is ``bytes`` made by
``bytes.translate``: each byte is an ASCII code point, so tails order
as the code-point lists and strings do, and a tail is its own key.

The first action character covers the first three actions, and they
all come from the start tetrahedron's own facets: it has four, and a
tetrahedron with two self-gluings is a lone closed one with only two
actions.  So the character depends only on the shape of that
tetrahedron's row: which facets are free, which are glued to a partner
facet of the same tetrahedron, and which to the same neighbour.  The
characters of the 24 starts are grown once per shape, on a model of
the row, and kept in a module-level table; only the starts that tie
the least first character are grown, in start order.  An automorphism
preserves the first character, so no start that could win or tie is
left out and the orbits below are unchanged.

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
# The same as a bytes.translate table, from 6-bit values to ASCII.
_ORD_BYTES = bytes(_ORD).ljust(256, b"\0")


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
    """Per-facet tables over facets ``4t + f``, built once per encode:
    the destination tetrahedron (-1 when free), the partner facet
    ``4d + g``, the S4 index of the inverse gluing and the ``COMPOSE``
    row of the gluing."""
    n = tri.n
    dest = [-1] * (4 * n)
    partner = [-1] * (4 * n)
    back = [0] * (4 * n)
    rows = [None] * (4 * n)
    for t, row in enumerate(tri.gluings):
        for f, g in enumerate(row):
            if g is not None:
                s = 4 * t + f
                dest[s], perm = g
                p = S4_INDEX[perm]
                partner[s] = 4 * dest[s] + perm[f]
                back[s] = INVERSE[p]
                rows[s] = COMPOSE[p]
    return dest, partner, back, rows


# The facets of a tetrahedron in the order of their new labels, for
# each S4 index of its vertex relabelling.
_FACET_ORDER = tuple(S4[INVERSE[v]] for v in range(24))


def _action_char(chunk):
    """The code point of a chunk of ``_grow``: below its leading 1 it
    holds the character's actions as base-4 digits, the first highest.
    Missing actions pad it with zeros; a character holds the first
    action in its lowest two bits."""
    while chunk < 64:
        chunk <<= 2
    return _ORD[(chunk >> 4 & 3) | (chunk & 12) | (chunk & 3) << 4]


_CHAR = (0,) + tuple(map(_action_char, range(1, 128)))


def _grow(dest, partner, back, rows, start, start_perm, bound):
    """Grow the labelling from one start choice.

    Returns ``(actions, dests, gluings, tied, order, vmap)``: the code
    points of its action characters, the labels and gluings of its
    type-2 joins, whether its actions tie ``bound``, the best start's
    action code points, the tetrahedron given each new label, and the
    S4 index relabelling each tetrahedron's vertices.  None as soon as
    an action character exceeds ``bound``'s.  A start that ties
    ``bound`` returns it as its actions, and one that beats it copies
    the tied prefix only then."""
    n = len(dest) // 4
    image = [-1] * n            # tet -> its new label
    order = [start]             # new label -> tet
    vmap = [0] * n              # tet -> S4 index relabelling its vertices
    image[start] = 0
    vmap[start] = start_perm
    used = [False] * (4 * n)    # facets reached from their partner
    actions = [] if bound is None else None
    k = 0                       # characters that tie bound so far
    dests = []
    gluings = []
    chunk = 1
    for t in order:
        vt = vmap[t]
        base = 4 * t
        for f in _FACET_ORDER[vt]:
            s = base + f
            if used[s]:
                continue
            d = dest[s]
            if d < 0:
                chunk <<= 2
            else:
                used[partner[s]] = True
                if image[d] < 0:
                    chunk = chunk << 2 | 1
                    image[d] = len(order)
                    order.append(d)
                    vmap[d] = COMPOSE[vt][back[s]]
                else:
                    chunk = chunk << 2 | 2
                    dests.append(image[d])
                    gluings.append(COMPOSE[vmap[d]][rows[s][INVERSE[vt]]])
            if chunk >= 64:
                c = _CHAR[chunk]
                chunk = 1
                if actions is not None:
                    actions.append(c)
                elif c != bound[k]:
                    if c > bound[k]:
                        return None
                    actions = bound[:k] + [c]
                else:
                    k += 1
    if chunk > 1:
        c = _CHAR[chunk]
        if actions is not None:
            actions.append(c)
        elif c > bound[k]:
            return None
        elif c < bound[k]:
            actions = bound[:k] + [c]
    if actions is None:
        return bound, dests, gluings, True, order, vmap
    return actions, dests, gluings, False, order, vmap


# Row shape -> the first action characters of its 24 starts.  A shape
# gives each facet one of a few small values, so the table stays small.
_FIRST = {}


def _first_characters(dest, partner, t):
    """Code points of the first action character of starts ``24t + p``,
    for p = 0..23, looked up by the shape of t's row: per facet, -1 when
    free, 4 + g when glued to facet g of t itself, and otherwise the
    first facet of t glued to the same neighbour."""
    base = 4 * t
    row = dest[base:base + 4]
    shape = tuple(-1 if d < 0 else 4 + partner[base + f] - base if d == t
                  else row.index(d) for f, d in enumerate(row))
    chars = _FIRST.get(shape)
    if chars is None:
        # Grow them on a model of the row: tetrahedron 0 with its free and
        # self-glued facets, the neighbour first met at facet i as i + 1.
        model = [-1] * 20, [-1] * 20, [0] * 20, [COMPOSE[0]] * 20
        for f, x in enumerate(shape):
            if x >= 0:
                model[0][f], model[1][f] = ((0, x - 4) if x >= 4
                                           else (x + 1, 4 * x + 4))
        chars = _FIRST[shape] = tuple(_grow(*model, 0, p, None)[0][0]
                                      for p in range(24))
    return chars


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
    dest, partner, _, _ = flat = _flatten(tri)
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
        firsts += _first_characters(dest, partner, t)
    least = min(firsts)
    for s in [s for s, c in enumerate(firsts) if c == least]:
        if parent is not None:
            root = find(s)
            if done[root]:
                continue
            done[root] = True
        start, start_perm = divmod(s, 24)
        grown = _grow(*flat, start, start_perm, best_actions)
        if grown is None:
            continue
        actions, dests, gluings, tied, order, vmap = grown
        if n_chars > 1:
            dests = [(d >> 6 * i) & 0x3F
                     for d in dests for i in range(n_chars)]
        tail = bytes(dests + gluings).translate(_ORD_BYTES)
        if not tied:
            best_actions, best_tail, best_start = actions, tail, s
            grown_from = {}
        elif tail < best_tail:
            best_tail, best_start = tail, s
        seen = grown_from.setdefault(tail, (s, order, vmap))
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
    signature = size_str + (bytes(best_actions) + best_tail).decode()
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
