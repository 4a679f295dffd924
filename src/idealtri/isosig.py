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

Two starts that grow the same full string differ by an automorphism: a
map of tetrahedra with a vertex relabelling of each, acting freely on
the starts.  The encoder keeps the group generated by those found so
far, marks each grown start's orbit under it (again whenever it grows)
and skips a marked start, the search-tree pruning of McKay (*Practical
graph isomorphism*, 1981).  A grown start lies outside the known orbits,
so the automorphism it gives is new and at least doubles the group.  A
periodic bundle of n tetrahedra grows about 24n / |Aut| starts.

The group is complete when the encode ends, since every start that
grows the canonical string lies in one orbit.  ``encode_with_automorphisms``
conjugates it by the best start's labelling into that of
``decode(signature)``, for the bounded move search, which expands one
move site per orbit; ``encode_canonical`` never conjugates.

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
    d0, d1, d2, d3 = dest[base:base + 4]
    shape = (-1 if d0 < 0 else 4 + partner[base] - base if d0 == t else 0,
             -1 if d1 < 0 else 4 + partner[base + 1] - base if d1 == t
             else 0 if d1 == d0 else 1,
             -1 if d2 < 0 else 4 + partner[base + 2] - base if d2 == t
             else 0 if d2 == d0 else 1 if d2 == d1 else 2,
             -1 if d3 < 0 else 4 + partner[base + 3] - base if d3 == t
             else 0 if d3 == d0 else 1 if d3 == d1 else 2 if d3 == d2 else 3)
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


def encode_with_automorphisms(tri):
    """The canonical signature, and the automorphism group of the
    triangulation ``decode`` rebuilds from it, identity included: each
    element is ``(tet_map, vertex_maps)`` as ``find_isomorphism`` gives
    them, so ``relabelled(decode(sig), *element) == decode(sig)``."""
    signature, _, group, (order, vmap) = _canonical(tri)
    # decode(signature) is tri relabelled by the best start: tetrahedron
    # order[i] becomes i, its vertices relabelled by vmap[order[i]].
    image = [0] * tri.n
    for i, t in enumerate(order):
        image[t] = i
    automorphisms = []
    for img, tau in group:
        automorphisms.append((
            [image[img[t]] for t in order],
            [S4[COMPOSE[COMPOSE[vmap[img[t]]][INVERSE[tau[t]]]][
                INVERSE[vmap[t]]]] for t in order]))
    return signature, automorphisms


def _canonical(tri):
    """The canonical signature, the order of the automorphism group, its
    elements and the labelling ``(order, vmap)`` of the best start.

    Starts are numbered ``24 * tet + perm``; only unmarked ones with the
    least first action character are grown, so each automorphism
    ``(img, tau)`` found is new.  It takes start ``24a + p`` to
    ``24 img[a] + p.tau[a]``, so it maps tetrahedron a onto img[a] with
    the vertex map ``INVERSE[tau[a]]``; ``group`` keys each by its image
    of start 0.
    """
    dest, partner, _, _ = flat = _flatten(tri)
    size_str, n_chars = _size_chars(tri.n)

    best_actions = best_tail = None
    # Tail -> (start, order, vmap) for the grown starts whose actions
    # are the best start's: a later start reaches the end only if its
    # actions tie the best, so no other string can recur.
    grown_from = {}
    group = {0: (range(tri.n), (0,) * tri.n)}
    generators, grown_starts = [], []
    done = bytearray(24 * tri.n)

    def mark(starts):
        for s in starts:
            a, p = divmod(s, 24)
            for img, tau in group.values():
                done[24 * img[a] + COMPOSE[p][tau[a]]] = 1

    firsts = []
    for t in range(tri.n):
        firsts += _first_characters(dest, partner, t)
    least = min(firsts)
    for s in [s for s, c in enumerate(firsts) if c == least]:
        if done[s]:
            continue
        grown_starts.append(s)
        if generators:          # else s's orbit is s, never met again
            mark((s,))
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
            best_actions, best_tail = actions, tail
            grown_from = {}
        elif tail < best_tail:
            best_tail = tail
        seen = grown_from.setdefault(tail, (s, order, vmap))
        if seen[0] == s:
            continue
        # The automorphism taking tetrahedron a = order_a[i] to b =
        # order[i]; close the group under it and the earlier generators.
        _, order_a, vmap_a = seen
        pairs = sorted(zip(order_a, order))
        generators.append(([b for _, b in pairs],
                           [COMPOSE[INVERSE[vmap_a[a]]][vmap[b]]
                            for a, b in pairs]))
        elements = list(group.values())
        for g_img, g_tau in elements:
            for x_img, x_tau in generators:
                key = 24 * x_img[g_img[0]] + COMPOSE[g_tau[0]][x_tau[g_img[0]]]
                if key not in group:
                    group[key] = h = ([x_img[b] for b in g_img],
                                      [COMPOSE[t][x_tau[b]]
                                       for t, b in zip(g_tau, g_img)])
                    elements.append(h)
        mark(grown_starts)
    signature = size_str + (bytes(best_actions) + best_tail).decode()
    return signature, len(group), group.values(), grown_from[best_tail][1:]


# The three 2-bit facet actions of each character, the first lowest.
_ACTIONS = tuple((v & 3, v >> 2 & 3, v >> 4) for v in range(64))


def decode(sig):
    """Rebuild the triangulation a signature describes."""
    if not sig:
        raise MalformedSignature("empty signature")
    try:
        vals = [_SVAL[c] for c in sig]
    except KeyError:
        raise MalformedSignature(
            "characters outside the signature alphabet") from None
    end = len(vals)

    def read_int(pos, n_chars):
        if pos + n_chars > end:
            raise MalformedSignature("truncated signature")
        val = 0
        for i in range(n_chars):
            val |= vals[pos + i] << (6 * i)
        return val

    n, n_chars, pos = vals[0], 1, 1
    if n == 63:
        n_chars = read_int(1, 1)
        if n_chars == 0:
            raise MalformedSignature("zero-length size field")
        n = read_int(2, n_chars)
        pos = 2 + n_chars
    if n == 0:
        raise MalformedSignature("empty triangulation")

    # Read facet actions until they account for all 4n facets: an action
    # 0 covers one facet, actions 1 and 2 cover the facet and its partner.
    actions = []
    n_facets = 0
    n_joins = 0
    total = 4 * n
    while n_facets < total:
        if pos == end:
            raise MalformedSignature("truncated signature")
        for a in _ACTIONS[vals[pos]]:
            if n_facets == total:
                if a != 0:
                    raise MalformedSignature("nonzero padding in facet actions")
                continue
            if a == 0:
                n_facets += 1
            elif a == 3:
                raise MalformedSignature("facet action 3 is undefined")
            else:
                n_facets += 2
                n_joins += a - 1
            actions.append(a)
        pos += 1
        if n_facets > total:
            raise MalformedSignature("facet actions overrun the tetrahedra")

    # The destinations, n_chars characters each, then the gluings.
    if pos + n_joins * (n_chars + 1) > end:
        raise MalformedSignature("truncated signature")
    dests = (vals[pos:pos + n_joins] if n_chars == 1 else
             [read_int(pos + n_chars * j, n_chars) for j in range(n_joins)])
    pos += n_chars * n_joins
    gluings_idx = vals[pos:pos + n_joins]
    if pos + n_joins != end:
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
    for t, row in enumerate(rows):
        for f in range(4):
            if row[f] is not None:
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
                row[f] = (next_new, (0, 1, 2, 3))
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
            row[f] = (dest, perm)
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
