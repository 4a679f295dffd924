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

The state of one search (best actions and tail, grown starts by tail,
the group and the marked starts) is a ``_Search``, fed one grown start
at a time, so two searches can run side by side.
``least_twin_signature`` does that for two triangulations that differ
in a few gluings which can be moved away from any start, such as the
two closures of a bundle (``monodromy``).  A start both searches want
grows on the first one's tables.  Just before it reaches a tetrahedron
whose gluings the second re-glues, the grow copies its state, then
finishes; the copy finishes on the second triangulation's tables.

Two triangulations have the same canonical signature exactly when they
are combinatorially isomorphic.  The same labelling kernel, ``_grow``,
also decides isomorphism: ``triangulation.find_isomorphism`` grows one
triangulation from a fixed start and looks for a start of the other
whose labelled stream is equal.
"""

from __future__ import annotations

from itertools import islice

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


def _grow(dest, partner, back, rows, start, start_perm, bound, resume=None,
          split=(), fork=None):
    """Grow the labelling from one start choice.

    Returns ``(actions, dests, gluings, tied, order, vmap)``: the code
    points of its action characters, the labels and gluings of its
    type-2 joins, whether its actions tie ``bound``, the best start's
    action code points, the tetrahedron given each new label, and the
    S4 index relabelling each tetrahedron's vertices.  None as soon as
    an action character exceeds ``bound``'s.  A start that ties
    ``bound`` returns it as its actions, and one that beats it copies
    the tied prefix only then.

    Just before it reads the facets of the first tetrahedron of
    ``split`` it reaches, the grow appends a copy of its state to the
    list ``fork``.  ``resume`` takes such a state, its ``actions`` and
    ``k`` made relative to ``bound`` by ``_rebase``, and finishes the
    grow from that tetrahedron on other tables; ``start`` and
    ``start_perm`` are then ignored."""
    if resume is None:
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
        tets = order
    else:
        image, order, vmap, used, dests, gluings, chunk, i, actions, k = resume
        tets = islice(order, i, None)
    for t in tets:
        if t in split and not fork:
            fork.append([image[:], order[:], vmap[:], used[:], dests[:],
                         gluings[:], chunk, image[t],
                         actions if actions is None else actions[:], k])
        vt = vmap[t]
        base = 4 * t
        for f in _FACET_ORDER[vt]:
            s = base + f
            if used[s]:
                continue
            d = dest[s]
            if d >= 0:
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
            else:
                chunk <<= 2
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


def _rebase(state, bound, new_bound):
    """A forked state, its actions taken against ``bound``, made
    relative to ``new_bound`` instead; None if they already exceed it."""
    if new_bound == bound:
        return state
    actions, k = state[8:]
    prefix = bound[:k] if actions is None else actions
    m = len(prefix)
    if new_bound is not None and prefix == new_bound[:m]:
        state[8:] = None, m
    elif new_bound is None or prefix < new_bound[:m]:
        state[8:] = prefix, 0
    else:
        return None
    return state


# Row shape -> the first action characters of its 24 starts, the least
# of them and the start perms that have it.  A shape gives each facet
# one of a few small values, so the table stays small.
_FIRST = {}


def _first_row(dest, partner, t):
    """``(chars, least, perms)``: the code points of the first action
    character of starts ``24t + p``, for p = 0..23, their least and the
    p that have it, looked up by the shape of t's row: per facet, -1
    when free, 4 + g when glued to facet g of t itself, and otherwise
    the first facet of t glued to the same neighbour."""
    base = 4 * t
    d0, d1, d2, d3 = dest[base:base + 4]
    shape = (-1 if d0 < 0 else 4 + partner[base] - base if d0 == t else 0,
             -1 if d1 < 0 else 4 + partner[base + 1] - base if d1 == t
             else 0 if d1 == d0 else 1,
             -1 if d2 < 0 else 4 + partner[base + 2] - base if d2 == t
             else 0 if d2 == d0 else 1 if d2 == d1 else 2,
             -1 if d3 < 0 else 4 + partner[base + 3] - base if d3 == t
             else 0 if d3 == d0 else 1 if d3 == d1 else 2 if d3 == d2 else 3)
    row = _FIRST.get(shape)
    if row is None:
        # Grow them on a model of the row: tetrahedron 0 with its free and
        # self-glued facets, the neighbour first met at facet i as i + 1.
        model = [-1] * 20, [-1] * 20, [0] * 20, [COMPOSE[0]] * 20
        for f, x in enumerate(shape):
            if x >= 0:
                model[0][f], model[1][f] = ((0, x - 4) if x >= 4
                                           else (x + 1, 4 * x + 4))
        chars = tuple(_grow(*model, 0, p, None)[0][0] for p in range(24))
        least = min(chars)
        row = _FIRST[shape] = (chars, least, tuple(
            p for p, c in enumerate(chars) if c == least))
    return row


def _least_starts(dest, partner, n):
    """The starts, in order, whose first action character is the least."""
    rows = [_first_row(dest, partner, t) for t in range(n)]
    least = min([row[1] for row in rows])
    return [24 * t + p for t, (_, c, perms) in enumerate(rows) if c == least
            for p in perms]


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


class _Search:
    """The state of one canonical search over the starts ``24 * tet +
    perm`` of a triangulation of ``n`` tetrahedra, fed one grown start
    at a time: the best start's actions and tail, the grown starts by
    tail, the automorphism group found so far and the starts its orbits
    mark done.

    Each automorphism ``(img, tau)`` found is new.  It takes start
    ``24a + p`` to ``24 img[a] + p.tau[a]``, so it maps tetrahedron a
    onto img[a] with the vertex map ``INVERSE[tau[a]]``; ``group`` keys
    each by its image of start 0.  ``relabel(t, vmap)``, when given,
    turns the vertex maps of a start of tetrahedron t into those of the
    triangulation the group acts on.
    """

    __slots__ = ("best_actions", "best_tail", "grown_from", "group",
                 "generators", "grown_starts", "done", "labels", "relabel")

    def __init__(self, n, relabel=None):
        self.best_actions = self.best_tail = None
        # Tail -> (start, order, vmap) for the grown starts whose actions
        # are the best start's: a later start reaches the end only if its
        # actions tie the best, so no other string can recur.
        self.grown_from = {}
        self.group = {0: (range(n), (0,) * n)}
        self.generators = []
        self.grown_starts = []
        self.done = bytearray(24 * n)
        # The code points of each label, when labels take more than one
        # character (n >= 63).
        n_chars = _size_chars(n)[1]
        self.labels = None if n_chars == 1 else [
            bytes((d >> 6 * i) & 0x3F for i in range(n_chars)).translate(
                _ORD_BYTES) for d in range(n)]
        self.relabel = relabel

    def mark(self, starts):
        done, group = self.done, self.group.values()
        for s in starts:
            a, p = divmod(s, 24)
            for img, tau in group:
                done[24 * img[a] + COMPOSE[p][tau[a]]] = 1

    def visit(self, s):
        """Start s is about to grow: mark its orbit done."""
        self.grown_starts.append(s)
        if self.generators:     # else s's orbit is s, never met again
            self.mark((s,))

    def offer(self, s, grown):
        """Take in what start s grew, if it did not die."""
        if grown is None:
            return
        actions, dests, gluings, tied, order, vmap = grown
        if self.labels is None:
            tail = bytes(dests + gluings).translate(_ORD_BYTES)
        else:
            tail = (b"".join(map(self.labels.__getitem__, dests))
                    + bytes(gluings).translate(_ORD_BYTES))
        if not tied:
            self.best_actions, self.best_tail = actions, tail
            self.grown_from = {}
        elif tail < self.best_tail:
            self.best_tail = tail
        seen = self.grown_from.setdefault(tail, (s, order, vmap))
        if seen[0] != s:
            self.extend(s, order, vmap, *seen)

    def extend(self, s, order, vmap, s_a, order_a, vmap_a):
        """Close the group under the automorphism that takes start s_a's
        labelling to start s's, and mark the orbits it adds."""
        # It takes tetrahedron a = order_a[i] to b = order[i].
        if self.relabel is not None:
            vmap_a = self.relabel(s_a // 24, vmap_a)
            vmap = self.relabel(s // 24, vmap)
        pairs = sorted(zip(order_a, order))
        generators, group = self.generators, self.group
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
        self.mark(self.grown_starts)

    def signature(self, n):
        return _size_chars(n)[0] + (bytes(self.best_actions)
                                    + self.best_tail).decode()


def _canonical(tri):
    """The canonical signature, the order of the automorphism group, its
    elements and the labelling ``(order, vmap)`` of the best start.

    Only unmarked starts with the least first action character are
    grown, so each automorphism found is new.
    """
    dest, partner, _, _ = flat = _flatten(tri)
    search = _Search(tri.n)
    done = search.done
    for s in _least_starts(dest, partner, tri.n):
        if not done[s]:
            search.visit(s)
            search.offer(s, _grow(*flat, *divmod(s, 24), search.best_actions))
    return (search.signature(tri.n), len(search.group), search.group.values(),
            search.grown_from[search.best_tail][1:])


def least_twin_signature(tri, slide, sigma):
    """``(signature, which)``: the lesser of the canonical signatures of
    ``tri`` and its twin, and 0 when it is ``tri``'s (a tie included) or
    1 when it is the twin's.  Both are whole searches, each with its own
    bound and group, and each grows the starts its own encode would; a
    start that both searches want grows most of the way once.  This is
    the only closure search, for every size: two tetrahedra and up.

    For each tetrahedron t, ``slide(t)`` is ``(gluings, tets)``: B_t,
    the copy of ``tri`` with the gluings ``{(tet, face): (dest, perm)}``
    in place of its own, is the twin with the vertices of each
    tetrahedron of ``tets`` relabelled by ``sigma``, and t is not one of
    ``tets``.  So start ``24t + p`` grows the same string on B_t as on
    the twin.  The precondition: each re-glued facet keeps its
    destination, which is not its own tetrahedron, and ``gluings``
    lists both sides of each gluing.  Then every row keeps its shape, so
    the twin's least starts are ``tri``'s; and the partners of re-glued
    facets, old and new, are re-glued facets, so a grow that has not
    reached a tetrahedron of ``gluings`` has the same state on both.

    A start both searches want grows on ``tri``'s tables against its
    bound, and copies its state just before it reads the first
    tetrahedron of ``gluings`` it reaches; the copy finishes on B_t's
    tables against the twin's bound.  A start that one search has
    marked done grows for the other alone.  The twin's search records
    B_t's vertex maps; ``relabel`` turns them into the twin's only to
    make an automorphism.
    """
    n = tri.n
    dest, partner, back, rows = flat = _flatten(tri)
    slides = [slide(t) for t in range(n)]
    sigma = S4_INDEX[sigma]

    def relabel(t, vmap):
        vmap = list(vmap)
        for u in slides[t][1]:
            vmap[u] = COMPOSE[vmap[u]][sigma]
        return vmap

    # B_t's tables, patched for one start tetrahedron at a time.
    twin_flat = dest[:], partner[:], back[:], rows[:]
    twin_dest, twin_partner, twin_back, twin_rows = twin_flat
    patched = []

    def patch(t):
        for x in patched:
            twin_dest[x], twin_partner[x], twin_back[x], twin_rows[x] = (
                dest[x], partner[x], back[x], rows[x])
        patched.clear()
        for (u, face), (d, perm) in slides[t][0].items():
            x = 4 * u + face
            p = S4_INDEX[perm]
            twin_dest[x] = d
            twin_partner[x] = 4 * d + perm[face]
            twin_back[x] = INVERSE[p]
            twin_rows[x] = COMPOSE[p]
            patched.append(x)
        return {u for u, _ in slides[t][0]}

    side, twin_side = _Search(n), _Search(n, relabel)
    done, twin_done = side.done, twin_side.done
    current = -1
    for s in _least_starts(dest, partner, n):
        grow, twin_grow = not done[s], not twin_done[s]
        if not (grow or twin_grow):
            continue
        start, start_perm = divmod(s, 24)
        if start != current:
            current = start
            split = patch(start)
        fork = []
        if grow:
            bound = side.best_actions
            side.visit(s)
            side.offer(s, _grow(*flat, start, start_perm, bound, None,
                                split if twin_grow else (), fork))
        if twin_grow:
            twin_bound = twin_side.best_actions
            twin_side.visit(s)
            if fork:            # else tri's grow died first, or never ran
                resume = _rebase(fork[0], bound, twin_bound)
                grown = resume and _grow(*twin_flat, start, start_perm,
                                         twin_bound, resume)
            else:
                grown = _grow(*twin_flat, start, start_perm, twin_bound)
            twin_side.offer(s, grown)
    signatures = side.signature(n), twin_side.signature(n)
    return min(signatures), int(signatures[1] < signatures[0])


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
