"""Shared generators and local models for the test suites."""

from idealtri import build, decode
from idealtri.cohomology import (
    TET_TYPES, IdentityError, ParityError, RankTwoColouring,
)
from idealtri.isosig import (
    MalformedSignature, SCHARS, _ORD, _SVAL, encode_canonical,
)
from idealtri.lst import layer_tetrahedron
from idealtri.monodromy import (
    BundleTriangulation, IDENT, L_MAT, R_MAT, _ELLIPTIC, _closure, _mat_mul,
    build_bundle, word_analysis,
)
from idealtri.moves import (
    MoveError, _edge_cycle, apply_move, enumerate_moves,
)
from idealtri.perms import (
    COMPOSE, IDENTITY, INVERSE, S4, S4_INDEX, compose, inverse, sign,
)
from idealtri.search import (
    _PERMS_TAKING, SearchResult, closed_admissible, random_move_walk,
)
from idealtri.surfaces import (
    SurfaceComponent, SurfaceComponents, SurfaceError, _arc_stack,
    _disc_sheets, quad_type_of_pair,
)
from idealtri.triangulation import (
    EdgeClass, FaceClass, FaceType, InvalidEdge, InvalidTriangulation,
    Triangulation, VertexClass, _from_table,
)


def admissible_keep(tri):
    """Closed, orientable, torus links, no degree-1/2 edges."""
    if not (tri.is_closed and tri.is_orientable):
        return False
    if not all(v.is_torus_link for v in tri.vertex_classes):
        return False
    return min(e.degree for e in tri.edge_classes) >= 3


SEED_SIGS = [
    "gLLMQbeefffehhqxhqq",
    "iLLLQPcbefgffhhhxxhaqxxqh",
    "cPcbbbiht",
]
SEED_WORDS = ["RRLL", "RLRLRL", "RLLRLL"]


def assert_revalidates(tri):
    """The validating constructor accepts the gluings of ``tri``, each
    listed from one side only, and rebuilds an equal triangulation."""
    one_sided = {}
    for t, row in enumerate(tri.gluings):
        for f, g in enumerate(row):
            if g is not None and (t, f) <= (g[0], g[1][f]):
                one_sided[(t, f)] = g
    again = Triangulation(tri.n, one_sided, closed=tri.is_closed)
    assert again == tri


def random_admissible(rng, min_tets=2, max_tets=6, steps=None, rank2_only=False):
    """A random closed orientable torus-link triangulation with no
    degree-1/2 edges and 2..6 tetrahedra, from a move walk off a seed.

    Moves do not change the manifold, so seeding from a rank-2 manifold
    guarantees rank-2 cohomology throughout the walk.
    """
    if not rank2_only and rng.random() < 0.5:
        seed = decode(rng.choice(SEED_SIGS))
    elif rank2_only and rng.random() < 0.25:
        seed = decode(SEED_SIGS[0])
    else:
        seed = build_bundle(rng.choice(SEED_WORDS)).tri
    steps = steps if steps is not None else rng.randrange(0, 5)

    def keep(t):
        return min_tets <= t.n <= max_tets and admissible_keep(t)

    tri = random_move_walk(seed, steps, rng, max_tets=max_tets, keep=keep)
    if not keep(tri):
        # seeds themselves satisfy the filter when within size bounds
        tri = seed if seed.n <= max_tets else decode("cPcbbbiht")
    return tri


def random_complex(rng, n, closed=False):
    """A connected complex of n tetrahedra: a spanning tree of gluings,
    then random gluings among the free faces, all of them if closed."""
    gluings = {}
    free = [(0, f) for f in range(4)]

    def glue(a, b):
        free.remove(a)
        free.remove(b)
        perm = rng.choice([p for p in S4 if p[a[1]] == b[1]])
        gluings[a] = (b[0], perm)

    for t in range(1, n):
        free += [(t, f) for f in range(4)]
        glue(rng.choice([s for s in free if s[0] < t]),
             rng.choice([s for s in free if s[0] == t]))
    extra = len(free) // 2 if closed else rng.randrange(2 * n)
    for _ in range(min(extra, len(free) // 2)):
        glue(*rng.sample(free, 2))
    return build(n, gluings, closed=closed)


def random_closed_complex(rng, n):
    """A closed ``random_complex`` with no edge identified with itself
    in reverse, drawn again until one has none."""
    while True:
        tri = random_complex(rng, n, closed=True)
        try:
            tri.edge_classes
        except InvalidEdge:
            continue
        return tri


def octahedron_model():
    """Four tetrahedra around the edge {u,v}: tet i spans u, v and the
    equator vertices x_i, x_{i+1} (labels 0, 1, 2, 3 in that order)."""
    gluings = {(i, 2): ((i + 1) % 4, (0, 1, 3, 2)) for i in range(4)}
    return build(4, gluings, closed=False)


# The straightforward canonical encoder: one full signature string per
# start choice, over permutation tuples.  The differential oracle for
# ``idealtri.isosig.encode_canonical``.

def _encode_int(val, n_chars):
    out = []
    for _ in range(n_chars):
        out.append(SCHARS[val & 0x3F])
        val >>= 6
    return "".join(out)


def _size_chars(size):
    if size < 63:
        return SCHARS[size], 1
    n_chars = 0
    tmp = size
    while tmp > 0:
        tmp >>= 6
        n_chars += 1
    return SCHARS[63] + SCHARS[n_chars] + _encode_int(size, n_chars), n_chars


def _sig_from(tri, start, start_perm):
    """Signature string for the labelling grown from one start choice."""
    n = tri.n
    image = [None] * n          # tet -> its new label
    preimage = [None] * n       # new label -> tet
    vertex_map = [None] * n     # tet -> relabelling of its vertices
    image[start] = 0
    preimage[0] = start
    vertex_map[start] = start_perm
    next_label = 1

    used = [[False] * 4 for _ in range(n)]
    actions = []
    join_dests = []
    join_gluings = []

    for label in range(n):
        t = preimage[label]
        inv = inverse(vertex_map[t])
        for f_img in range(4):
            f = inv[f_img]
            if used[t][f]:
                continue
            used[t][f] = True
            g = tri.gluings[t][f]
            if g is None:
                actions.append(0)
                continue
            t2, perm = g
            used[t2][perm[f]] = True
            if image[t2] is None:
                actions.append(1)
                image[t2] = next_label
                preimage[next_label] = t2
                vertex_map[t2] = compose(vertex_map[t], inverse(perm))
                next_label += 1
            else:
                actions.append(2)
                join_dests.append(image[t2])
                relabelled = compose(vertex_map[t2],
                                     compose(perm, inverse(vertex_map[t])))
                join_gluings.append(S4_INDEX[relabelled])

    size_str, n_chars = _size_chars(n)
    out = [size_str]
    for i in range(0, len(actions), 3):
        chunk = actions[i:i + 3]
        val = sum(a << (2 * j) for j, a in enumerate(chunk))
        out.append(SCHARS[val])
    for dest in join_dests:
        out.append(_encode_int(dest, n_chars))
    for idx in join_gluings:
        out.append(SCHARS[idx])
    return "".join(out)


def reference_encode_canonical(tri):
    """Smallest signature over all start choices: a complete isomorphism
    invariant."""
    best = None
    for start in range(tri.n):
        for perm in S4:
            s = _sig_from(tri, start, perm)
            if best is None or s < best:
                best = s
    return best


def reference_canonical_starts(tri):
    """The canonical signature, and the number of start choices that
    grow it: the order of the automorphism group, which acts freely on
    the starts of a connected complex."""
    sigs = [_sig_from(tri, start, perm) for start in range(tri.n) for perm in S4]
    best = min(sigs)
    return best, sigs.count(best)


# The labelling kernel as it stood before its per-facet tables: flat
# arrays of destinations and S4 indices, a facet-action countdown and
# an actions list built from the first character.  The differential
# oracle for ``idealtri.isosig._flatten`` and ``_grow``.

def reference_flatten(tri):
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


def reference_grow(dest, perm_index, n_actions, start, start_perm, bound):
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


def reference_grow_isomorphism(t1, t2):
    """``find_isomorphism`` run on the reference kernel."""
    flat1, flat2 = reference_flatten(t1), reference_flatten(t2)
    if t1.n != t2.n or flat1[2] != flat2[2]:
        return None
    actions, dests, gluings, _, order1, vmap1 = reference_grow(
        *flat1, 0, 0, None)
    for t0 in range(t2.n):
        for i in range(24):
            grown = reference_grow(*flat2, t0, INVERSE[i], actions)
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


# The decoders before the table decoder: one validates its table
# through ``Triangulation``, the other is the seed decoder that read one
# character per call.  The differential oracles for ``isosig.decode``.

def reference_validating_decode(sig):
    """The decoder that validates its table through ``Triangulation``:
    the oracle for ``isosig.decode``."""
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

    # Replay the actions in facet order, skipping facets glued from the
    # other side, and perform the joins.
    table = {}
    filled = [[False] * 4 for _ in range(n)]
    next_new = 1
    action_pos = 0
    join_pos = 0
    for t in range(n):
        for f in range(4):
            if filled[t][f]:
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
                table[(t, f)] = (next_new, (0, 1, 2, 3))
                filled[t][f] = True
                filled[next_new][f] = True
                next_new += 1
                continue
            dest = dests[join_pos]
            idx = gluings_idx[join_pos]
            join_pos += 1
            if dest >= next_new or idx >= 24:
                raise MalformedSignature("join data out of range")
            perm = S4[idx]
            if filled[dest][perm[f]]:
                raise MalformedSignature("facet glued twice")
            table[(t, f)] = (dest, perm)
            filled[t][f] = True
            filled[dest][perm[f]] = True
    if action_pos != len(actions) or join_pos != n_joins or next_new != n:
        raise MalformedSignature("inconsistent gluing stream")

    closed = all(all(row) for row in filled)
    try:
        return Triangulation(n, table, closed=closed)
    except InvalidTriangulation as exc:
        raise MalformedSignature(f"inconsistent gluing stream: {exc}") from exc


def reference_decode(sig):
    """The decoder that read one character per call: the oracle for
    ``isosig.decode``."""
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


def reference_orbits(tri, width, moves_of):
    """Signed orbits of the ``width * n`` items ``width * t + i``
    under the gluings; ``moves_of[perm][f]`` lists the moves that
    the gluing of face ``f`` by ``perm`` makes on one tetrahedron's
    items.  The move-list path that derived every class before the
    step-table walk: the oracle for ``triangulation._walk``."""
    moves = []
    for t, row in enumerate(tri.gluings):
        for f, g in enumerate(row):
            if g is not None:
                base, base2 = width * t, width * g[0]
                moves += [(base + i, base2 + j, flip)
                          for i, j, flip in moves_of[g[1]][f]]
    return _signed_orbits(width * tri.n, moves)


def reference_face_classes(tri):
    """Face classes found with a seen-set, in face order."""
    classes = []
    seen = set()
    for t in range(tri.n):
        for f in range(4):
            if (t, f) in seen:
                continue
            g = tri.gluings[t][f]
            sides = ((t, f),) if g is None else ((t, f), (g[0], g[1][f]))
            classes.append(FaceClass(len(classes), sides, g is None))
            seen.update(sides)
    return tuple(classes)


def reference_face_types(tri, edges):
    """The type of each face class, read off the quotient of its
    triangle under the reference edge classes ``edges``: three classes
    give a triangle; one gives a 3-fold face when its three arcs run
    the same way round, else a dunce hat; two identify one pair of
    arcs, and the face is a Moebius band when that leaves one vertex
    (Euler characteristic 0), else a cone."""
    arc = {}
    for e in edges:
        for t, (a, b), s in e.occurrences:
            arc[(t, a, b)], arc[(t, b, a)] = (e.index, s), (e.index, -s)
    types = {}
    for fc in reference_face_classes(tri):
        t, f = fc.sides[0]
        a, b, c = [v for v in range(4) if v != f]
        cycle = [(a, b), (b, c), (c, a)]
        arcs = [arc[(t, x, y)] for x, y in cycle]
        classes = len({k for k, _ in arcs})
        if classes == 3:
            types[fc.index] = FaceType.TRIANGLE
        elif classes == 1:
            same = len({s for _, s in arcs}) == 1
            types[fc.index] = FaceType.THREEFOLD if same else FaceType.DUNCE
        else:
            i, j = next((i, j) for i in range(3) for j in range(i + 1, 3)
                        if arcs[i][0] == arcs[j][0])
            (p, q), (r, u) = cycle[i], cycle[j]
            glued = [(p, r), (q, u)] if arcs[i][1] == arcs[j][1] \
                else [(p, u), (q, r)]
            parent = {a: a, b: b, c: c}

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            for x, y in glued:
                parent[find(x)] = find(y)
            one_vertex = len({find(v) for v in parent}) == 1
            types[fc.index] = FaceType.MOEBIUS if one_vertex else FaceType.CONE
    return types


# The dict-keyed walks that derived the edge and vertex classes and the
# orientation before the signed-orbit kernel.  The differential oracle
# for ``Triangulation.edge_classes``, ``vertex_classes`` and
# ``orientation_signs``.

def reference_edge_classes(tri):
    """Edge classes and the slot -> class map, or raises InvalidEdge."""
    classes = []
    slot_class = {}
    for t0 in range(tri.n):
        for a0 in range(4):
            for b0 in range(a0 + 1, 4):
                if (t0, a0, b0) in slot_class:
                    continue
                # BFS over ordered pairs, seeded positively at the
                # lexicographically least slot of the orbit.
                signs = {(t0, a0, b0): 1}
                queue = [(t0, a0, b0)]
                while queue:
                    t, a, b = queue.pop()
                    lo, hi = min(a, b), max(a, b)
                    s = signs[(t, lo, hi)] if (a, b) == (lo, hi) else -signs[(t, lo, hi)]
                    for f in range(4):
                        if f == a or f == b:
                            continue
                        g = tri.gluings[t][f]
                        if g is None:
                            continue
                        t2, perm = g
                        a2, b2 = perm[a], perm[b]
                        lo2, hi2 = min(a2, b2), max(a2, b2)
                        s2 = s if (a2, b2) == (lo2, hi2) else -s
                        key = (t2, lo2, hi2)
                        if key in signs:
                            if signs[key] != s2:
                                raise InvalidEdge(
                                    f"edge ({t0},{{{a0},{b0}}}) identified "
                                    "with itself in reverse")
                        else:
                            signs[key] = s2
                            queue.append((t2, a2, b2))
                occs = sorted(signs.items())
                boundary = any(
                    tri.gluings[t][f] is None
                    for (t, a, b), _ in occs
                    for f in range(4) if f != a and f != b)
                cls = EdgeClass(
                    index=len(classes),
                    occurrences=tuple((t, (a, b), s) for (t, a, b), s in occs),
                    boundary=boundary)
                classes.append(cls)
                for (t, a, b), _ in occs:
                    slot_class[(t, a, b)] = cls.index
    return tuple(classes), slot_class


def reference_vertex_classes(tri):
    """Vertex classes and the corner -> class map."""
    corner_class = {}
    orbits = []
    for t0 in range(tri.n):
        for v0 in range(4):
            if (t0, v0) in corner_class:
                continue
            orbit = {(t0, v0)}
            queue = [(t0, v0)]
            while queue:
                t, v = queue.pop()
                for f in range(4):
                    if f == v:
                        continue
                    g = tri.gluings[t][f]
                    if g is None:
                        continue
                    t2, perm = g
                    key = (t2, perm[v])
                    if key not in orbit:
                        orbit.add(key)
                        queue.append(key)
            idx = len(orbits)
            orbits.append(sorted(orbit))
            for c in orbit:
                corner_class[c] = idx

    # Corner-of-link-triangle orbits: (t, v, w) is the corner of the
    # link triangle at (t, v) sitting on edge {v, w}.
    end_class = {}
    n_end_orbits = [0] * len(orbits)
    for t0 in range(tri.n):
        for v0 in range(4):
            for w0 in range(4):
                if v0 == w0 or (t0, v0, w0) in end_class:
                    continue
                orbit = {(t0, v0, w0)}
                queue = [(t0, v0, w0)]
                while queue:
                    t, v, w = queue.pop()
                    for f in range(4):
                        if f == v or f == w:
                            continue
                        g = tri.gluings[t][f]
                        if g is None:
                            continue
                        t2, perm = g
                        key = (t2, perm[v], perm[w])
                        if key not in orbit:
                            orbit.add(key)
                            queue.append(key)
                vi = corner_class[(t0, v0)]
                n_end_orbits[vi] += 1
                for c in orbit:
                    end_class[c] = True

    # Sides of link triangles: (t, v, f) lies in face f; it is glued
    # to (t2, perm[v], perm[f]) when face f is glued.
    classes = []
    for idx, orbit in enumerate(orbits):
        faces = len(orbit)
        glued_sides = 0
        free_sides = 0
        for (t, v) in orbit:
            for f in range(4):
                if f == v:
                    continue
                if tri.gluings[t][f] is None:
                    free_sides += 1
                else:
                    glued_sides += 1
        edges = glued_sides // 2 + free_sides
        euler = n_end_orbits[idx] - edges + faces
        orientable = reference_link_orientable(tri, orbit)
        classes.append(VertexClass(
            index=idx,
            corners=tuple(orbit),
            link_euler=euler,
            link_orientable=orientable,
            link_closed=(free_sides == 0)))
    return tuple(classes), corner_class


def reference_link_orientable(tri, orbit):
    # Reference orientation of the link triangle at (t, v): the cyclic
    # order of its corner labels sorted increasingly.
    def successor(v, x):
        labels = [i for i in range(4) if i != v]
        return labels[(labels.index(x) + 1) % 3]

    eps = {orbit[0]: 1}
    queue = [orbit[0]]
    ok = True
    while queue:
        t, v = queue.pop()
        labels = [i for i in range(4) if i != v]
        for f in labels:
            g = tri.gluings[t][f]
            if g is None:
                continue
            t2, perm = g
            v2 = perm[v]
            x, y = [i for i in labels if i != f]
            d_a = 1 if successor(v, x) == y else -1
            d_b = 1 if successor(v2, perm[x]) == perm[y] else -1
            val = -eps[(t, v)] * d_a * d_b
            key = (t2, v2)
            if key in eps:
                if eps[key] != val:
                    ok = False
            else:
                eps[key] = val
                queue.append(key)
    return ok


def reference_orientation_signs(tri):
    """Coherent orientation signs per tetrahedron, or None."""
    signs = {0: 1}
    queue = [0]
    while queue:
        t = queue.pop()
        for f in range(4):
            g = tri.gluings[t][f]
            if g is None:
                continue
            t2, perm = g
            val = -sign(perm) * signs[t]
            if t2 in signs:
                if signs[t2] != val:
                    return None
            else:
                signs[t2] = val
                queue.append(t2)
    return tuple(signs[t] for t in range(tri.n))


# ``relabelled`` before it ran on the S4-index kernel.

def reference_relabelled(tri, tet_map, vertex_maps):
    """Apply an isomorphism gluing by gluing, over permutation tuples:
    the oracle for ``relabelled`` and its kernel ``_relabel_rows``."""
    gluings = {}
    for t in range(tri.n):
        for f in range(4):
            g = tri.gluings[t][f]
            if g is None:
                continue
            t2, perm = g
            new_perm = compose(vertex_maps[t2],
                               compose(perm, inverse(vertex_maps[t])))
            gluings[(tet_map[t], vertex_maps[t][f])] = (tet_map[t2], new_perm)
    return Triangulation(tri.n, gluings, closed=tri.is_closed)


# The walks that searched for isomorphisms, components and the boundary
# surface before they ran on the labelling and signed-orbit kernels, with
# the disc orientations ``components`` read off boundary cycles before it
# flipped them by the gluing's parity.  The differential oracles for
# ``find_isomorphism``, ``components`` and ``boundary_surface``.

def reference_find_isomorphism(t1, t2):
    """A combinatorial isomorphism t1 -> t2, or None.

    Returns (tet_map, vertex_maps): tetrahedron t of t1 corresponds to
    tet_map[t] of t2 with vertices relabelled by vertex_maps[t].
    """
    if t1.n != t2.n:
        return None
    for t0 in range(t2.n):
        for p0 in S4:
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


def _boundary_cycle(kind, t, label):
    """The boundary of a disc as face -> (entry edge, exit edge)."""
    if kind == "tri":
        v = label
        w1, w2, w3 = [x for x in range(4) if x != v]
        cycle = [(w3, frozenset((v, w1)), frozenset((v, w2))),
                 (w1, frozenset((v, w2)), frozenset((v, w3))),
                 (w2, frozenset((v, w3)), frozenset((v, w1)))]
    else:
        i = label
        j, k = sorted({1, 2, 3} - {i})
        e1, e2 = frozenset((0, j)), frozenset((0, k))
        e3, e4 = frozenset((i, k)), frozenset((i, j))
        cycle = [(i, e1, e2), (j, e2, e3), (0, e3, e4), (k, e4, e1)]
    return {face: (enter, leave) for face, enter, leave in cycle}


def _reference_union_find(surface):
    """Disc sheets, their index, the union-find over matched arcs, and
    the arcs as (sheet_a, sheet_b, parity)."""
    tri = surface.tri
    sheets = _disc_sheets(surface)
    index = {s: i for i, s in enumerate(sheets)}
    parent = list(range(len(sheets)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    # matched arcs: (sheet_a, sheet_b, parity)
    arcs = []
    for fc in tri.face_classes:
        (t, f), (t2, f2) = fc.sides
        perm = tri.gluings[t][f][1]
        for v in range(4):
            if v == f:
                continue
            side_a = _arc_stack(surface, t, f, v)
            side_b = _arc_stack(surface, t2, f2, perm[v])
            if len(side_a) != len(side_b):
                raise SurfaceError("arc stacks mismatch across a gluing")
            for sa, sb in zip(side_a, side_b):
                cyc_a = _boundary_cycle(sa[0], sa[1], sa[2])
                cyc_b = _boundary_cycle(sb[0], sb[1], sb[2])
                enter_a, leave_a = cyc_a[f]
                enter_b, leave_b = cyc_b[f2]
                image = frozenset(perm[x] for x in enter_a)
                if image == enter_b:
                    parity = 1      # same traversal direction
                elif image == leave_b:
                    parity = -1
                else:
                    raise SurfaceError("arc endpoints scrambled by a gluing")
                arcs.append((index[sa], index[sb], parity))
                union(index[sa], index[sb])
    return sheets, index, find, arcs


def reference_components(surface):
    """Connected components with Euler characteristic and orientability,
    listed in the order of their union-find roots.

    Orientability is by a two-sheeted orientation cover over the disc
    adjacency graph: a component is non-orientable exactly when its
    cover is connected.
    """
    sheets, index, find, arcs = _reference_union_find(surface)

    # orientation cover: eps[sheet] in {+1,-1}; joined arcs must induce
    # opposite directions, so eps_b = -parity * eps_a.
    eps = {}
    adjacency = {}
    for a, b, parity in arcs:
        adjacency.setdefault(a, []).append((b, parity))
        adjacency.setdefault(b, []).append((a, parity))
    orientable_root = {}
    for start in range(len(sheets)):
        if start in eps:
            continue
        eps[start] = 1
        ok = True
        queue = [start]
        while queue:
            x = queue.pop()
            for y, parity in adjacency.get(x, ()):
                val = -parity * eps[x]
                if y in eps:
                    if eps[y] != val:
                        ok = False
                else:
                    eps[y] = val
                    queue.append(y)
        root = find(start)
        orientable_root[root] = orientable_root.get(root, True) and ok

    return _reference_assemble(surface, sheets, index, find, arcs,
                               orientable_root)


def reference_least_sheets(surface):
    """The least disc sheet of each ``reference_components`` component,
    in the order that function lists them."""
    sheets, _, find, _ = _reference_union_find(surface)
    least = {}
    for i in range(len(sheets)):
        least.setdefault(find(i), i)
    return [least[root] for root in sorted(least)]


def _reference_assemble(surface, sheets, index, find, arcs, orientable_root):
    tri = surface.tri
    discs = {}
    for s in sheets:
        discs[find(index[s])] = discs.get(find(index[s]), 0) + 1
    arcs_per = {}
    for a, _b, _p in arcs:
        arcs_per[find(a)] = arcs_per.get(find(a), 0) + 1

    # 0-cells: points along each edge class, heights taken from the
    # positive end; each incident slot stacks triangle-at-min, quads,
    # triangle-at-max from the smaller vertex.
    points_per = {}
    weights = surface.edge_weights()
    for e in tri.edge_classes:
        w = weights[e.index]
        if w == 0:
            continue
        roots_at_height = [set() for _ in range(w)]
        for t, (a, b), sign in e.occurrences:
            stack = [("tri", t, a, k) for k in range(surface.triangles[t][a])]
            qt = quad_type_of_pair(a, b)
            for i in (1, 2, 3):
                if i == qt:
                    continue
                # the quad of type i separates a from b; copy 0 sits on
                # the {0, i} side, so the order from a flips when a is
                # on the far side
                copies = range(surface.quads[t][i - 1])
                if a != 0 and a != i:
                    copies = reversed(copies)
                stack.extend(("quad", t, i, k) for k in copies)
            stack.extend(("tri", t, b, k)
                         for k in reversed(range(surface.triangles[t][b])))
            if sign == -1:
                stack.reverse()
            for h, sheet in enumerate(stack):
                roots_at_height[h].add(find(index[sheet]))
        for h in range(w):
            if len(roots_at_height[h]) != 1:
                raise SurfaceError("edge point meets several components")
            root = roots_at_height[h].pop()
            points_per[root] = points_per.get(root, 0) + 1

    comps = []
    for root in sorted(discs):
        chi = points_per.get(root, 0) - arcs_per.get(root, 0) + discs[root]
        comps.append(SurfaceComponent(
            euler=chi,
            orientable=orientable_root.get(root, True),
            discs=discs[root]))
    return SurfaceComponents(surface=surface, components=tuple(comps))


def reference_boundary_surface(tri):
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


def reference_enumerate_complexes(n, predicate=None, boundary_faces=0):
    """All connected complexes on n tetrahedra, up to isomorphism.

    ``boundary_faces`` fixes the number of unglued faces (0 gives closed
    pseudo-manifolds; None allows any number).  Invalid gluings (broken
    involutions, reversed edges, disconnected results) are skipped;
    ``predicate`` filters the valid ones.  Returns a dict mapping the
    canonical signature to one representative.
    """
    if n < 1:
        raise ValueError("need at least one tetrahedron")
    if n > 2:
        raise ValueError("exhaustive enumeration is desk-scale: n <= 2")
    faces = [(t, f) for t in range(n) for f in range(4)]
    results = {}

    def validate(pairs):
        gluings = {}
        for (t1, f1), (t2, f2), perm in pairs:
            gluings[(t1, f1)] = (t2, perm)
        free_count = 4 * n - 2 * len(pairs)
        try:
            tri = Triangulation(n, gluings, closed=(free_count == 0))
            tri.edge_classes
        except InvalidTriangulation:
            return
        if predicate is not None and not predicate(tri):
            return
        sig = encode_canonical(tri)
        if sig not in results:
            results[sig] = tri

    def recurse(unmatched, pairs, free_left):
        if not unmatched:
            if free_left is None or free_left == 0:
                validate(pairs)
            return
        first = unmatched[0]
        rest = unmatched[1:]
        if free_left is None or free_left > 0:
            next_free = None if free_left is None else free_left - 1
            recurse(rest, pairs, next_free)
        for i, other in enumerate(rest):
            remaining = rest[:i] + rest[i + 1:]
            for perm in _PERMS_TAKING[first[1]][other[1]]:
                recurse(remaining, pairs + [(first, other, perm)], free_left)

    recurse(faces, [], boundary_faces)
    return results


# (n, boundary_faces) -> the tables of the valid leaves the unpruned walk
# reaches, in its order, kept for the session; rows are shared.
_VALID_TABLES = {}
_ROWS = {}


def reference_walk(n, predicate, boundary_faces):
    """``reference_enumerate_complexes(n, predicate, boundary_faces)``,
    recording the valid leaves it reaches for ``reference_valid_leaves``."""
    tables = []

    def record(tri):
        tables.append(tuple(_ROWS.setdefault(row, row) for row in tri.gluings))
        return predicate is None or predicate(tri)

    results = reference_enumerate_complexes(n, record, boundary_faces)
    _VALID_TABLES.setdefault((n, boundary_faces), tables)
    return results


def reference_valid_leaves(n, boundary_faces):
    """Every valid connected table the unpruned walk reaches, as a
    triangulation, in the order it reaches them.  The walk runs at most
    once per ``(n, boundary_faces)`` in a session."""
    if (n, boundary_faces) not in _VALID_TABLES:
        reference_walk(n, lambda tri: False, boundary_faces)
    return [_from_table(rows) for rows in _VALID_TABLES[n, boundary_faces]]


def reference_results(n, predicate, boundary_faces):
    """What ``reference_enumerate_complexes`` returns, derived from
    ``reference_valid_leaves``: the first leaf of each signature among
    the leaves that pass ``predicate``."""
    results = {}
    for tri in reference_valid_leaves(n, boundary_faces):
        if predicate is None or predicate(tri):
            results.setdefault(encode_canonical(tri), tri)
    return results


# ---------------------------------------------------------------------------
# monodromy bundles by Farey-slope tracking

def _mat_vec(m, v):
    return (m[0][0] * v[0] + m[0][1] * v[1],
            m[1][0] * v[0] + m[1][1] * v[1])


def _normalize(v):
    x, y = v
    if x < 0 or (x == 0 and y < 0):
        x, y = -x, -y
    return (x, y)


def _fibre_triples(word):
    """The Farey triple of the fibre after each letter's flip: the
    initial slopes moved by the product of the letters so far."""
    triple = [(0, 1), (1, 0), (1, 1)]
    triples = [frozenset(triple)]
    m = IDENT
    for letter in word:
        m = _mat_mul(m, R_MAT if letter == "R" else L_MAT)
        triples.append(frozenset(_normalize(_mat_vec(m, v)) for v in triple))
    return triples


# The two-encode closure: both closures of the layered table encoded
# in full, one after the other.  The differential oracle for the paired
# search of ``idealtri.monodromy.build_bundle``.

def reference_least_closure(word):
    """The closures of ``word`` through A and -A, each encoded by
    ``encode_canonical``: keep the least signature, and on a tie the
    closure through A."""
    analysis = word_analysis(word)
    closures = [_closure(word, twist) for twist in (IDENTITY, _ELLIPTIC)]
    signature, tri = min(((encode_canonical(t), t) for t in closures),
                         key=lambda c: c[0])
    return BundleTriangulation(tri=tri, analysis=analysis,
                               signature=signature)


class _ReferenceFibre:
    """The two free faces of the tower top, with slopes per face edge."""

    def __init__(self, face_a, face_b, slopes_a, slopes_b):
        self.face_a = face_a          # (tet, face)
        self.face_b = face_b
        self.slopes_a = slopes_a      # {frozenset pair: slope}
        self.slopes_b = slopes_b


def reference_build_bundle(word):
    """The slope-tracking construction of ``monodromy.build_bundle``: layer
    one tetrahedron per letter through ``lst.layer_tetrahedron``, tracking
    the Farey slope of every fibre edge, and match the closing faces slope
    by slope; keep the least signature among the admissible closures."""
    analysis = word_analysis(word)
    triples = _fibre_triples(word)
    for level in range(len(word)):
        if len(triples[level] - triples[level + 1]) != 1:
            raise AssertionError("letter does not induce a diagonal flip")

    # Tetrahedron 0: bottom faces 3 = {0,1,2} and 2 = {0,1,3} form fibre
    # 0, top faces 0 = {1,2,3} and 1 = {0,2,3} form fibre 1.  The bottom
    # diagonal {0,1} carries the first flipped slope; side pairs
    # {0,2}/{1,3} and {1,2}/{0,3} carry the kept slopes.
    tri = Triangulation(1, {}, closed=False)
    (removed,) = triples[0] - triples[1]
    (added,) = triples[1] - triples[0]
    k1, k2 = sorted(triples[0] - {removed})
    fibre0 = _ReferenceFibre(
        (0, 3), (0, 2),
        {frozenset((0, 1)): removed, frozenset((0, 2)): k1,
         frozenset((1, 2)): k2},
        {frozenset((0, 1)): removed, frozenset((1, 3)): k1,
         frozenset((0, 3)): k2})
    fibre = _ReferenceFibre(
        (0, 0), (0, 1),
        {frozenset((2, 3)): added, frozenset((1, 3)): k1,
         frozenset((1, 2)): k2},
        {frozenset((2, 3)): added, frozenset((0, 2)): k1,
         frozenset((0, 3)): k2})

    for level in range(1, len(word)):
        tri, fibre = _reference_layer_step(tri, fibre, triples, level)

    return _reference_close_bundle(tri, analysis, triples, fibre, fibre0)


def _reference_layer_step(tri, fibre, triples, level):
    (removed,) = triples[level] - triples[level + 1]
    (added,) = triples[level + 1] - triples[level]

    pair_a = next(p for p, s in fibre.slopes_a.items() if s == removed)
    pair_b = next(p for p, s in fibre.slopes_b.items() if s == removed)
    ta, fa = fibre.face_a
    tb, fb = fibre.face_b
    xa = next(v for v in range(4) if v != fa and v not in pair_a)
    xb = next(v for v in range(4) if v != fb and v not in pair_b)

    # Direct the layered edge.  The crossing rule below fixes the
    # relative direction, and the absolute choice is a relabelling of the
    # new tetrahedron.  If the two slots already lie in one edge class
    # with opposite directions, the edge stays reversed in every closure,
    # which ``_reference_close_bundle`` rejects.
    u1, v1 = sorted(pair_a)
    # crossing: the tail neighbour in face a and the head neighbour in
    # face b must carry the same slope (they become one side pair).
    tail_slope = fibre.slopes_a[frozenset((u1, xa))]
    p, q = sorted(pair_b)
    if fibre.slopes_b[frozenset((q, xb))] == tail_slope:
        u2, v2 = p, q
    else:
        u2, v2 = q, p
    if fibre.slopes_b[frozenset((v2, xb))] != tail_slope:
        raise AssertionError("no crossing-compatible direction")

    new = layer_tetrahedron(tri, (ta, fa, (u1, v1)), (tb, fb, (u2, v2)))
    t = new.n - 1

    # New side pairs: {0,2}/{1,3} inherits the tail-neighbour slope,
    # {1,2}/{0,3} the head-neighbour slope.
    head_slope = fibre.slopes_a[frozenset((v1, xa))]
    if fibre.slopes_b[frozenset((u2, xb))] != head_slope:
        raise AssertionError("head slopes disagree across the fibre")
    new_fibre = _ReferenceFibre(
        (t, 0), (t, 1),
        {frozenset((2, 3)): added, frozenset((1, 3)): tail_slope,
         frozenset((1, 2)): head_slope},
        {frozenset((2, 3)): added, frozenset((0, 2)): tail_slope,
         frozenset((0, 3)): head_slope})
    return new, new_fibre


def _reference_close_bundle(tri, analysis, triples, fibre, fibre0):
    n = len(analysis.word)
    a_mat = analysis.matrix

    top = frozenset(fibre.slopes_a.values()) | frozenset(fibre.slopes_b.values())
    expected = frozenset(_normalize(_mat_vec(a_mat, v))
                         for v in [(0, 1), (1, 0), (1, 1)])
    if top != expected or top != triples[n]:
        raise AssertionError("final fibre slopes do not match the monodromy")

    def match_face(top_face, top_slopes, bottom_face, bottom_slopes):
        tt, tf = top_face
        bt, bf = bottom_face
        tverts = [v for v in range(4) if v != tf]
        bverts = [v for v in range(4) if v != bf]
        mapping = {}
        for v in tverts:
            mine = {_normalize(top_slopes[frozenset((v, w))])
                    for w in tverts if w != v}
            target = None
            for bv in bverts:
                theirs = {_normalize(_mat_vec(a_mat, bottom_slopes[frozenset((bv, w))]))
                          for w in bverts if w != bv}
                if theirs == mine:
                    target = bv
                    break
            if target is None:
                return None
            mapping[v] = target
        if len(set(mapping.values())) != 3:
            return None
        mapping[tf] = bf
        return tuple(mapping[v] for v in range(4))

    candidates = []
    bottoms = [(fibre0.face_a, fibre0.slopes_a), (fibre0.face_b, fibre0.slopes_b)]
    for first, second in [(0, 1), (1, 0)]:
        perm_a = match_face(fibre.face_a, fibre.slopes_a, *bottoms[first])
        perm_b = match_face(fibre.face_b, fibre.slopes_b, *bottoms[second])
        if perm_a is None or perm_b is None:
            continue
        rows = [list(row) for row in tri.gluings]
        for (t, f), ((b, _), _), perm in (
                (fibre.face_a, bottoms[first], perm_a),
                (fibre.face_b, bottoms[second], perm_b)):
            rows[t][f] = (b, perm)
            rows[b][perm[f]] = (t, inverse(perm))
        try:
            closed = _from_table(rows)
            closed.edge_classes
        except InvalidTriangulation:
            continue
        if not closed.is_orientable:
            continue
        if len(closed.vertex_classes) != 1:
            continue
        if not closed.vertex_classes[0].is_torus_link:
            continue
        if any(e.degree % 2 for e in closed.edge_classes):
            continue
        candidates.append((encode_canonical(closed), closed))

    if not candidates:
        raise AssertionError("no admissible monodromy closure found")
    # Slopes are direction-blind, so the closures through A and -A both
    # appear; they are the factorisations of the two signs of the
    # monodromy.  Take the lexicographically least signature for a
    # deterministic, rotation-stable choice.
    signature, best = min(candidates, key=lambda c: c[0])
    return BundleTriangulation(tri=best, analysis=analysis,
                               signature=signature)


# The hand-built bistellar moves: explicit gluing tables for each move,
# spliced in by one cluster surgery.  The differential oracle for
# ``idealtri.moves.apply_move``.

def reference_apply_move(tri, site):
    if site.kind == "2-3":
        return _reference_two_three(tri, site.index)
    if site.kind == "3-2":
        return _reference_three_two(tri, site.index)
    if site.kind == "4-4":
        return _reference_four_four(tri, site.index, site.axis)
    raise MoveError(f"unknown move kind {site.kind!r}")


def _reference_replace_cluster(tri, cluster, new_count, internal, interface):
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


# 2-3

def _reference_two_three(tri, face_class):
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

    return _reference_replace_cluster(tri, {ta, tb}, 3, internal, interface)


# ---------------------------------------------------------------------------
# 3-2

def _reference_three_two(tri, edge_class):
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
    return _reference_replace_cluster(tri, tets, 2, internal, interface)


# ---------------------------------------------------------------------------
# 4-4

def _reference_four_four(tri, edge_class, axis):
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
    return _reference_replace_cluster(tri, tets, 4, internal, interface)


# The per-slot readers of the Z2 taxonomy, which read every edge slot
# through ``edge_class_of``/``edge_sign_of``: the differential oracles
# for the slot-mask tables of ``cohomology``, ``surfaces`` and
# ``triangulation.classify_face``.

def reference_tet_odd_slots(tri, phi, t):
    return {(a, b) for a in range(4) for b in range(a + 1, 4)
            if phi.value(tri.edge_class_of(t, a, b))}


def reference_classify_tet_rank1(tri, phi, t):
    """('q', even opposite pair) | ('t', apex) | ('e', None)."""
    odd = reference_tet_odd_slots(tri, phi, t)
    if not odd:
        return ("e", None)
    if len(odd) == 4:
        even = [(a, b) for a in range(4) for b in range(a + 1, 4)
                if (a, b) not in odd]
        (a, b), (c, d) = even
        if {a, b} | {c, d} == {0, 1, 2, 3}:
            return ("q", ((a, b), (c, d)))
    if len(odd) == 3:
        for v in range(4):
            if all(v in pair for pair in odd):
                return ("t", v)
    raise ParityError(f"tetrahedron {t} matches no rank-1 type")


def reference_classify_rank2(tri, phi1, phi2):
    if phi1.is_zero() or phi2.is_zero() or phi1.mask == phi2.mask:
        raise ParityError("colourings do not span a rank-2 subgroup")
    phi3 = phi1 + phi2
    phis = (phi1, phi2, phi3)

    labels = []
    for e in tri.edge_classes:
        vals = (phi1.value(e.index), phi2.value(e.index))
        labels.append({(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}[vals])

    by_tet = [tuple(reference_classify_tet_rank1(tri, p, t) for p in phis)
              for t in range(tri.n)]
    tet_types = []
    counts = {k: 0 for k in TET_TYPES}
    for t, types in enumerate(by_tet):
        kinds = tuple(kind for kind, _ in types)
        multiset = "".join(sorted(kinds))
        if multiset == "qqq":
            tet_types.append(("qqq", None))
        elif multiset == "qtt":
            tet_types.append(("qtt", kinds.index("q") + 1))
        elif multiset == "eqq":
            tet_types.append(("qq", kinds.index("e") + 1))
        elif multiset == "ett":
            tet_types.append(("tt", kinds.index("e") + 1))
        elif multiset == "eee":
            tet_types.append(("empty", None))
        else:
            raise ParityError(
                f"tetrahedron {t} has impossible rank-2 pattern {kinds}")
        key = tet_types[-1][0]
        counts[key] += 1

    e0 = sum(1 for lab in labels if lab == 0)
    e0_weighted = sum(tri.edge_classes[i].degree
                      for i, lab in enumerate(labels) if lab == 0)
    hist = {}
    for i, lab in enumerate(labels):
        if lab == 0:
            d = tri.edge_classes[i].degree
            hist[d] = hist.get(d, 0) + 1
    return RankTwoColouring(
        tri=tri, phi=phis, edge_labels=tuple(labels),
        tet_types=tuple(tet_types), rank1_types=tuple(zip(*by_tet)),
        counts=counts,
        e0=e0, e0_weighted=e0_weighted, e0_histogram=dict(sorted(hist.items())))


def reference_even_subcomplex_euler(rc):
    """Euler characteristic of the ideal subcomplex spanned by the
    0-even edges, counted directly from its cells."""
    tri = rc.tri
    even = {e.index for e in tri.edge_classes if rc.edge_labels[e.index] == 0}
    n_edges = len(even)
    n_faces = 0
    for fc in tri.face_classes:
        t, f = fc.sides[0]
        verts = [v for v in range(4) if v != f]
        slots = [tri.edge_class_of(t, verts[i], verts[(i + 1) % 3])
                 for i in range(3)]
        if all(s in even for s in slots):
            n_faces += 1
    n_tets = sum(1 for t in range(tri.n)
                 if all(tri.edge_class_of(t, a, b) in even
                        for a in range(4) for b in range(a + 1, 4)))
    return -n_edges + n_faces - n_tets


def reference_qqq_orientation_types(tri, rc):
    """The two oriented sub-types of all-quadrilateral tetrahedra.

    For each tetrahedron the induced boundary orientation of any face
    reads the three edge colours in a cyclic order; the order is the
    same for all four faces and distinguishes the two sub-types.
    Adjacent tetrahedra get opposite sub-types.
    """
    signs = tri.orientation_signs
    if signs is None:
        raise ParityError("orientation types need an orientable triangulation")
    types = []
    for t in range(tri.n):
        face_types = set()
        for f in range(4):
            x, y, z = [v for v in range(4) if v != f]
            if signs[t] * (-1) ** f < 0:
                x, y, z = x, z, y
            cols = (rc.edge_labels[tri.edge_class_of(t, x, y)],
                    rc.edge_labels[tri.edge_class_of(t, y, z)],
                    rc.edge_labels[tri.edge_class_of(t, z, x)])
            face_types.add(+1 if cols in ((1, 2, 3), (2, 3, 1), (3, 1, 2)) else -1)
        if len(face_types) != 1:
            raise IdentityError("face colour cycles disagree within a tetrahedron")
        types.append(face_types.pop())
    for t in range(tri.n):
        for f in range(4):
            t2, _ = tri.gluings[t][f]
            if types[t] == types[t2]:
                raise IdentityError(
                    "adjacent all-quadrilateral tetrahedra share a sub-type")
    return tuple(types)


def reference_euler_characteristic(surface):
    """chi from the induced cells: edge points - arcs + discs, with the
    arcs summed corner by corner."""
    tri = surface.tri
    vertices = surface.weight
    arcs = 0
    for fc in tri.face_classes:
        t, f = fc.sides[0]
        arcs += sum(surface.arcs(t, f, v) for v in range(4) if v != f)
    return vertices - arcs + surface.disc_count


def reference_classify_face(tri, t, f):
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


def reference_bounded_move_search(tri, max_tets, max_depth,
                                  max_nodes=200_000,
                                  admissible=closed_admissible):
    """``search.bounded_move_search`` as it was before the last level
    went unencoded: every image is built and encoded.

    Breadth-first exploration of the move graph under a size cap.

    Reports every canonical signature reached, whether any triangulation
    with fewer tetrahedra than the start satisfies the admissibility
    filter, and which cap cut the search, if any: ``"max_nodes"`` when
    a new signature came after ``max_nodes`` were seen, ``"max_depth"``
    when the frontier was still live at ``max_depth``.
    """
    if max_depth < 0:
        raise ValueError("search depth must be at least 0")
    start = encode_canonical(tri)
    # Signature -> number of tetrahedra.  Size and admissibility are
    # isomorphism invariants, so both are read off the triangulation
    # that first reaches a signature.
    seen = {start: tri.n}
    smaller = []
    frontier = [start]
    reason = None
    depth = 0
    for depth in range(1, max_depth + 1):
        next_frontier = []
        for sig in frontier:
            current = decode(sig)
            for site in enumerate_moves(current):
                if site.kind == "2-3" and current.n + 1 > max_tets:
                    continue
                image = apply_move(current, site)
                new_sig = encode_canonical(image)
                if new_sig in seen:
                    continue
                if len(seen) >= max_nodes:
                    reason = "max_nodes"
                    break
                seen[new_sig] = image.n
                if image.n < tri.n and admissible(image):
                    smaller.append(new_sig)
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
        reachable=frozenset(seen),
        min_tetrahedra=min(seen.values()),
        smaller_admissible=tuple(sorted(smaller)),
        depth_reached=depth,
        truncation_reason=reason)
