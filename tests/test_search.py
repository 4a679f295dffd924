"""Enumeration oracles and bounded move-graph search."""

import contextlib
import itertools
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from idealtri import (
    InvalidEdge, apply_move, bound_certificate, bounded_move_search,
    build_bundle, decode, encode_canonical, enumerate_complexes,
    enumerate_moves, lst_build, search, triangulation,
)
from idealtri.isosig import encode_with_automorphisms
from idealtri.monodromy import _ELLIPTIC, _closure
from idealtri.moves import image_degrees
from idealtri.perms import IDENTITY, S4
from idealtri.search import (
    PREDICATES, closed_admissible, has_interior_degree3_and_torus_boundary,
    random_move_walk, torus_links_only,
)
from idealtri.triangulation import _from_table, _relabel_rows, relabelled

from helpers import (
    assert_revalidates, random_admissible, random_complex,
    reference_bounded_move_search, reference_enumerate_complexes,
    reference_results, reference_valid_leaves, reference_walk,
)


def test_degree3_context_is_unique_and_is_lst134():
    found = enumerate_complexes(
        2, has_interior_degree3_and_torus_boundary, boundary_faces=2)
    assert len(found) == 1
    (sig,) = found
    assert sig == encode_canonical(lst_build("b").tri)


def test_two_tet_admissible_census():
    found = enumerate_complexes(2, closed_admissible, boundary_faces=0)
    # the two census triangulations appear, plus one further complex the
    # combinatorial filter cannot separate from them
    assert "cPcbbbiht" in found
    assert encode_canonical(build_bundle("RL").tri) in found
    assert sorted(found) == ["cPcbbbdei", "cPcbbbdxm", "cPcbbbiht"]


def test_no_one_tet_admissible_complex():
    assert enumerate_complexes(1, closed_admissible, boundary_faces=0) == {}


def test_one_tet_witnesses():
    # the full 1-tetrahedron enumeration supplies the small witnesses:
    # non-orientable gluings and non-torus links both occur
    everything = enumerate_complexes(1, None, boundary_faces=0)
    assert everything
    non_orientable = [t for t in everything.values() if not t.is_orientable]
    assert non_orientable
    bad_links = [t for t in everything.values()
                 if any(not v.is_torus_link for v in t.vertex_classes)]
    assert bad_links
    for tri in bad_links[:3]:
        assert any(v.link_euler != 0 or not v.link_orientable
                   for v in tri.vertex_classes)


def test_enumeration_cap():
    with pytest.raises(ValueError):
        enumerate_complexes(3, None)
    # a bool is not a count, and the free faces number 0 to 4n
    for args in [(True,), ("2",), (1.0,), (0,), (1, None, -1),
                 (1, None, 1.5), (1, None, True), (1, None, 5),
                 (2, None, 9)]:
        with pytest.raises(ValueError):
            enumerate_complexes(*args)
    assert len(enumerate_complexes(1, None, 4)) == 1     # one free tetrahedron


def test_enumeration_order_independent():
    # rerunning gives the same representatives in the same order
    a = enumerate_complexes(1, None, boundary_faces=None)
    b = enumerate_complexes(1, None, boundary_faces=None)
    assert a
    assert list(a.items()) == list(b.items())


def _orientable_only(predicate):
    return lambda tri: tri.is_orientable and (
        predicate is None or predicate(tri))


@pytest.mark.parametrize("name", sorted(PREDICATES))
def test_one_tet_enumeration_matches_unpruned_walk(name):
    predicate = PREDICATES[name]
    for boundary in (0, 1, 2, None):
        ref = reference_enumerate_complexes(1, predicate, boundary)
        found = enumerate_complexes(1, predicate, boundary)
        assert list(found.items()) == list(ref.items())
        ref = reference_enumerate_complexes(
            1, _orientable_only(predicate), boundary)
        found = enumerate_complexes(1, predicate, boundary, orientable=True)
        assert list(found.items()) == list(ref.items())


def _spy_leaves(monkeypatch):
    """The tables the enumerator adopts, and every table it marks as a
    relabelling of an adopted one, grouped by that leaf's table."""
    adopted, marked = [], {}

    def adopt(rows):
        adopted.append(_from_table(rows))
        return adopted[-1]

    def relabel(rows, tet_map, vertex_maps):
        table = _relabel_rows(rows, tet_map, vertex_maps)
        marked.setdefault(rows, set()).add(table)
        return table

    monkeypatch.setattr(search, "_from_table", adopt)
    monkeypatch.setattr(search, "_relabel_rows", relabel)
    return adopted, marked


def _marked_tables(marked):
    return set().union(*marked.values())


@pytest.mark.parametrize("orientable", [False, True])
def test_pruning_builds_no_doomed_leaf(monkeypatch, orientable):
    # every gluing with a reversed edge, and with `orientable` every
    # non-orientable one, is cut before its leaf is adopted or marked,
    # and every table adopted or marked is one the validating
    # constructor accepts
    adopted, marked = _spy_leaves(monkeypatch)
    for n, boundary in ((1, None), (2, 4)):
        enumerate_complexes(n, lambda tri: False, boundary, orientable)
    tables = _marked_tables(marked)
    assert adopted
    assert {tri.gluings for tri in adopted} <= tables
    for rows in tables:
        tri = _from_table(rows)
        assert_revalidates(tri)
        tri.edge_classes    # raises InvalidEdge on a reversed edge
        assert tri.is_orientable or not orientable


@pytest.mark.parametrize("boundary, predicate", [
    (0, torus_links_only), (2, has_interior_degree3_and_torus_boundary),
    (4, _orientable_only(None)), (6, None), (8, None)])
def test_reference_results_derive_from_valid_leaves(boundary, predicate):
    # The n = 2 reference results below are derived from the valid
    # leaves of one unpruned walk per boundary count; this direct run
    # checks the derivation, and records the leaves when it comes first.
    direct = reference_walk(2, predicate, boundary)
    derived = reference_results(2, predicate, boundary)
    assert list(derived.items()) == list(direct.items())
    assert bool(direct) == (boundary < 8)


@pytest.mark.parametrize("orientable", [False, True])
def test_two_tet_bounded_walk_matches_unpruned_walk(orientable):
    # the only walks that reach disconnected leaves with free faces
    found = {}
    for boundary in (4, 6, 8):
        predicate = _orientable_only(None) if orientable else None
        ref = reference_results(2, predicate, boundary)
        found[boundary] = enumerate_complexes(2, None, boundary, orientable)
        assert list(found[boundary].items()) == list(ref.items())
    assert found[8] == {}
    assert len(found[6]) == 1


@pytest.mark.parametrize("boundary", [0, 2])
def test_two_tet_orientable_walk_matches_unpruned_walk(boundary):
    # the walks in which most gluings join two faces of one tetrahedron
    # root, where the orientable walk tries only 3 of the 6 perms
    ref = reference_results(2, _orientable_only(None), boundary)
    found = enumerate_complexes(2, None, boundary, orientable=True)
    assert list(found.items()) == list(ref.items())


def test_perms_by_flip_split_each_face_pair_by_tetrahedron_flip():
    for f1, f2 in itertools.product(range(4), repeat=2):
        taking = search._PERMS_TAKING[f1][f2]
        by_flip = search._PERMS_BY_FLIP[f1][f2]
        assert len(by_flip) == 2
        for flip, perms in enumerate(by_flip):
            assert len(perms) == 3
            # the perms of `taking` with this flip, in its order
            assert perms == tuple(
                p for p in taking
                if triangulation._TET_MOVES[p][f1] == ((0, 0, bool(flip)),))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
@example(1, 1)      # one vertex, a sphere link, 2 edge classes
@example(2, 12)     # one vertex, a torus link, 2 edge classes
@example(3, 4)      # one vertex, a genus-2 link, 2 edge classes
@example(3, 25)     # one vertex, a torus link, 3 edge classes
def test_one_vertex_torus_link_iff_n_edge_classes(n, seed):
    # The identity behind the enumerator's E = n cut for
    # closed_admissible: a closed complex has chi = V - E + n = sum over
    # its vertices of 1 - chi(link)/2, and orientable links when it is
    # orientable.
    tri = random_complex(random.Random(seed), n, closed=True)
    try:
        vertices, edges = tri.vertex_classes, tri.edge_classes
    except InvalidEdge:
        return
    # the corner moves, their flips ignored, find the vertex classes
    parent = list(range(4 * n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for t, row in enumerate(tri.gluings):
        for f, (t2, perm) in enumerate(row):
            for v, w, _ in triangulation._CORNER_MOVES[perm][f]:
                parent[find(4 * t + v)] = find(4 * t2 + w)
    assert sum(parent[c] == c for c in range(4 * n)) == len(vertices)
    if not tri.is_orientable:
        return
    one = len(vertices) == 1
    assert (one and vertices[0].is_torus_link) == (one and len(edges) == n)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
@example(2, 12)     # one vertex, a torus link, 2 edge classes
@example(3, 25)     # one vertex, a torus link, 3 edge classes
@example(4, 311)    # one vertex, a torus link, 4 edge classes
@example(4, 7411)   # two vertices, torus links, 4 edge classes
def test_torus_links_force_n_edge_classes(n, seed):
    # The cut the torus_links_only walk makes: a closed orientable
    # complex has chi = V - E + n = sum over its vertices of
    # 1 - chi(link)/2, which is V when every link is a torus.
    tri = random_complex(random.Random(seed), n, closed=True)
    try:
        vertices, edges = tri.vertex_classes, tri.edge_classes
    except InvalidEdge:
        return
    if tri.is_orientable and all(v.is_torus_link for v in vertices):
        assert len(edges) == n


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_a_gluing_within_one_edge_class_closes_it(n, closed, seed):
    # The count the enumerator keeps: glued one at a time, an edge move
    # between two slots of one class pairs its last two unglued face
    # sides, so that class is interior, with its size as degree, and
    # every interior class closes exactly once.
    tri = random_complex(random.Random(seed), n, closed=closed)
    try:
        edges = tri.edge_classes
    except InvalidEdge:
        return
    parent = list(range(6 * n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    closings = []
    for t, row in enumerate(tri.gluings):
        for f, glued in enumerate(row):
            if glued is None or (glued[0], glued[1][f]) < (t, f):
                continue            # free, or met from its other side
            t2, perm = glued
            for i, j, _ in triangulation._EDGE_MOVES[perm][f]:
                a, b = find(6 * t + i), find(6 * t2 + j)
                if a == b:
                    closings.append(
                        (tri.edge_class_of(t, *triangulation._PAIRS[i]),
                         sum(find(e) == a for e in range(6 * n))))
                parent[a] = b
    interior = sorted((e.index, e.degree) for e in edges if not e.boundary)
    assert sorted(closings) == interior


@pytest.mark.parametrize("orientable", [False, True])
def test_admissible_walk_adopts_exactly_the_admissible_leaves(
        monkeypatch, orientable):
    # closed_admissible and torus_links_only cut by their edge counts:
    # every leaf adopted or marked passes the predicate, and no
    # connected leaf that passes it is missed.  The unfiltered walk
    # marks every connected leaf; a predicate that rejects them all
    # saves encoding each class.
    adopted, marked = _spy_leaves(monkeypatch)
    for n in (1, 2):
        marked.clear()
        enumerate_complexes(n, lambda tri: False, 0, orientable)
        connected = [_from_table(rows) for rows in _marked_tables(marked)]
        assert connected
        for predicate in (closed_admissible, torus_links_only):
            adopted.clear()
            marked.clear()
            enumerate_complexes(n, predicate, 0, orientable)
            kept = _marked_tables(marked)
            assert {tri.gluings for tri in adopted} <= kept
            assert all(predicate(_from_table(rows)) for rows in kept)
            passing = {tri.gluings for tri in connected if predicate(tri)}
            assert passing == kept
            assert bool(kept) == (n == 2)


@pytest.mark.parametrize("predicate, boundary", [
    (closed_admissible, 0), (torus_links_only, 0),
    (closed_admissible, 2), (torus_links_only, 2)])
def test_two_tet_counted_walks_match_unpruned_walk(predicate, boundary):
    # the walks cut by their edge counts; both predicates reject
    # non-orientable complexes, so one reference run serves both settings
    ref = list(reference_results(2, predicate, boundary).items())
    for orientable in (False, True):
        found = enumerate_complexes(2, predicate, boundary, orientable)
        assert list(found.items()) == ref


@pytest.mark.parametrize("predicate, orientable, classes", [
    (closed_admissible, True, 3), (torus_links_only, True, 10),
    (None, False, 61)])
def test_two_tet_walk_encodes_one_leaf_per_class(
        monkeypatch, predicate, orientable, classes):
    encodes = []

    def spy(tri):
        encodes.append(tri)
        return encode_canonical(tri)

    monkeypatch.setattr(search, "encode_canonical", spy)
    assert len(enumerate_complexes(2, predicate, 0, orientable)) == classes
    assert len(encodes) == classes


@pytest.mark.parametrize("name, boundary, classes, kept", [
    ("degree3-lst-context", 2, 77, 1), ("closed-admissible", 0, 3, 3),
    ("torus-links", 0, 10, 10)], ids=["degree3-lst-context",
                                      "closed-admissible", "torus-links"])
def test_walk_asks_its_predicate_once_per_class(
        monkeypatch, name, boundary, classes, kept):
    # one predicate call per class reached: the degree-3 walk reaches
    # all 77 classes of its 60,768 valid leaves, and the counted walks
    # only the classes their cuts leave.  The spy replaces the module
    # attribute, so the walk still knows a counted predicate and cuts.
    original = PREDICATES[name]
    asked = []

    def predicate(tri):
        asked.append(tri)
        return original(tri)

    monkeypatch.setattr(search, original.__name__, predicate)
    assert len(enumerate_complexes(2, predicate, boundary)) == kept
    assert len(asked) == classes
    if boundary:
        assert len(enumerate_complexes(2, None, boundary)) == classes


@pytest.mark.parametrize("n, boundary", [(1, 0), (1, None), (2, 0), (2, 4)])
def test_every_marked_table_is_reached_once(monkeypatch, n, boundary):
    # The walk reaches every valid table once and its leaf tests are
    # isomorphism invariants, so the tables marked for one class are
    # exactly the leaves of that class it reaches, each once: the marks
    # drain, and the first leaf reached of each class is the one adopted.
    leaves = reference_valid_leaves(n, boundary)
    adopted, marked = _spy_leaves(monkeypatch)
    # the counted walks force `orientable`
    for predicate, orientable in ((None, False), (None, True),
                                  (closed_admissible, False),
                                  (torus_links_only, False)):
        adopted.clear()
        marked.clear()
        enumerate_complexes(n, predicate, boundary, orientable)
        reached = [tri.gluings for tri in leaves
                   if (tri.is_orientable or not orientable)
                   and (predicate is None or predicate(tri))]
        assert len(set(reached)) == len(reached)
        assert sum(map(len, marked.values())) == len(reached)
        assert _marked_tables(marked) == set(reached)
        owner = {table: rows for rows, tables in marked.items()
                 for table in tables}
        first = {}
        for rows in reached:
            first.setdefault(owner[rows], rows)
        assert list(first.items()) == [(rows, rows) for rows in marked]
        assert [tri.gluings for tri in adopted] == list(marked)


def test_bounded_search_fig8():
    tri = build_bundle("RL").tri
    result = bounded_move_search(tri, max_tets=3, max_depth=6)
    assert result.min_tetrahedra == 2
    assert result.smaller_admissible == ()
    assert not result.truncated
    assert result.truncation_reason is None
    assert encode_canonical(tri) in result.reachable


def test_bounded_search_finds_simplification():
    # a 2-3 move away from the two-tetrahedron bundle, one 3-2 returns
    tri = build_bundle("RL").tri
    from idealtri import apply_move, enumerate_moves
    site = next(s for s in enumerate_moves(tri) if s.kind == "2-3")
    bigger = apply_move(tri, site)
    result = bounded_move_search(bigger, max_tets=3, max_depth=1)
    assert result.min_tetrahedra == 2
    assert result.smaller_admissible


@pytest.mark.parametrize("admissible", [closed_admissible, torus_links_only])
def test_bounded_search_sizes_match_decoded_signatures(admissible):
    # Sizes and admissibility are read off the triangulation that first
    # reaches each signature; decoding every reachable signature agrees.
    rng = random.Random(11)
    found_smaller = False
    for _ in range(8):
        tri = random_admissible(rng, min_tets=3, max_tets=5)
        result = bounded_move_search(tri, tri.n + 1, 2, admissible=admissible)
        decoded = {sig: decode(sig) for sig in result.reachable}
        assert result.min_tetrahedra == min(t.n for t in decoded.values())
        assert result.smaller_admissible == tuple(sorted(
            sig for sig, t in decoded.items() if t.n < tri.n and admissible(t)))
        found_smaller |= bool(result.smaller_admissible)
    assert found_smaller


def test_bounded_search_truncation_flag():
    tri = decode("gLLMQbeefffehhqxhqq")
    result = bounded_move_search(tri, max_tets=7, max_depth=1)
    assert result.truncated  # depth cap with a live frontier is reported
    assert result.truncation_reason == "max_depth"


def test_bounded_search_node_cap_reason():
    tri = decode("gLLMQbeefffehhqxhqq")
    result = bounded_move_search(tri, max_tets=7, max_depth=3, max_nodes=5)
    assert result.truncated
    assert result.truncation_reason == "max_nodes"
    assert len(result.reachable) == 5
    assert result.depth_reached < 3    # cut before the depth cap


def test_bounded_search_caps_are_ints():
    # a bool is no cap: max_depth=True would run depth 1
    tri = decode("gLLMQbeefffehhqxhqq")
    for caps in [(7, True), (7, 1.5), (7, "1"), ("3", 1), (7, 1, "5"),
                 (7, 1, 5.0), (True, 1)]:
        with pytest.raises(ValueError, match="must be ints"):
            bounded_move_search(tri, *caps)
    with pytest.raises(ValueError, match="at least 0"):
        bounded_move_search(tri, 7, -1)


def test_random_move_walk_respects_filter():
    rng = random.Random(7)
    tri = build_bundle("RRLL").tri
    walked = random_move_walk(tri, 5, rng, max_tets=6, keep=torus_links_only)
    assert torus_links_only(walked)
    assert walked.n <= 6


def _search_or_error(search_fn, *args):
    try:
        return search_fn(*args)
    except InvalidEdge as exc:
        return type(exc)


def _fields(result):
    if isinstance(result, type):
        return result
    return (result.start, set(result.reachable), result.min_tetrahedra,
            result.smaller_admissible, result.depth_reached,
            result.truncation_reason)


def _sorted_degrees(tri):
    return tuple(sorted(e.degree for e in tri.edge_classes))


@contextlib.contextmanager
def _counting_encodes(encodes):
    """Patch both of the search's encoders to record each triangulation
    they encode in ``encodes``."""
    def spy(encoder):
        def recorded(image):
            encodes.append(image)
            return encoder(image)
        return recorded

    with mock.patch.multiple(
            search, encode_canonical=spy(encode_canonical),
            encode_with_automorphisms=spy(encode_with_automorphisms)):
        yield


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["admissible", "closed", "bounded"]),
       st.integers(0, 2 ** 32 - 1), st.integers(0, 3), st.integers(-1, 1),
       st.sampled_from([1, 2, 5, 200_000]),
       st.sampled_from([closed_admissible, torus_links_only]))
@example("admissible", 42, 3, 1, 200_000, closed_admissible)   # 369 classes
@example("admissible", 13, 2, 0, 40, torus_links_only)
@example("closed", 6, 1, 1, 200_000, torus_links_only)      # reversed edge
@example("closed", 6, 0, 1, 200_000, torus_links_only)
def test_bounded_search_matches_encoding_oracle(
        kind, seed, depth, cap, max_nodes, admissible):
    # The last level keys its images by their edge degrees and encodes
    # only on a collision: every field is still the fully encoding
    # search's, and its length costs no encode.
    rng = random.Random(seed)
    if kind == "admissible":
        tri = random_admissible(rng, 3, 6, steps=rng.randrange(2, 9))
    else:
        tri = random_complex(rng, rng.randint(1, 4), closed=kind == "closed")
    args = (tri, tri.n + cap, depth, max_nodes, admissible)
    encodes = []
    with _counting_encodes(encodes):
        result = _search_or_error(bounded_move_search, *args)
        searched = len(encodes)
        if not isinstance(result, type):
            len(result.reachable)
            assert len(encodes) == searched
    expected = _search_or_error(reference_bounded_move_search, *args)
    assert _fields(result) == _fields(expected)
    if isinstance(result, type):
        return
    assert len(result.reachable) == len(expected.reachable)
    assert result == expected
    try:
        degrees = [e.degree for e in tri.edge_classes]
    except InvalidEdge:
        return
    keys = [_sorted_degrees(tri)]
    for site in enumerate_moves(tri):
        key = image_degrees(tri, site, degrees)
        assert key == _sorted_degrees(apply_move(tri, site))
        if site.kind != "2-3" or cap >= 1:
            keys.append(key)
    if depth == 1 and len(set(keys)) == len(keys):
        # no image is encoded but the smaller admissible ones
        assert searched == 1 + len(result.smaller_admissible)


@pytest.mark.parametrize("length", [2, 3, 4, 5])
def test_searches_from_symmetric_starts_match_encoding_oracle(length):
    # Bundle closures have automorphisms, so the search expands one move
    # site per orbit; from any labelling of the start every field is the
    # fully encoding search's.  The oracle depends only on the start's
    # class, so it runs once per class.
    expected = {}
    symmetric = 0
    for letters in itertools.product("RL", repeat=length):
        if "R" not in letters or "L" not in letters:
            continue
        word = "".join(letters)
        rng = random.Random(word)
        for twist in (IDENTITY, _ELLIPTIC):
            closure = _closure(word, twist)
            sig, automorphisms = encode_with_automorphisms(closure)
            symmetric += len(automorphisms) > 1
            tet_map = list(range(length))
            rng.shuffle(tet_map)
            relabelling = relabelled(closure, tet_map,
                                     [rng.choice(S4) for _ in tet_map])
            for tri in (closure, relabelling):
                for depth, max_nodes in itertools.product(
                        (1, 2, 3), (1, 5, 40, 200_000)):
                    args = (tri, tri.n + 1, depth, max_nodes)
                    if (sig, depth, max_nodes) not in expected:
                        expected[sig, depth, max_nodes] = (
                            reference_bounded_move_search(*args))
                    oracle = expected[sig, depth, max_nodes]
                    result = bounded_move_search(*args)
                    assert _fields(result) == _fields(oracle), (word, args)
                    assert len(result.reachable) == len(oracle.reachable)
    assert symmetric


def test_orbit_heads_drop_only_sites_with_an_earlier_isomorphic_image():
    # the classes two moves or fewer from the closures of the words of
    # length 2 and 3 that have automorphisms other than the identity
    classes = set()
    for letters in itertools.chain(itertools.product("RL", repeat=2),
                                   itertools.product("RL", repeat=3)):
        if "R" in letters and "L" in letters:
            word = "".join(letters)
            classes.update(encode_canonical(_closure(word, twist))
                           for twist in (IDENTITY, _ELLIPTIC))
    for _ in range(2):
        for sig in list(classes):
            tri = decode(sig)
            classes.update(encode_canonical(apply_move(tri, site))
                           for site in enumerate_moves(tri))
    dropped = set()
    for sig in sorted(classes):
        tri = decode(sig)
        _, automorphisms = encode_with_automorphisms(tri)
        if len(automorphisms) == 1:
            continue
        sites = enumerate_moves(tri)
        heads = search._orbit_heads(tri, sites, automorphisms)
        kept = set()
        for site in sites:
            image = encode_canonical(apply_move(tri, site))
            if site in heads:
                kept.add(image)
            else:
                assert image in kept, (sig, site)
                dropped.add(site.kind)
    assert dropped == {"2-3", "3-2"}


@pytest.mark.parametrize("sig", [
    "eLMkbcdddhhqqa", "fLLQcbcedeelsasti", "fLAPcbcceeedmgsgf",
    "gLLPQccdeffftngamgv", "gLLMQbcdefffebbpukb", "gvLQQcdefeffncjtceu"])
def test_two_level_searches_match_encoding_oracle(sig):
    tri = decode(sig)
    for max_nodes in (1, 5, 40, 200_000):
        for admissible in (closed_admissible, torus_links_only):
            args = (tri, tri.n + 1, 2, max_nodes, admissible)
            result = bounded_move_search(*args)
            assert _fields(result) == _fields(
                reference_bounded_move_search(*args))


def test_depth_one_search_with_distinct_keys_encodes_once():
    # a probe whose 12 images and start have 13 distinct keys, and no
    # image is smaller and admissible
    tri = decode("fLLQcbcdeeehkkhmp")
    keys = [_sorted_degrees(tri)] + [
        _sorted_degrees(apply_move(tri, site)) for site in enumerate_moves(tri)]
    assert len(set(keys)) == len(keys)
    encodes = []
    with _counting_encodes(encodes):
        result = bounded_move_search(tri, tri.n + 1, 1)
        assert len(result.reachable) == len(keys)
        assert len(encodes) == 1
        assert set(result.reachable) == set(
            reference_bounded_move_search(tri, tri.n + 1, 1).reachable)
        assert len(encodes) == len(keys)


def test_reachable_acts_as_the_frozenset_it_replaces():
    # Its set operators and frozenset's named methods give frozensets,
    # its repr shows the signatures, and its unencoded classes are held
    # as (signature, site) pairs, not as decoded triangulations.
    tri = decode("gLLPQccdeffftngamgv")
    result = bounded_move_search(tri, tri.n + 1, 2)
    reachable = result.reachable
    assert reachable._pairs
    assert all(isinstance(sig, str) for sig, _ in reachable._pairs)
    expected = reference_bounded_move_search(tri, tri.n + 1, 2).reachable
    start = {result.start}
    assert reachable | set() == expected | set() == expected
    assert reachable & start == expected & start == start
    assert reachable - start == expected - start
    assert reachable ^ start == expected ^ start
    assert start - reachable == frozenset()
    for op in (reachable | set(), reachable & start, reachable - set(),
               reachable ^ start, reachable.union(), reachable.copy()):
        assert type(op) is frozenset
    assert reachable.issubset(expected) and reachable.issuperset(expected)
    assert reachable.difference(expected) == frozenset()
    assert hash(reachable) == hash(expected)
    assert repr(reachable).startswith("frozenset({")
    assert all(repr(sig) in repr(result) for sig in expected)
    with pytest.raises(AttributeError):
        reachable.add


def test_depth_zero_search_reads_no_edge_classes():
    # a reversed edge: every depth from 1 on raises, depth 0 does not
    tri = decode("cMcabbjns")
    result = bounded_move_search(tri, 3, 0)
    assert "_edge_slots" not in vars(tri)
    assert set(result.reachable) == {"cMcabbjns"}
    assert result.truncation_reason == "max_depth"
    for search_fn in (bounded_move_search, reference_bounded_move_search):
        with pytest.raises(InvalidEdge):
            search_fn(tri, 3, 1)


@pytest.mark.parametrize("sig, reached", [
    ("iLLLQPcbefegfhhhxxhhhxqhh", "gLLMQbeefffehhqxhqq"),
    ("iLLLQPcbefegghhhxxhxhhqhh", "gLMzQbcdefffhhhhxqh"),
    ("iLLLQPcbefgfghhhxqqhqhhhh", "gLMzQbcdefffhxqqxha"),
])
def test_certificate_does_not_force_minimality(sig, reached):
    # Equality on T's own canonical surfaces bounds no other
    # triangulation: each of these carries a certificate with
    # sum(-chi) = |T| = 8, and four moves reach smaller admissible ones.
    tri = decode(sig)
    cert = bound_certificate(tri)
    assert cert is not None
    assert cert.sum_neg_chi == tri.n == 8
    result = bounded_move_search(tri, 9, 4)
    assert reached in result.smaller_admissible
    assert result == reference_bounded_move_search(tri, 9, 4)
