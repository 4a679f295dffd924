"""Core triangulation invariants: validation, orbits, links, face types."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from idealtri import (
    InvalidEdge, InvalidTriangulation, FaceType,
    anatomy_report, boundary_surface, build, decode, degree_histogram,
    face_type_counts, find_isomorphism, relabelled,
)
from idealtri.triangulation import (
    _CORNER_MOVES, _CORNER_STEPS, _EDGE_MOVES, _EDGE_STEPS, _PAIRS,
    _TET_MOVES, _TET_STEPS, Triangulation, _edge_walk, _walk, classify_faces,
    subcomplex,
)
from idealtri.perms import S4, inverse

from helpers import (
    random_admissible, random_closed_complex, random_complex,
    reference_boundary_surface, reference_edge_classes, reference_face_classes,
    reference_face_types, reference_find_isomorphism,
    reference_link_orientable, reference_orbits, reference_orientation_signs,
    reference_vertex_classes,
)

FIG8 = "cPcbbbiht"
CENSUS_FIXTURES = [
    "gLLMQbeefffehhqxhqq",
    "iLLLQPcbefgffhhhxxhaqxxqh",
    "iLLLQPcbefgffhhhhhqaxhhxq",
    "iLLwQPcbeefgehhhhhqhhqhqx",
]


def test_build_rejects_unglued_face_when_closed():
    with pytest.raises(InvalidTriangulation):
        build(1, {}, closed=True)


def test_build_allows_bounded():
    tri = build(1, {}, closed=False)
    assert not tri.is_closed
    assert tri.n == 1


def test_build_rejects_identity_self_gluing():
    with pytest.raises(InvalidTriangulation):
        build(1, {(0, 0): (0, (0, 1, 2, 3))}, closed=False)


def test_build_rejects_involution_violation():
    # Reverse entry disagrees with the inverse permutation.
    glu = {
        (0, 0): (1, (1, 0, 2, 3)),
        (1, 1): (0, (0, 1, 3, 2)),
    }
    with pytest.raises(InvalidTriangulation):
        build(2, glu, closed=False)


# Data whose shape or types are wrong: each must raise the documented
# error, never a TypeError or an unpacking ValueError.
MALFORMED_BUILDS = [
    (1, {0: None}, "face 0 is not a pair"),
    (1, {(0, 0): 5}, r"gluing of \(0,0\) is not a \(tetrahedron"),
    (1, {(0, 0): (0, 7)}, r"gluing of \(0,0\) is not a permutation"),
    (1, {(0, 0, 1): (0, (1, 0, 3, 2))}, r"face \(0, 0, 1\) is not a pair"),
    (1, {(0.5, 0): (0, (1, 0, 3, 2))}, r"face \(0.5, 0\) is not a pair"),
    (1, {(0, 0): ("a", (1, 0, 3, 2))}, r"gluing of \(0,0\) is not a \(tetrahedron"),
    ("2", {}, "tetrahedron count '2' is not an integer"),
]


@pytest.mark.parametrize("n,gluings,message", MALFORMED_BUILDS)
def test_build_rejects_malformed_data(n, gluings, message):
    for make in (build, Triangulation):
        with pytest.raises(InvalidTriangulation, match=message):
            make(n, gluings, closed=False)


def test_build_fills_reverse_entries():
    perm = (1, 2, 3, 0)
    tri = build(2, {(0, 0): (1, perm)}, closed=False)
    assert tri.gluing(1, perm[0]) == (0, inverse(perm))


def test_build_rejects_disconnected():
    glu = {}
    for t in range(2):
        # glue faces 0-1 and 2-3 of each tetrahedron to itself
        glu[(t, 0)] = (t, (1, 0, 3, 2))
        glu[(t, 2)] = (t, (1, 0, 3, 2))
    with pytest.raises(InvalidTriangulation):
        build(2, glu, closed=True)


@pytest.mark.parametrize("tets", [[-1], [5], [0, 2]])
def test_subcomplex_rejects_tetrahedra_out_of_range(tets):
    with pytest.raises(InvalidTriangulation, match="out of range"):
        subcomplex(decode(FIG8), tets)


def test_subcomplex_collapses_repeated_tetrahedra():
    tri = decode(FIG8)
    sub, index_of = subcomplex(tri, [0, 0])
    assert sub.n == 1 and index_of == {0: 0}
    assert all(g is None for g in sub.gluings[0])


# Malformed arguments to the other entry points: each must raise
# InvalidTriangulation, never a TypeError or an unpacking ValueError.
IDENTITY = (0, 1, 2, 3)
MALFORMED_CALLS = {
    "relabelled-vertex-map-int":
        lambda tri: relabelled(tri, [0, 1], [7, IDENTITY]),
    "relabelled-tet-map-str":
        lambda tri: relabelled(tri, ["a", 0], [IDENTITY, IDENTITY]),
    "subcomplex-str": lambda tri: subcomplex(tri, ["a"]),
    "subcomplex-float": lambda tri: subcomplex(tri, [0.5]),
    "build-item-int": lambda tri: build(1, [5]),
    "build-item-triple":
        lambda tri: build(1, [((0, 0), (0, (1, 0, 3, 2)), 1)]),
    # a bool is no index, though it is an int
    "subcomplex-bool": lambda tri: subcomplex(tri, [True]),
    "build-count-bool": lambda tri: build(True, {}, closed=False),
    "build-face-bool":
        lambda tri: build(1, {(0, True): (0, (1, 2, 3, 0))}, closed=False),
    "build-target-bool":
        lambda tri: build(1, {(0, 0): (False, (1, 2, 3, 0))}, closed=False),
}


@pytest.mark.parametrize("call", MALFORMED_CALLS.values(),
                         ids=MALFORMED_CALLS.keys())
def test_entry_points_reject_malformed_arguments(call):
    with pytest.raises(InvalidTriangulation):
        call(decode(FIG8))


def test_edge_degrees_sum_to_six_n():
    for sig in [FIG8] + CENSUS_FIXTURES:
        tri = decode(sig)
        assert sum(e.degree for e in tri.edge_classes) == 6 * tri.n


def test_face_class_count_is_two_n():
    for sig in [FIG8] + CENSUS_FIXTURES:
        tri = decode(sig)
        assert len(tri.face_classes) == 2 * tri.n


def test_fig8_edge_classes():
    tri = decode(FIG8)
    assert len(tri.edge_classes) == 2
    assert sorted(e.degree for e in tri.edge_classes) == [6, 6]
    assert not any(e.boundary for e in tri.edge_classes)


def test_fig8_vertex_link_is_torus():
    tri = decode(FIG8)
    assert len(tri.vertex_classes) == 1
    link = tri.vertex_classes[0]
    assert link.link_closed
    assert link.link_euler == 0
    assert link.link_orientable


def test_fig8_orientable_with_cone_faces():
    # Two edge classes force a repeated class on every face, so all four
    # faces are cones; none is a 3-fold or dunce.
    tri = decode(FIG8)
    assert tri.is_orientable
    counts = face_type_counts(tri)
    assert counts[FaceType.CONE] == 4
    assert counts[FaceType.THREEFOLD] == 0
    assert counts[FaceType.DUNCE] == 0


def test_fixture_faces_are_triangles():
    for sig in CENSUS_FIXTURES:
        counts = face_type_counts(decode(sig))
        assert counts[FaceType.TRIANGLE] == len(decode(sig).face_classes)


def test_edge_signs_transport_consistently():
    # Walking any gluing must reproduce the stored sign.
    rng = random.Random(7)
    for sig in [FIG8] + CENSUS_FIXTURES:
        tri = decode(sig)
        for _ in range(200):
            t = rng.randrange(tri.n)
            a, b = rng.sample(range(4), 2)
            f = rng.choice([x for x in range(4) if x not in (a, b)])
            t2, perm = tri.gluing(t, f)
            s = tri.edge_sign_of(t, a, b)
            s2 = tri.edge_sign_of(t2, perm[a], perm[b])
            assert s == s2
            assert tri.edge_class_of(t, a, b) == tri.edge_class_of(t2, perm[a], perm[b])


def test_reversed_edge_identification_rejected():
    # Glue two faces of one tetrahedron so an edge maps onto itself
    # reversed: face 0 to face 1 sending 2->3, 3->2 flips edge {2,3}.
    tri = build(1, {(0, 0): (0, (1, 0, 3, 2))}, closed=False)
    with pytest.raises(InvalidEdge):
        tri.edge_classes


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.booleans(), st.integers(0, 2 ** 32 - 1))
@example(1, True, 6)    # faces 0-1 and 2-3 of one tetrahedron glued
def test_derived_classes_match_reference_walks(n, closed, seed):
    tri = random_complex(random.Random(seed), n, closed=closed)
    assert tri.orientation_signs == reference_orientation_signs(tri)
    assert tri.face_classes == reference_face_classes(tri)
    vertices, corner_class = reference_vertex_classes(tri)
    for (t, v), k in corner_class.items():
        assert tri.vertex_class_of(t, v) == k
    try:
        edges, slot_class = reference_edge_classes(tri)
    except InvalidEdge as exc:
        for prop in ("edge_classes", "vertex_classes"):
            with pytest.raises(InvalidEdge) as raised:
                getattr(tri, prop)
            assert str(raised.value) == str(exc)
        return
    assert tri.edge_classes == edges
    for e in edges:
        for t, (a, b), s in e.occurrences:
            assert tri.edge_class_of(t, a, b) == tri.edge_class_of(t, b, a) \
                == slot_class[(t, a, b)]
            assert tri.edge_sign_of(t, a, b) == s
            assert tri.edge_sign_of(t, b, a) == -s
    assert tri.vertex_classes == vertices
    parity = []     # the edge classes a face's boundary meets oddly often
    for fc in reference_face_classes(tri):
        t, f = fc.sides[0]
        met = [slot_class[(t, a, b)] for a in range(4)
               for b in range(a + 1, 4) if f not in (a, b)]
        parity.append(sum(1 << e for e in set(met) if met.count(e) % 2))
    assert tri.parity_rows == tuple(parity)
    assert classify_faces(tri) == reference_face_types(tri, edges)


_WALKS = [(_EDGE_STEPS, _EDGE_MOVES), (_CORNER_STEPS, _CORNER_MOVES),
          (_TET_STEPS, _TET_MOVES)]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_walk_matches_move_list_orbits(n, closed, seed):
    # edge slots, corners and tetrahedra: the same orbits and flags, and
    # the same signs wherever an orbit is consistent
    tri = random_complex(random.Random(seed), n, closed=closed)
    for steps, moves in _WALKS:
        orbit, signs, consistent = _walk(tri.gluings, steps)
        ref_orbit, ref_signs, ref_consistent = reference_orbits(
            tri, steps[0], moves)
        assert orbit == ref_orbit
        assert consistent == ref_consistent
        assert all(s == r for s, r, k in zip(signs, ref_signs, orbit)
                   if consistent[k])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_edge_rotation_matches_walk(n, closed, seed):
    # rotating around each edge finds the depth-first walk's orbits and
    # flags, and its signs wherever an orbit is consistent; so the first
    # reversed edge, and its InvalidEdge message, are the walk's
    tri = random_complex(random.Random(seed), n, closed=closed)
    orbit, signs, consistent = _edge_walk(tri.gluings)
    ref_orbit, ref_signs, ref_consistent = _walk(tri.gluings, _EDGE_STEPS)
    assert orbit == ref_orbit
    assert consistent == ref_consistent
    assert all(s == r for s, r, k in zip(signs, ref_signs, orbit)
               if consistent[k])
    if all(ref_consistent):
        assert tri._edge_slots == (ref_orbit, ref_signs)
        return
    t, k = divmod(ref_orbit.index(ref_consistent.index(False)), 6)
    a, b = _PAIRS[k]
    with pytest.raises(InvalidEdge) as raised:
        tri.edge_classes
    assert str(raised.value) == (
        f"edge ({t},{{{a},{b}}}) identified with itself in reverse")


def test_class_records_are_immutable():
    # named tuples with the fields, order and properties of the records
    tri = decode(FIG8)
    edge, vertex, face = (tri.edge_classes[0], tri.vertex_classes[0],
                          tri.face_classes[0])
    assert edge._fields == ("index", "occurrences", "boundary")
    assert vertex._fields == ("index", "corners", "link_euler",
                              "link_orientable", "link_closed")
    assert face._fields == ("index", "sides", "boundary")
    assert edge.degree == len(edge.occurrences) == 6
    assert vertex.is_torus_link
    assert face == (0, ((0, 0), (1, 0)), False)
    for record in (edge, vertex, face):
        for name in (*record._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_derived_data_invariant_under_relabelling():
    rng = random.Random(21)
    for sig in [FIG8, CENSUS_FIXTURES[0]]:
        tri = decode(sig)
        base_hist = degree_histogram(tri)
        base_faces = {ft.value: c for ft, c in face_type_counts(tri).items()}
        base_links = sorted((v.link_euler, v.link_orientable)
                            for v in tri.vertex_classes)
        for _ in range(25):
            tet_map = list(range(tri.n))
            rng.shuffle(tet_map)
            vmaps = [rng.choice(S4) for _ in range(tri.n)]
            other = relabelled(tri, tet_map, vmaps)
            assert degree_histogram(other) == base_hist
            assert {ft.value: c for ft, c in face_type_counts(other).items()} == base_faces
            assert sorted((v.link_euler, v.link_orientable)
                          for v in other.vertex_classes) == base_links
            assert other.is_orientable == tri.is_orientable


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4), st.integers(0, 2 ** 32 - 1))
def test_links_of_closed_orientable_complexes_are_orientable(n, seed):
    # a vertex link is orientable when a neighbourhood of the vertex is
    rng = random.Random(seed)
    tri = random_admissible(rng) if n == 0 else random_closed_complex(rng, n)
    if tri.is_orientable:
        assert all(v.link_orientable for v in tri.vertex_classes)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_link_orientability_matches_reference_under_relabelling(n, closed,
                                                                seed):
    rng = random.Random(seed)
    tri = random_complex(rng, n, closed=closed)
    other = relabelled(tri, rng.sample(range(n), n),
                       [rng.choice(S4) for _ in range(n)])
    try:
        classes = other.vertex_classes
    except InvalidEdge:
        return
    assert [v.link_orientable for v in classes] == [
        reference_link_orientable(other, list(v.corners)) for v in classes]
    assert (sorted(v.link_orientable for v in classes)
            == sorted(v.link_orientable for v in tri.vertex_classes))


def test_relabelled_rejects_bad_maps():
    tri = decode(FIG8)
    vmaps = [S4[0], S4[5]]
    for tet_map, maps in [([0, 0], vmaps), ([0], vmaps), ([0, 2], vmaps),
                          ([1, 0], [S4[0]]), ([1, 0], [S4[0], (0, 0, 1, 2)]),
                          ([1, 0], [S4[0], (0, 1, 2, 4)]),
                          ([True, False], vmaps)]:
        with pytest.raises(InvalidTriangulation):
            relabelled(tri, tet_map, maps)


def test_find_isomorphism_recovers_relabellings():
    rng = random.Random(77)
    tri = decode(CENSUS_FIXTURES[0])
    for _ in range(10):
        tet_map = list(range(tri.n))
        rng.shuffle(tet_map)
        vmaps = [rng.choice(S4) for _ in range(tri.n)]
        other = relabelled(tri, tet_map, vmaps)
        iso = find_isomorphism(tri, other)
        assert iso is not None
        assert iso == reference_find_isomorphism(tri, other)
        found_tets, found_vmaps = iso
        assert relabelled(tri, found_tets, found_vmaps) == other
    # non-isomorphic pairs have no isomorphism
    assert find_isomorphism(decode(CENSUS_FIXTURES[1]),
                            decode(CENSUS_FIXTURES[2])) is None


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_find_isomorphism_matches_reference(n, closed, seed):
    rng = random.Random(seed)
    tri = random_complex(rng, n, closed=closed)
    tet_map = list(range(n))
    rng.shuffle(tet_map)
    other = relabelled(tri, tet_map, [rng.choice(S4) for _ in range(n)])
    stranger = random_complex(rng, rng.randint(1, 4), closed=rng.random() < 0.5)
    for a, b in [(tri, other), (other, tri), (tri, stranger), (stranger, tri)]:
        assert find_isomorphism(a, b) == reference_find_isomorphism(a, b)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_boundary_surface_matches_reference(n, closed, seed):
    tri = random_complex(random.Random(seed), n, closed=closed)
    if not tri.is_closed:
        try:
            tri.edge_classes
        except InvalidEdge:
            with pytest.raises(InvalidEdge):
                boundary_surface(tri)
            return
    assert boundary_surface(tri) == reference_boundary_surface(tri)


def test_anatomy_report_fixture():
    for sig in CENSUS_FIXTURES:
        rep = anatomy_report(decode(sig))
        assert rep["passes_minimal_anatomy"]
        assert rep["min_edge_degree"] >= 3


def test_face_classification_against_cw_oracle():
    # chi of the identified face: triangle/cone/threefold/dunce give 1,
    # moebius gives 0; threefold is separated from dunce by direction
    # cycle.  Build the quotient CW complex independently and compare.
    import itertools
    from idealtri.triangulation import classify_face

    def cw_type(tri, t, f):
        verts = [v for v in range(4) if v != f]
        a, b, c = verts
        cycle = [(a, b), (b, c), (c, a)]
        cls = [tri.edge_class_of(t, x, y) for x, y in cycle]
        sgn = [tri.edge_sign_of(t, x, y) for x, y in cycle]
        # Quotient: identify directed boundary arcs with equal class,
        # matching endpoints by direction.
        # Vertex identifications forced by the arc identifications:
        parent = {v: v for v in verts}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        def union(x, y):
            parent[find(x)] = find(y)

        n_edges = len(set(cls))
        for i, j in itertools.combinations(range(3), 2):
            if cls[i] != cls[j]:
                continue
            (p, q), (r, s) = cycle[i], cycle[j]
            if sgn[i] == sgn[j]:
                union(p, r), union(q, s)
            else:
                union(p, s), union(q, r)
        n_verts = len({find(v) for v in verts})
        chi = n_verts - n_edges + 1
        if n_edges == 3:
            return "triangle", chi
        if n_edges == 2:
            return ("cone" if chi == 1 else "moebius"), chi
        rotation = sgn[0] == sgn[1] == sgn[2]
        return ("threefold" if rotation else "dunce"), chi

    expected_chi = {
        FaceType.TRIANGLE: 1, FaceType.CONE: 1, FaceType.MOEBIUS: 0,
        FaceType.THREEFOLD: 1, FaceType.DUNCE: 1,
    }
    for sig in [FIG8] + CENSUS_FIXTURES:
        tri = decode(sig)
        for fc in tri.face_classes:
            t, f = fc.sides[0]
            ft = classify_face(tri, t, f)
            name, chi = cw_type(tri, t, f)
            assert ft.value == name
            assert chi == expected_chi[ft]
            # both sides classify identically
            if len(fc.sides) == 2:
                t2, f2 = fc.sides[1]
                assert classify_face(tri, t2, f2) == ft
