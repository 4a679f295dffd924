"""Layered solid torus arithmetic, detection, and intersections."""

import math
import random

import pytest

from idealtri import (
    LstError, boundary_surface, decode, degree_histogram, encode_canonical,
    layer_tetrahedron, lst_build,
)
from idealtri.lst import (
    detect_degree3, maximal_extension, pairwise_intersection, LstCertificate,
)
from idealtri.triangulation import Triangulation
from idealtri.perms import S4

from helpers import assert_revalidates


def test_seed_is_the_one_tetrahedron_torus():
    L = lst_build("")
    assert L.tri.n == 1
    assert L.params.as_tuple() == (1, 2, 3)
    assert degree_histogram(L.tri) == {1: 1, 2: 1, 3: 1}
    bs = boundary_surface(L.tri)
    assert (bs["vertices"], bs["edges"], bs["triangles"], bs["euler"]) == (1, 3, 2, 0)


@pytest.mark.parametrize("word,params", [
    ("b", (1, 3, 4)),
    ("a", (2, 3, 5)),
    ("c", (1, 1, 2)),
    ("bb", (1, 4, 5)),
    ("ba", (3, 4, 7)),
    ("ab", (2, 5, 7)),
    ("aaa", (5, 8, 13)),
])
def test_layering_parameter_transitions(word, params):
    L = lst_build(word)
    assert L.params.as_tuple() == params
    assert L.tri.n == len(word) + 1
    a, b, c = params
    assert a + b == c
    assert math.gcd(a, b) == 1
    bs = boundary_surface(L.tri)
    assert (bs["vertices"], bs["triangles"], bs["euler"]) == (1, 2, 0)
    assert L.tri.is_orientable


def test_minimal_context_rejects_unital_layering():
    with pytest.raises(LstError):
        lst_build("c", minimal_context=True)
    # the unital edge of LST(1,3,4) is the one the meridian meets 4 times
    with pytest.raises(LstError):
        lst_build("bc", minimal_context=True)


def test_lst_build_output_revalidates():
    # layer_tetrahedron adopts its table without checks; the validating
    # constructor must accept it and rebuild the same triangulation.
    rng = random.Random(113)
    for _ in range(60):
        word = "".join(rng.choice("abc") for _ in range(rng.randrange(8)))
        assert_revalidates(lst_build(word).tri)


def test_layering_rejects_bad_slots():
    tri = lst_build("").tri          # free faces (0, 0) and (0, 1)
    face0, face1 = (0, 0, (1, 2)), (0, 1, (0, 2))
    layer_tetrahedron(tri, face0, face1)
    bad_pairs = [(face0, face0),                 # the same face twice
                 (face0, (0, 0, (2, 3)))]
    for slot in [(0, 0, (0, 1)),     # the edge holds the face's own vertex
                 (0, 0, (2, 2)),     # not an edge
                 (0, 0, (1, 4)),     # vertex label out of range
                 (0, 2, (0, 1)),     # a glued face
                 (1, 0, (1, 2))]:    # no such tetrahedron
        bad_pairs += [(slot, face1), (face1, slot)]
    for slot_a, slot_b in bad_pairs:
        with pytest.raises(LstError):
            layer_tetrahedron(tri, slot_a, slot_b)


def test_lst134_has_interior_degree3_edge():
    L = lst_build("b")
    hist = degree_histogram(L.tri)
    assert hist == {1: 1, 3: 2, 5: 1}
    interior_deg3 = [e for e in L.tri.edge_classes
                     if e.degree == 3 and not e.boundary]
    assert len(interior_deg3) == 1
    # the degree-three edge lies twice in the core, once in the layer
    (e,) = interior_deg3
    by_tet = {}
    for t, _, _ in e.occurrences:
        by_tet[t] = by_tet.get(t, 0) + 1
    assert sorted(by_tet.values()) == [1, 2]


def _glue_boundaries(c1, c2):
    """All valid closed complexes gluing the boundaries of two bounded
    layered solid tori."""
    n1 = c1.tri.n
    base = {}
    for t in range(c1.tri.n):
        for f in range(4):
            if c1.tri.gluings[t][f] is not None:
                base[(t, f)] = c1.tri.gluings[t][f]
    for t in range(c2.tri.n):
        for f in range(4):
            g = c2.tri.gluings[t][f]
            if g is not None:
                base[(t + n1, f)] = (g[0] + n1, g[1])
    a1, a2 = c1.free_faces
    b1, b2 = c2.free_faces
    out = []
    for x, y in [(b1, b2), (b2, b1)]:
        for p in S4:
            if p[a1[1]] != x[1]:
                continue
            for q in S4:
                if q[a2[1]] != y[1]:
                    continue
                gl = dict(base)
                gl[a1] = (x[0] + n1, p)
                gl[a2] = (y[0] + n1, q)
                try:
                    tri = Triangulation(c1.tri.n + c2.tri.n, gl, closed=True)
                    tri.edge_classes
                except Exception:
                    continue
                out.append(tri)
    return out


def test_detection_in_a_closed_complex():
    closed = _glue_boundaries(lst_build("b"), lst_build(""))
    assert closed
    tri = closed[0]
    certs, failures = detect_degree3(tri)
    assert not failures
    assert len(certs) == 1
    cert = certs[0]
    assert cert.params == (1, 3, 4)
    assert set(cert.tets) == {0, 1}
    # the core contains the degree-three edge twice
    e = tri.edge_classes[cert.edge]
    assert sum(1 for t, _, _ in e.occurrences if t == cert.core) == 2


def test_detect_round_trip_on_larger_template():
    # LST(1,4,5) contains the (1,3,4) layers; embedding and detecting
    # recovers them, and maximal extension climbs back up.
    closed = _glue_boundaries(lst_build("bb"), lst_build(""))
    tri = closed[0]
    certs, failures = detect_degree3(tri)
    assert len(certs) == 1 and not failures
    cert = certs[0]
    assert cert.params == (1, 3, 4)
    maximal = maximal_extension(cert, tri)
    assert maximal.maximal
    assert len(maximal.tets) >= 3
    assert maximal.params in ((1, 4, 5), (1, 3, 4), (2, 3, 5), (3, 4, 7), (1, 1, 2))


def test_maximal_extension_climbs_a_longer_chain():
    # inside the closed-up LST(1,5,6) the certificate extends through
    # every layer but stops at the closing solid torus
    closed = _glue_boundaries(lst_build("bbb"), lst_build(""))
    assert closed
    tri = closed[0]
    certs, failures = detect_degree3(tri)
    assert len(certs) == 1 and not failures
    maximal = maximal_extension(certs[0], tri)
    assert maximal.maximal
    assert len(maximal.tets) == 4
    assert maximal.params == (1, 5, 6)
    assert maximal.word == "bbb"


def test_maximal_extension_is_idempotent():
    closed = _glue_boundaries(lst_build("b"), lst_build(""))
    tri = closed[0]
    certs, _ = detect_degree3(tri)
    m1 = maximal_extension(certs[0], tri)
    m2 = maximal_extension(m1, tri)
    assert m1.tets == m2.tets
    assert m1.params == m2.params
    assert set(m1.tets) <= set(range(tri.n))


def test_fig8_has_no_degree3_edges():
    tri = decode("cPcbbbiht")
    certs, failures = detect_degree3(tri)
    assert certs == [] and failures == []


def test_detection_on_bounded_lst_sees_only_the_interior_edge():
    L = lst_build("b")
    certs, failures = detect_degree3(L.tri)
    assert len(certs) == 1 and not failures
    assert not L.tri.edge_classes[certs[0].edge].boundary


def test_degree3_edge_with_three_tets_is_a_failure():
    # a 2-3 move creates a degree-three edge spanning three distinct
    # tetrahedra: not a layered solid torus, but a 3-2 site.
    from idealtri import apply_move, enumerate_moves
    tri = decode("cPcbbbiht")
    site = next(s for s in enumerate_moves(tri) if s.kind == "2-3")
    bigger = apply_move(tri, site)
    certs, failures = detect_degree3(bigger)
    assert any("3-2" in f.reason for f in failures)
    kinds = {s.kind for s in enumerate_moves(bigger)}
    assert "3-2" in kinds


def test_self_intersection_is_other():
    closed = _glue_boundaries(lst_build("b"), lst_build("b"))
    tri = closed[0]
    certs, _ = detect_degree3(tri)
    maximal = [maximal_extension(c, tri) for c in certs]
    kind, _ = pairwise_intersection(maximal[0], maximal[0], tri)
    assert kind == "OTHER"


def test_lens_gluing_intersections_violate_the_minimal_pattern():
    # Two layered solid tori closed against each other share boundary
    # faces: exactly the punctured-lens-space configuration that cannot
    # occur in a minimal triangulation.
    for tri in _glue_boundaries(lst_build("b"), lst_build("b"))[:6]:
        certs, _ = detect_degree3(tri)
        if len(certs) != 2:
            continue
        m1, m2 = (maximal_extension(c, tri) for c in certs)
        kind, detail = pairwise_intersection(m1, m2, tri)
        assert kind == "OTHER"
        assert detail["faces"] or detail["tets"]


def test_intersection_classifier_trichotomy():
    # the cell-set classification itself, on each possible profile
    from idealtri.lst import classify_intersection

    def classify(tets=(), faces=(), edges=(), vertices=(), endpoints=None):
        return classify_intersection(set(tets), set(faces), set(edges),
                                     set(vertices), endpoints or {})

    assert classify() == "empty"
    assert classify(vertices=[0]) == "vertex"
    assert classify(vertices=[0, 1]) == "OTHER"
    assert classify(edges=[5], vertices=[0], endpoints={5: {0}}) == "edge"
    assert classify(edges=[5], vertices=[0, 1],
                    endpoints={5: {0, 1}}) == "edge"
    assert classify(edges=[5], vertices=[0, 1],
                    endpoints={5: {0}}) == "OTHER"
    assert classify(edges=[5, 6], vertices=[0],
                    endpoints={5: {0}, 6: {0}}) == "OTHER"
    assert classify(faces=[2], edges=[5], vertices=[0],
                    endpoints={5: {0}}) == "OTHER"
    assert classify(tets=[1]) == "OTHER"


def test_intersection_in_dense_triangulations_shares_cells():
    # disjoint pairs of tetrahedra in a dense census triangulation
    # always share edges or faces: never 'empty' in a one-vertex complex
    tri = decode("iLLLQPcbefgffhhhxxhaqxxqh")

    def fake(tets):
        return LstCertificate(edge=-1, tets=tuple(tets), core=tets[0],
                              params=(1, 3, 4), word="b",
                              boundary_edges=(), maximal=True)

    seen = set()
    for i in range(tri.n):
        for j in range(i + 1, tri.n):
            for k in range(tri.n):
                for l in range(k + 1, tri.n):
                    if {i, j} & {k, l}:
                        continue
                    kind, _ = pairwise_intersection(fake([i, j]), fake([k, l]), tri)
                    seen.add(kind)
    assert "empty" not in seen


def test_template_isomorphism_is_exact():
    # lst_build output is combinatorially rigid: isomorphic iff equal words
    sigs = {}
    for word in ["", "a", "b", "ab", "ba", "bb", "aa"]:
        sigs[word] = encode_canonical(lst_build(word).tri)
    assert sigs["ab"] != sigs["ba"]
    assert sigs["a"] != sigs["b"]
    assert len(set(sigs.values())) == len(sigs)
