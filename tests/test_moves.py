"""Move laws: applicability, inverses, link preservation, and the local
4-4 model that trades an empty tetrahedron for quad types."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from idealtri import (
    MoveError, MoveSite, apply_move, decode, encode_canonical,
    enumerate_moves,
)
from idealtri.cohomology import Cocycle, classify_tet_rank1
from idealtri.monodromy import build_bundle
from idealtri.moves import image_degrees
from idealtri.triangulation import InvalidEdge

from helpers import (
    assert_revalidates, octahedron_model, random_admissible, random_complex,
    reference_apply_move, reference_edge_classes,
)


def link_data(tri):
    return sorted((v.link_euler, v.link_orientable) for v in tri.vertex_classes)


def test_no_three_two_sites_on_fig8():
    sites = enumerate_moves(build_bundle("RL").tri)
    assert all(s.kind != "3-2" for s in sites)
    assert sum(1 for s in sites if s.kind == "2-3") == 4


def test_every_interior_face_with_distinct_tets_is_a_site():
    tri = decode("gLLMQbeefffehhqxhqq")
    sites = {s.index for s in enumerate_moves(tri) if s.kind == "2-3"}
    expected = {fc.index for fc in tri.face_classes
                if fc.sides[0][0] != fc.sides[1][0]}
    assert sites == expected


def test_two_three_then_inverse_three_two():
    rng = random.Random(97)
    performed = 0
    while performed < 100:
        tri = random_admissible(rng, max_tets=7)
        base = encode_canonical(tri)
        sites = [s for s in enumerate_moves(tri) if s.kind == "2-3"]
        if not sites:
            continue
        site = rng.choice(sites)
        bigger = apply_move(tri, site)
        assert bigger.n == tri.n + 1
        new_edge = bigger.edge_class_of(bigger.n - 3, 0, 1)
        assert bigger.edge_classes[new_edge].degree == 3
        back = apply_move(bigger, MoveSite("3-2", new_edge))
        assert encode_canonical(back) == base
        performed += 1


def test_move_images_revalidate():
    # apply_move adopts its table without checks; the validating
    # constructor must accept it and rebuild the same triangulation.
    rng = random.Random(103)
    for _ in range(30):
        tri = random_admissible(rng, max_tets=7)
        for site in enumerate_moves(tri):
            assert_revalidates(apply_move(tri, site))


def test_moves_preserve_links_and_orientability():
    rng = random.Random(101)
    checked = 0
    for _ in range(40):
        tri = random_admissible(rng, max_tets=7)
        sites = enumerate_moves(tri)
        if not sites:
            continue
        site = rng.choice(sites)
        image = apply_move(tri, site)
        assert image.is_orientable == tri.is_orientable
        assert link_data(image) == link_data(tri)
        assert len(image.vertex_classes) == len(tri.vertex_classes)
        checked += 1
    assert checked >= 30


def test_four_four_keeps_size_and_inverts():
    rng = random.Random(103)
    found = 0
    for _ in range(200):
        tri = random_admissible(rng, max_tets=7)
        sites = [s for s in enumerate_moves(tri) if s.kind == "4-4"]
        if not sites:
            continue
        site = rng.choice(sites)
        image = apply_move(tri, site)
        assert image.n == tri.n
        assert link_data(image) == link_data(tri)
        new_edge = image.edge_class_of(image.n - 4, 1, 3)
        assert image.edge_classes[new_edge].degree == 4
        restored = False
        for axis in (0, 1):
            try:
                back = apply_move(image, MoveSite("4-4", new_edge, axis))
            except MoveError:
                continue
            if encode_canonical(back) == encode_canonical(tri):
                restored = True
        assert restored
        found += 1
        if found >= 12:
            break
    assert found >= 6


def test_two_three_creates_degree_three_but_nothing_lower():
    # the fresh edge has degree three; old degrees only grow, so an
    # anatomy-passing triangulation keeps its minimum degree at three
    tri = decode("gLLMQbeefffehhqxhqq")
    from idealtri import anatomy_report
    assert anatomy_report(tri)["min_edge_degree"] >= 3
    site = next(s for s in enumerate_moves(tri) if s.kind == "2-3")
    bigger = apply_move(tri, site)
    report = anatomy_report(bigger)
    assert report["degree_histogram"].get(3, 0) >= 1
    assert report["min_edge_degree"] == 3
    assert 1 not in report["degree_histogram"]
    assert 2 not in report["degree_histogram"]


def test_inapplicable_moves_raise():
    tri = build_bundle("RL").tri
    with pytest.raises(MoveError):
        apply_move(tri, MoveSite("3-2", 0))  # degree-6 edge
    with pytest.raises(MoveError):
        apply_move(tri, MoveSite("4-4", 0))


@pytest.mark.parametrize("kind", ["2-3", "3-2", "4-4"])
def test_site_index_out_of_range_raises(kind):
    # a negative index must not wrap round to a site counted from the end
    tri = decode("gLLMQbeefffehhqxhqq")
    count = len(tri.face_classes if kind == "2-3" else tri.edge_classes)
    for index in (-1, count, True, "0", 0.0):
        with pytest.raises(MoveError, match="not in range"):
            apply_move(tri, MoveSite(kind, index))
    # nor is an axis anything but an int
    for axis in (True, "0", None):
        with pytest.raises(MoveError, match="axis"):
            apply_move(tri, MoveSite(kind, 0, axis))
    # at a site the move applies to, 2-3 and 3-2 take axis 0 alone and
    # 4-4 takes 0 or 1
    if kind == "3-2":
        tri = apply_move(tri, MoveSite("2-3", 0))
    elif kind == "4-4":
        tri = octahedron_model()
    site = next(s for s in enumerate_moves(tri) if s.kind == kind)
    apply_move(tri, site)
    for axis in ((2, -1) if kind == "4-4" else (1, 5, -7)):
        with pytest.raises(MoveError, match="axis"):
            apply_move(tri, site._replace(axis=axis))
        with pytest.raises(MoveError, match="axis"):
            image_degrees(tri, site._replace(axis=axis),
                          [e.degree for e in tri.edge_classes])


def test_image_degrees_refuses_what_apply_move_refuses():
    # both read the move's ball through one checked path
    for tri, sites in (
            (build_bundle("RL").tri, [MoveSite("3-2", 0), MoveSite("4-4", 0),
                                      MoveSite("5-1", 0)]),
            (decode("gLLMQbeefffehhqxhqq"), [MoveSite("2-3", -1),
                                              MoveSite("3-2", 6)])):
        degrees = [e.degree for e in tri.edge_classes]
        for site in sites:
            with pytest.raises(MoveError):
                apply_move(tri, site)
            with pytest.raises(MoveError):
                image_degrees(tri, site, degrees)


def _edge_class_count(tri):
    """The number of edge classes by the reference walk, or None when an
    edge is identified with itself in reverse."""
    try:
        return len(reference_edge_classes(tri)[0])
    except InvalidEdge:
        return None


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.booleans(), st.integers(0, 2 ** 32 - 1))
@example(2, True, 1)        # a closed complex with a reversed edge
def test_moves_match_reference_tables(n, closed, seed):
    # arbitrary complexes reach clusters glued to themselves and
    # clusters with free faces, which admissible inputs never do
    tri = random_complex(random.Random(seed), n, closed=closed)
    edges = _edge_class_count(tri)
    # a complex with a reversed edge has no edge classes: try every index
    # its 6n edge slots could name, and expect each site to be refused
    slots = 6 * n if edges is None else edges
    sites = [MoveSite("2-3", i) for i in range(len(tri.face_classes))]
    sites += [MoveSite("3-2", i) for i in range(slots)]
    sites += [MoveSite("4-4", i, axis) for i in range(slots) for axis in (0, 1)]
    for site in sites:
        if edges is None:
            with pytest.raises(MoveError, match="in reverse"):
                apply_move(tri, site)
            continue
        try:
            expected = reference_apply_move(tri, site)
        except MoveError as exc:
            with pytest.raises(MoveError) as raised:
                apply_move(tri, site)
            assert str(raised.value) == str(exc)
            continue
        image = apply_move(tri, site)
        assert image.gluings == expected.gluings
        assert_revalidates(image)


# ---------------------------------------------------------------------------
# the local 4-4 model: one empty and two triangle-pair tetrahedra around
# a 0-even degree-four edge become two of each quad-bearing kind

def _colour_mask(tri, colour_of_slot):
    """Bitmask over edge classes from a per-slot colour rule; checks the
    rule is constant on classes."""
    mask = 0
    for e in tri.edge_classes:
        values = {colour_of_slot(t, a, b) for t, (a, b), _ in e.occurrences}
        assert len(values) == 1, "colour rule not class-constant"
        if values.pop():
            mask |= 1 << e.index
    return mask


def _local_types(tri, phi2):
    """Tetrahedron types for the pair (0, phi2): the rank-2 taxonomy
    applied to a locally rank-deficient configuration."""
    zero = Cocycle(tri, 0)
    out = []
    for t in range(tri.n):
        kinds = "".join(sorted(
            classify_tet_rank1(tri, p, t)[0] for p in (zero, phi2, phi2)))
        out.append({"qqq": "qqq", "qtt": "qtt", "eqq": "qq",
                    "ett": "tt", "eee": "empty"}[kinds])
    return out


def test_local_four_four_trades_empty_for_quads():
    tri = octahedron_model()

    # colour: phi2 = 1 exactly on edges at u or v towards x_0, x_1 and on
    # the equator edges {x_1,x_2}, {x_3,x_0}; tet i has equator vertices
    # x_i (label 2) and x_{i+1} (label 3).
    def equator(t, label):
        return t if label == 2 else (t + 1) % 4

    def colour(t, a, b):
        a, b = sorted((a, b))
        if (a, b) == (0, 1):
            return 0                                   # the edge f
        if a in (0, 1):
            return 1 if equator(t, b) in (0, 1) else 0  # spokes
        return 1 if {equator(t, 2), equator(t, 3)} in ({1, 2}, {3, 0}) else 0

    phi2 = Cocycle(tri, _colour_mask(tri, colour))
    before = _local_types(tri, phi2)
    assert sorted(before) == ["empty", "qq", "tt", "tt"]

    f = tri.edge_class_of(0, 0, 1)
    assert tri.edge_classes[f].degree == 4
    sites = [s for s in enumerate_moves(tri)
             if s.kind == "4-4" and s.index == f]
    assert len(sites) == 2

    for site in sites:
        image = apply_move(tri, site)
        assert image.n == 4

        # new tetrahedra: 0,1 = poles u; 2,3 = poles v; labels
        # (pole, axis, off-axis, axis). Walking the edge cycle of the
        # model visits tets 0,3,2,1 with equator points x_0,x_3,x_2,x_1.
        points = [0, 3, 2, 1]
        a1, a2 = points[site.axis], points[site.axis + 2]
        o1, o2 = points[(site.axis + 1) % 4], points[(site.axis + 3) % 4]
        semantics = [
            ("u", a1, o1, a2), ("u", a1, o2, a2),
            ("v", a1, o1, a2), ("v", a1, o2, a2),
        ]

        def new_colour(t, a, b):
            sa, sb = semantics[t][a], semantics[t][b]
            if isinstance(sa, str) and isinstance(sb, str):
                return 0
            if isinstance(sa, str) or isinstance(sb, str):
                x = sb if isinstance(sa, str) else sa
                return 1 if x in (0, 1) else 0
            if {sa, sb} in ({0, 1}, {2, 3}):
                return 0
            return 1      # {1,2}, {3,0} and both diagonals {0,2}, {1,3}

        phi2_new = Cocycle(image, _colour_mask(image, new_colour))
        after = _local_types(image, phi2_new)
        assert sorted(after) == ["qq", "qq", "tt", "tt"]
