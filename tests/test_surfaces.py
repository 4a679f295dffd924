"""Canonical and vertex-linking normal surfaces, cell-count Euler
characteristics, components, orientability."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from idealtri import (
    Cocycle, SurfaceError, canonical_surface, chi_minus, cocycle_space,
    components, decode, euler_characteristic, from_coordinates, lst_build,
    rank2_subgroups, vertex_link_surface,
)
from idealtri.cohomology import classify_rank2
from idealtri.monodromy import build_bundle
from idealtri.surfaces import NormalSurface

from helpers import (
    random_admissible, random_closed_complex, reference_components,
    reference_least_sheets,
)

CENSUS_FIXTURES = [
    "gLLMQbeefffehhqxhqq",
    "iLLLQPcbefgffhhhxxhaqxxqh",
    "iLLLQPcbefgffhhhhhqaxhhxq",
    "iLLwQPcbeefgehhhhhqhhqhqx",
]


def test_zero_cocycle_has_no_canonical_surface():
    tri = decode(CENSUS_FIXTURES[0])
    with pytest.raises(SurfaceError):
        canonical_surface(tri, Cocycle(tri, 0))


def test_two_quad_types_rejected():
    tri = decode("cPcbbbiht")
    with pytest.raises(SurfaceError):
        from_coordinates(tri, [0, 0, 0, 0, 1, 1, 0] + [0] * 7)


def test_vertex_link_is_torus():
    for sig in CENSUS_FIXTURES + ["cPcbbbiht"]:
        tri = decode(sig)
        surface = vertex_link_surface(tri)
        assert euler_characteristic(surface) == 0
        comps = components(surface)
        assert len(comps.components) == 1
        assert comps.components[0].euler == 0
        assert comps.components[0].orientable
        assert comps.chi_minus() == 0


def test_rrll_canonical_surfaces_all_quads():
    tri = build_bundle("RRLL").tri
    for phi in cocycle_space(tri).nonzero_elements():
        surface = canonical_surface(tri, phi)
        assert sum(sum(r) for r in surface.triangles) == 0
        assert sum(sum(r) for r in surface.quads) == 4
        assert surface.weight == len(phi.odd_edges())


def test_rrll_certificate_chi_sum():
    tri = build_bundle("RRLL").tri
    chis = [euler_characteristic(canonical_surface(tri, p))
            for p in cocycle_space(tri).nonzero_elements()]
    assert sum(chis) == -4


BUNDLE_WORDS = ["RL", "RRL", "RRLL", "RLRLRL", "RRLRRL", "RRRLLRLRLL"]


def sample_triangulations(rng, count):
    return ([random_admissible(rng) for _ in range(count)]
            + [build_bundle(w).tri for w in BUNDLE_WORDS])


def assert_slots_agree(surface):
    # edge_weights reads one slot per edge class, so all must agree
    for e in surface.tri.edge_classes:
        assert len({surface.corner_count(t, a, b)
                    for t, (a, b), _ in e.occurrences}) == 1


def test_canonical_weight_counts_odd_edges():
    rng = random.Random(61)
    for tri in sample_triangulations(rng, 15):
        for phi in cocycle_space(tri).nonzero_elements():
            surface = canonical_surface(tri, phi)
            assert_slots_agree(surface)
            assert surface.weight == len(phi.odd_edges())
        for k in range(len(tri.vertex_classes)):
            # the link meets each edge once per end at vertex k
            link = vertex_link_surface(tri, k)
            assert_slots_agree(link)
            ends = 0
            for e in tri.edge_classes:
                t, (a, b), _ = e.occurrences[0]
                ends += ((tri.vertex_class_of(t, a) == k)
                         + (tri.vertex_class_of(t, b) == k))
            assert link.weight == ends


def test_matching_equations_hold_for_canonical_surfaces():
    # construction does not check them, so make the check visible; the
    # checking entry point accepts every surface the library builds
    rng = random.Random(67)
    for tri in sample_triangulations(rng, 10):
        surfaces = [canonical_surface(tri, phi)
                    for phi in cocycle_space(tri).nonzero_elements()]
        surfaces += [vertex_link_surface(tri, k)
                     for k in range(len(tri.vertex_classes))]
        for surface in surfaces:
            for fc in tri.face_classes:
                (t, f), (t2, f2) = fc.sides
                perm = tri.gluings[t][f][1]
                for v in range(4):
                    if v != f:
                        assert surface.arcs(t, f, v) == surface.arcs(t2, f2, perm[v])
            assert_slots_agree(surface)
            assert from_coordinates(tri, surface.coordinate_vector()) == surface


def test_from_coordinates_rejects_bad_vectors():
    tri = decode("cPcbbbiht")
    link = vertex_link_surface(tri).coordinate_vector()
    for vector in [[0] * 13,                         # wrong length
                   [-1] + [0] * 13,                  # negative
                   [0, 0, 0, 0, 1, 1, 0] + [0] * 7,  # two quad types
                   [1] + [0] * 13,                   # matching fails
                   [c / 2 for c in link],            # half a surface
                   [float(c) for c in link],         # floats
                   [str(c) for c in link],           # strings
                   [c == 1 for c in link]]:          # bools
        with pytest.raises(SurfaceError):
            from_coordinates(tri, vector)
    with pytest.raises(SurfaceError):
        from_coordinates(lst_build("").tri, [0] * 7)


def test_chi_from_cells_agrees_with_type_counts():
    # chi(S1)+chi(S2)+chi(S3) + n_qqq = -2e + n_tt + 2n_empty
    rng = random.Random(71)
    for _ in range(20):
        tri = random_admissible(rng)
        for sg in rank2_subgroups(cocycle_space(tri)):
            rc = classify_rank2(tri, Cocycle(tri, sg[0]), Cocycle(tri, sg[1]))
            chis = sum(euler_characteristic(canonical_surface(tri, p))
                       for p in rc.phi)
            assert (chis + rc.counts["qqq"]
                    == -2 * rc.e0 + rc.counts["tt"] + 2 * rc.counts["empty"])


def test_components_edge_incidence_at_most_once_for_canonical():
    # each component of a canonical surface meets each edge at most
    # once, so none can be a sphere
    rng = random.Random(73)
    for _ in range(10):
        tri = random_admissible(rng)
        for phi in cocycle_space(tri).nonzero_elements():
            surface = canonical_surface(tri, phi)
            assert all(w <= 1 for w in surface.edge_weights())
            comps = components(surface)
            assert not comps.has_sphere()
            assert comps.total_euler == euler_characteristic(surface)


def test_rrll_certificate_surfaces_are_one_sided():
    tri = build_bundle("RRLL").tri
    non_orientable = 0
    for phi in cocycle_space(tri).nonzero_elements():
        comps = components(canonical_surface(tri, phi))
        non_orientable += sum(1 for c in comps.components if not c.orientable)
    assert non_orientable >= 1


def test_chi_minus_definition():
    tri = decode(CENSUS_FIXTURES[0])
    surface = vertex_link_surface(tri)
    assert chi_minus(surface) == 0
    cert_tri = build_bundle("RRLL").tri
    for phi in cocycle_space(cert_tri).nonzero_elements():
        surface = canonical_surface(cert_tri, phi)
        assert chi_minus(surface) == -euler_characteristic(surface)


def test_fixture_certificate_chi_minus_sums_to_size():
    for sig in CENSUS_FIXTURES:
        tri = decode(sig)
        from idealtri import bound_certificate
        cert = bound_certificate(tri)
        total = sum(chi_minus(canonical_surface(tri, p))
                    for p in cert.colouring.phi)
        assert total == tri.n


def test_doubled_coordinates_build_orientation_covers():
    # Doubling the coordinates of a one-sided surface yields its
    # orientation double cover: connected, orientable, twice the Euler
    # characteristic.  Doubling a two-sided surface yields two parallel
    # copies.  This exercises the parallel-sheet layering directly.
    tri = build_bundle("RRLL").tri
    for phi in cocycle_space(tri).nonzero_elements():
        surface = canonical_surface(tri, phi)
        single = components(surface)
        assert len(single.components) == 1
        assert not single.components[0].orientable
        doubled = from_coordinates(
            tri, [2 * x for x in surface.coordinate_vector()])
        cover = components(doubled)
        assert len(cover.components) == 1
        assert cover.components[0].orientable
        assert cover.components[0].euler == 2 * single.components[0].euler

    link_tri = decode(CENSUS_FIXTURES[0])
    link = vertex_link_surface(link_tri)
    doubled = from_coordinates(
        link_tri, [2 * x for x in link.coordinate_vector()])
    comps = components(doubled)
    assert sorted((c.euler, c.orientable) for c in comps.components) == [
        (0, True), (0, True)]


def test_sum_with_vertex_link_splits_into_both():
    # canonical surfaces avoid the cusp, so adding the vertex-linking
    # coordinates gives the disjoint union of the two surfaces
    tri = build_bundle("RRLL").tri
    link = vertex_link_surface(tri)
    for phi in cocycle_space(tri).nonzero_elements():
        surface = canonical_surface(tri, phi)
        both = from_coordinates(tri, [
            x + y for x, y in zip(surface.coordinate_vector(),
                                  link.coordinate_vector())])
        expected = sorted(
            [(c.euler, c.orientable) for c in components(surface).components]
            + [(0, True)])
        got = sorted((c.euler, c.orientable)
                     for c in components(both).components)
        assert got == expected
        assert euler_characteristic(both) == euler_characteristic(surface)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), st.integers(0, 2 ** 32 - 1))
def test_components_match_reference(n, seed):
    # The same components as the union-find oracle, listed in the order
    # of their least disc sheet: over admissible triangulations (n = 0)
    # and closed complexes of n tetrahedra, many of them non-orientable;
    # for the vertex links and canonical surfaces, their doubles and
    # triples, and their embeddable pairwise sums.  Each component's chi
    # is read by euler_characteristic, so their sum must be the surface's.
    rng = random.Random(seed)
    tri = random_admissible(rng) if n == 0 else random_closed_complex(rng, n)
    base = [vertex_link_surface(tri, k).coordinate_vector()
            for k in range(len(tri.vertex_classes))]
    base += [canonical_surface(tri, phi).coordinate_vector()
             for phi in cocycle_space(tri).nonzero_elements()]
    vectors = [[m * x for x in v] for v in base for m in (1, 2, 3)]
    vectors += [[x + y for x, y in zip(v, w)]
                for v, w in itertools.combinations(base, 2)]
    for vector in vectors:
        try:
            surface = from_coordinates(tri, vector)
        except SurfaceError:        # two quad types in a tetrahedron
            continue
        expected = reference_components(surface).components
        by_least = sorted(zip(reference_least_sheets(surface), expected))
        got = components(surface).components
        assert got == tuple(c for _, c in by_least)
        assert sum(c.euler for c in got) == euler_characteristic(surface)
        assert sum(c.discs for c in got) == surface.disc_count


def test_vertex_link_of_missing_class_is_rejected():
    # -1 does not wrap round to the last class, and a bool is no index
    tri = decode("cPcbbbiht")
    for index in (-1, len(tri.vertex_classes), True, False, 0.0):
        with pytest.raises(SurfaceError):
            vertex_link_surface(tri, index)


def test_chi_minus_over_mixed_components():
    from idealtri.surfaces import SurfaceComponent, SurfaceComponents
    comps = SurfaceComponents(surface=None, components=(
        SurfaceComponent(euler=-2, orientable=True, discs=4),
        SurfaceComponent(euler=0, orientable=True, discs=2)))
    assert comps.chi_minus() == 2
    assert not comps.has_sphere()
    sphere = SurfaceComponents(surface=None, components=(
        SurfaceComponent(euler=2, orientable=True, discs=4),))
    assert sphere.has_sphere()
    assert sphere.chi_minus() == 0


def test_coordinate_vector_round_trip():
    tri = decode("cPcbbbiht")
    surface = vertex_link_surface(tri)
    vec = surface.coordinate_vector()
    assert len(vec) == 7 * tri.n
    again = from_coordinates(tri, vec)
    assert again.triangles == surface.triangles
    assert again.quads == surface.quads


def test_components_reject_unmatched_coordinates():
    # NormalSurface takes its coordinates as given: a lone triangle has
    # no partner across the faces its arcs cut
    tri = decode("cPcbbbiht")
    surface = NormalSurface(tri, ((1, 0, 0, 0), (0, 0, 0, 0)),
                            ((0, 0, 0), (0, 0, 0)))
    with pytest.raises(SurfaceError, match="mismatch"):
        components(surface)
