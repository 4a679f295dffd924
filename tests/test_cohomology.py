"""Cocycle space, taxonomies, counting identities, certificates."""

import random

import pytest

from idealtri import (
    Cocycle, IdentityError, ParityError, bound_certificate, check_identities,
    classify_rank1, classify_rank2, cocycle_space, decode, rank2_subgroups,
)
from idealtri.cohomology import classify_tet_rank1, even_subcomplex_euler
from idealtri.monodromy import build_bundle
from idealtri.triangulation import InvalidEdge
from idealtri.surfaces import canonical_surface, euler_characteristic

from helpers import random_admissible, random_complex

CENSUS_FIXTURES = [
    "gLLMQbeefffehhqxhqq",
    "iLLLQPcbefgffhhhxxhaqxxqh",
    "iLLLQPcbefgffhhhhhqaxhhxq",
    "iLLwQPcbeefgehhhhhqhhqhqx",
]


def test_zero_colouring_is_a_cocycle():
    for sig in CENSUS_FIXTURES:
        tri = decode(sig)
        Cocycle(tri, 0)  # no ParityError


def test_bad_colouring_rejected():
    tri = decode(CENSUS_FIXTURES[0])
    with pytest.raises(ParityError):
        Cocycle(tri, 1)  # a single odd edge breaks some face


def test_cocycle_space_ranks():
    # H2(M;Z2) has rank b1 - 1 for these one-cusped manifolds: 0 for the
    # homology-Z bundles on two tetrahedra, 2 for identity-mod-2 words.
    assert cocycle_space(build_bundle("RL").tri).rank == 0
    assert cocycle_space(build_bundle("RRLL").tri).rank == 2
    for sig in CENSUS_FIXTURES:
        assert cocycle_space(decode(sig)).rank == 2


def test_sums_of_cocycles_are_cocycles():
    tri = decode(CENSUS_FIXTURES[0])
    basis = cocycle_space(tri)
    for a in basis.elements():
        for b in basis.elements():
            c = a + b  # validates parity on construction
            assert c.mask == a.mask ^ b.mask


def test_rank1_zero_is_all_empty():
    tri = decode(CENSUS_FIXTURES[0])
    assert classify_rank1(tri, Cocycle(tri, 0)) == {"q": 0, "t": 0, "e": tri.n}


def test_rank1_rrll_all_quads():
    tri = build_bundle("RRLL").tri
    for phi in cocycle_space(tri).nonzero_elements():
        assert classify_rank1(tri, phi) == {"q": tri.n, "t": 0, "e": 0}


def test_rank1_exhaustive_on_random_colourings():
    # Every tetrahedron of every valid cocycle classifies.
    rng = random.Random(13)
    for _ in range(20):
        tri = random_admissible(rng)
        for phi in cocycle_space(tri).nonzero_elements():
            for t in range(tri.n):
                kind, _ = classify_tet_rank1(tri, phi, t)
                assert kind in "qte"


def test_classify_rank2_requires_independence():
    tri = decode(CENSUS_FIXTURES[0])
    basis = cocycle_space(tri)
    phi = basis.vectors[0]
    with pytest.raises(ParityError):
        classify_rank2(tri, phi, phi)
    with pytest.raises(ParityError):
        classify_rank2(tri, phi, Cocycle(tri, 0))


def test_rank2_subgroups_match_the_cocycle_span():
    # The masks formed as ints are the span's nonzero cocycles, each of
    # which passes the parity check
    rng = random.Random(29)
    tris = [decode(sig) for sig in CENSUS_FIXTURES]
    tris += [build_bundle(w).tri for w in ("RRLL", "RRRLLL", "RLRLRL")]
    tris += [random_admissible(rng, rank2_only=True) for _ in range(10)]
    # bounded and closed complexes reach ranks up to 6
    tris += [random_complex(rng, rng.randint(1, 4), closed=rng.random() < 0.5)
             for _ in range(60)]
    for tri in tris:
        try:
            basis = cocycle_space(tri)
        except InvalidEdge:
            continue
        nonzero = sorted(c.mask for c in basis.nonzero_elements())
        expected = [(x, y, x ^ y) for i, x in enumerate(nonzero)
                    for y in nonzero[i + 1:] if y < x ^ y]
        assert rank2_subgroups(basis) == expected
        for sg in expected:
            for mask in sg:
                Cocycle(tri, mask)


def test_rank2_counts_partition_tetrahedra():
    rng = random.Random(29)
    for _ in range(20):
        tri = random_admissible(rng)
        basis = cocycle_space(tri)
        for sg in rank2_subgroups(basis):
            rc = classify_rank2(tri, Cocycle(tri, sg[0]), Cocycle(tri, sg[1]))
            assert sum(rc.counts.values()) == tri.n
            assert len(rc.edge_labels) == len(tri.edge_classes)


def test_fixture_rank2_all_qqq_exists():
    # Each census fixture admits a rank-2 subgroup with every
    # tetrahedron of type qqq.
    for sig in CENSUS_FIXTURES:
        tri = decode(sig)
        basis = cocycle_space(tri)
        found = False
        for sg in rank2_subgroups(basis):
            rc = classify_rank2(tri, Cocycle(tri, sg[0]), Cocycle(tri, sg[1]))
            if rc.counts["qqq"] == tri.n:
                found = True
        assert found


def _identity_report(tri, sg):
    rc = classify_rank2(tri, Cocycle(tri, sg[0]), Cocycle(tri, sg[1]))
    chis = [euler_characteristic(canonical_surface(tri, p)) for p in rc.phi]
    return check_identities(rc, *chis), rc


def test_identities_on_fixtures():
    for sig in CENSUS_FIXTURES:
        tri = decode(sig)
        for sg in rank2_subgroups(cocycle_space(tri)):
            report, rc = _identity_report(tri, sg)
            for key in ("eq_types_vs_chi", "eq_weighted_even_edges",
                        "eq_degree_three_even_edges", "even_subcomplex_euler"):
                assert report[key]["holds"], (sig, key)


def test_each_identity_raises_when_its_input_is_perturbed():
    tri = decode(CENSUS_FIXTURES[0])
    for sg in rank2_subgroups(cocycle_space(tri)):
        report, rc = _identity_report(tri, sg)
        chis = report["chi"]
        with pytest.raises(IdentityError, match="type/chi"):
            check_identities(rc, chis[0] + 1, *chis[1:])
        bad = rc._replace(e0_weighted=rc.e0_weighted + 1)
        with pytest.raises(IdentityError, match="weighted even-edge"):
            check_identities(bad, *chis)
        hist = dict(rc.e0_histogram)
        hist[3] = hist.get(3, 0) + 1
        bad = rc._replace(e0_histogram=hist)
        with pytest.raises(IdentityError, match="degree-three"):
            check_identities(bad, *chis)
        # one more 0-even edge, which e0 does not count
        odd = rc.edge_labels.index(next(x for x in rc.edge_labels if x))
        labels = rc.edge_labels[:odd] + (0,) + rc.edge_labels[odd + 1:]
        bad = rc._replace(edge_labels=labels)
        with pytest.raises(IdentityError, match="even subcomplex"):
            check_identities(bad, *chis)


def test_identities_on_random_triangulations():
    rng = random.Random(37)
    checked = 0
    for _ in range(40):
        tri = random_admissible(rng)
        for sg in rank2_subgroups(cocycle_space(tri)):
            report, _ = _identity_report(tri, sg)
            checked += 1
    assert checked > 20


def test_all_qqq_reduction():
    # With no 0-even edges the identities collapse: sum chi = -n_qqq and
    # there are no 0-even degree-three edges.
    tri = build_bundle("RRLL").tri
    (sg,) = rank2_subgroups(cocycle_space(tri))
    report, rc = _identity_report(tri, sg)
    assert rc.counts["qqq"] == tri.n
    assert rc.e0 == 0
    assert sum(report["chi"]) == -tri.n
    assert report["eq_degree_three_even_edges"]["lhs"] == 0


def test_even_subcomplex_euler_formula():
    rng = random.Random(41)
    for _ in range(15):
        tri = random_admissible(rng)
        for sg in rank2_subgroups(cocycle_space(tri)):
            rc = classify_rank2(tri, Cocycle(tri, sg[0]), Cocycle(tri, sg[1]))
            direct = even_subcomplex_euler(rc)
            assert 2 * direct == -2 * rc.e0 + rc.counts["tt"] + 2 * rc.counts["empty"]


def test_certificates_on_fixtures():
    expected = {CENSUS_FIXTURES[0]: 6, CENSUS_FIXTURES[1]: 8,
                CENSUS_FIXTURES[2]: 8, CENSUS_FIXTURES[3]: 8}
    for sig, total in expected.items():
        tri = decode(sig)
        cert = bound_certificate(tri)
        assert cert is not None
        assert cert.sum_neg_chi == total == tri.n
        assert tri.n % 2 == 0
        assert cert.even_count_check


def test_no_certificate_without_rank_two():
    assert bound_certificate(build_bundle("RL").tri) is None


def test_certificate_orientation_types_alternate():
    tri = decode(CENSUS_FIXTURES[0])
    cert = bound_certificate(tri)
    types = cert.orientation_types
    for t in range(tri.n):
        for f in range(4):
            t2, _ = tri.gluings[t][f]
            assert types[t] != types[t2]


def test_qqq_colouring_uses_each_quad_type_once():
    tri = build_bundle("RRLL").tri
    (sg,) = rank2_subgroups(cocycle_space(tri))
    rc = classify_rank2(tri, Cocycle(tri, sg[0]), Cocycle(tri, sg[1]))
    for t in range(tri.n):
        quads = {rc.quad_of(t, i) for i in (1, 2, 3)}
        assert quads == {1, 2, 3}


def test_rank2_colouring_keeps_rank1_types_and_surfaces():
    # the stored per-colouring types are the rank-1 classification, and
    # the surfaces read off them are the canonical surfaces
    rng = random.Random(8)
    tris = [build_bundle(w).tri for w in ("RRLL", "RLRLRL", "RRLRL")]
    tris += [random_admissible(rng, rank2_only=True) for _ in range(8)]
    for tri in tris:
        for sg in rank2_subgroups(cocycle_space(tri)):
            rc = classify_rank2(tri, Cocycle(tri, sg[0]), Cocycle(tri, sg[1]))
            assert rc.rank1_types == tuple(
                tuple(classify_tet_rank1(tri, p, t) for t in range(tri.n))
                for p in rc.phi)
            surfaces = tuple(canonical_surface(tri, p) for p in rc.phi)
            assert rc.canonical_surfaces() == surfaces
            for i, surface in enumerate(surfaces, 1):
                for t in range(tri.n):
                    quads = [q + 1 for q in range(3) if surface.quads[t][q]]
                    assert rc.quad_of(t, i) == (quads[0] if quads else None)


def test_certificate_independent_of_basis_choice():
    # The subgroup-level result does not depend on which basis the
    # elimination produced: permuting labels gives the same subgroup set.
    from idealtri import relabelled
    from idealtri.perms import S4
    rng = random.Random(53)
    tri = decode(CENSUS_FIXTURES[0])
    base = bound_certificate(tri)
    for _ in range(5):
        tet_map = list(range(tri.n))
        rng.shuffle(tet_map)
        vmaps = [rng.choice(S4) for _ in range(tri.n)]
        other = relabelled(tri, tet_map, vmaps)
        cert = bound_certificate(other)
        assert cert is not None
        assert cert.sum_neg_chi == base.sum_neg_chi
        assert sorted(cert.chi) == sorted(base.chi)
