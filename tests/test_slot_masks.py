"""The slot-mask readers of the Z2 taxonomy against the per-slot
readers they replaced: rank-1 and rank-2 types, canonical surfaces and
their Euler characteristics, the even subcomplex, the orientation
sub-types and the face types."""

import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from idealtri import (
    Cocycle, IdentityError, ParityError, build, canonical_surface,
    check_identities, classify_rank1, classify_rank2, cocycle_space, decode,
    euler_characteristic, vertex_link_surface,
)
from idealtri.cohomology import (
    _RANK1, _RANK2, classify_tet_rank1, even_subcomplex_euler,
    qqq_orientation_types, rank2_colourings,
)
from idealtri.monodromy import build_bundle
from idealtri.surfaces import NormalSurface, SurfaceError, _surface_of_types
from idealtri.triangulation import InvalidEdge, classify_face

from helpers import (
    random_admissible, random_complex, reference_classify_face,
    reference_classify_rank2, reference_classify_tet_rank1,
    reference_euler_characteristic, reference_even_subcomplex_euler,
    reference_qqq_orientation_types,
)

CENSUS_FIXTURES = [
    "gLLMQbeefffehhqxhqq",
    "iLLLQPcbefgffhhhxxhaqxxqh",
    "iLLLQPcbefgffhhhhhqaxhhxq",
    "iLLwQPcbeefgehhhhhqhhqhqx",
]
WORDS = ["".join(w) for length in range(2, 7)
         for w in itertools.product("RL", repeat=length)
         if "R" in w and "L" in w]


class Unchecked(Cocycle):
    """A colouring that skips the parity check, to reach the readers'
    own ParityError."""

    def __new__(cls, tri, mask):
        return tuple.__new__(cls, (tri, mask))

    def __add__(self, other):
        return Unchecked(self.tri, self.mask ^ other.mask)


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the type and message it raised."""
    try:
        return fn(*args)
    except (ParityError, IdentityError, SurfaceError, InvalidEdge) as exc:
        return type(exc), str(exc)


def check_face_types(tri):
    for t in range(tri.n):
        for f in range(4):
            assert outcome(classify_face, tri, t, f) \
                == outcome(reference_classify_face, tri, t, f)


def scaled(surface, k):
    def times(rows):
        return tuple(tuple(k * c for c in row) for row in rows)
    return NormalSurface(tri=surface.tri, triangles=times(surface.triangles),
                         quads=times(surface.quads))


def summed(s1, s2):
    def add(rows1, rows2):
        return tuple(tuple(map(sum, zip(*rows))) for rows in zip(rows1, rows2))
    return NormalSurface(tri=s1.tri, triangles=add(s1.triangles, s2.triangles),
                         quads=add(s1.quads, s2.quads))


def check_chi(surface):
    assert euler_characteristic(surface) \
        == reference_euler_characteristic(surface)


def check_z2_readers(tri):
    """Every slot-mask reader agrees with its per-slot reference on every
    cocycle of a closed triangulation and on every rank-2 colouring."""
    check_face_types(tri)
    basis = cocycle_space(tri)
    surfaces = [vertex_link_surface(tri, v.index) for v in tri.vertex_classes]
    for phi in basis.elements():
        types = [reference_classify_tet_rank1(tri, phi, t)
                 for t in range(tri.n)]
        assert [classify_tet_rank1(tri, phi, t)
                for t in range(tri.n)] == types
        assert classify_rank1(tri, phi) == {
            k: [kind for kind, _ in types].count(k) for k in "qte"}
        if not phi.is_zero():
            surface = canonical_surface(tri, phi)
            assert surface == _surface_of_types(tri, types)
            surfaces.append(surface)
    for surface in surfaces:
        check_chi(surface)
        check_chi(scaled(surface, 2))
    for s1, s2 in zip(surfaces, surfaces[1:]):
        check_chi(summed(s1, s2))
    rng = random.Random(tri.n)
    for rc in rank2_colourings(basis):
        assert rc == reference_classify_rank2(tri, *rc.phi[:2])
        # the readers of edge labels, also on labels no colouring has
        for labels in [rc.edge_labels] + [
                tuple(rng.choice((0, 0, 1, 2, 3)) for _ in rc.edge_labels)
                for _ in range(4)]:
            probe = rc._replace(edge_labels=labels)
            assert even_subcomplex_euler(probe) \
                == reference_even_subcomplex_euler(probe)
            assert outcome(qqq_orientation_types, tri, probe) \
                == outcome(reference_qqq_orientation_types, tri, probe)


def test_rank1_table_is_the_reference_rule():
    # One free tetrahedron: slot k is edge class k, so a colouring mask
    # is a slot mask.  Masks failing the parity check need a stand-in.
    tri = build(1, {}, closed=False)
    assert tri._edge_slots[0] == list(range(6))
    kinds = []
    for mask in range(64):
        phi = Unchecked(tri, mask)
        expected = outcome(reference_classify_tet_rank1, tri, phi, 0)
        assert outcome(classify_tet_rank1, tri, phi, 0) == expected
        if _RANK1[mask] is None:
            assert expected == (
                ParityError, "tetrahedron 0 matches no rank-1 type")
        else:
            assert _RANK1[mask] == expected
            kinds.append(expected[0])
    assert sorted(kinds) == ["e"] + ["q"] * 3 + ["t"] * 4


def test_rank2_table_types_every_pair_of_rank1_masks():
    # classify_rank2 reads _RANK2 without a check: the 8 masks with a
    # rank-1 type are closed under sums, and any two of them and their
    # sum have a rank-2 type
    typed = [mask for mask in range(64) if _RANK1[mask] is not None]
    assert len(typed) == 8
    for m1, m2 in itertools.product(typed, repeat=2):
        assert m1 ^ m2 in typed
        assert _RANK2[tuple(_RANK1[m][0] for m in (m1, m2, m1 ^ m2))]


def test_readers_raise_the_reference_parity_error():
    for sig in CENSUS_FIXTURES:
        tri = decode(sig)
        with pytest.raises(ParityError):
            Cocycle(tri, 1)
        bad, good = Unchecked(tri, 1), cocycle_space(tri).vectors[0]
        for t in range(tri.n):
            assert outcome(classify_tet_rank1, tri, bad, t) \
                == outcome(reference_classify_tet_rank1, tri, bad, t)
        first = outcome(lambda: [reference_classify_tet_rank1(tri, bad, t)
                                 for t in range(tri.n)])
        assert first[0] is ParityError
        assert outcome(classify_rank1, tri, bad) == first
        assert outcome(canonical_surface, tri, bad) == first
        for phi1, phi2 in ((bad, good), (good, bad)):
            assert outcome(classify_rank2, tri, phi1, phi2) \
                == outcome(reference_classify_rank2, tri, phi1, phi2)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_readers_match_reference_on_random_complexes(n, closed, seed):
    tri = random_complex(random.Random(seed), n, closed=closed)
    check_face_types(tri)
    try:
        tri.edge_classes
    except InvalidEdge:
        return
    if closed:
        check_z2_readers(tri)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans())
def test_readers_match_reference_on_admissible_triangulations(seed, rank2):
    check_z2_readers(random_admissible(random.Random(seed), rank2_only=rank2))


# the last two have rank-2 colourings with tt tetrahedra, so 0-even faces
@pytest.mark.parametrize("sig", CENSUS_FIXTURES + [
    "hLLLQkbdfgfggfmsdddsbg", "iLLvQQccdfefgghhusahjkcbg"])
def test_readers_match_reference_on_census_fixtures(sig):
    check_z2_readers(decode(sig))


def test_readers_match_reference_on_bundles():
    assert len(WORDS) == 114
    for word in WORDS:
        check_z2_readers(build_bundle(word).tri)


def test_degree_three_message_prints_the_compared_value():
    # RRLL has no 0-even edges; one extra of degree 1 and one of degree 2
    # make e1 = e2 = 1, so e3 is compared with rhs - 3 - 2.
    tri = build_bundle("RRLL").tri
    (rc,) = rank2_colourings(cocycle_space(tri))
    chis = [euler_characteristic(s) for s in rc.canonical_surfaces()]
    report = check_identities(rc, *chis)
    rhs = report["eq_degree_three_even_edges"]["rhs"]
    bad = rc._replace(e0_histogram={1: 1, 2: 1})
    with pytest.raises(IdentityError) as raised:
        check_identities(bad, *chis)
    message = str(raised.value)
    assert message.startswith("degree-three even-edge identity fails")
    assert re.findall(r"-?\d+", message.split(":")[1]) \
        == [str(0), str(rhs - 3 - 2)]
