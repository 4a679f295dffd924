"""The result records are named tuples with the fields, in order, that
they had as dataclasses; three of them validate in their constructor,
and ``_replace`` goes through it."""

import pytest

from idealtri import cohomology, lst, monodromy, surfaces
from idealtri.isosig import decode

FIELDS = {
    cohomology.Cocycle: ("tri", "mask"),
    cohomology.CocycleBasis: ("tri", "vectors"),
    cohomology.RankTwoColouring: (
        "tri", "phi", "edge_labels", "tet_types", "rank1_types", "counts",
        "e0", "e0_weighted", "e0_histogram"),
    cohomology.BoundCertificate: (
        "tri", "subgroup", "colouring", "surfaces", "chi", "sum_neg_chi",
        "tetrahedra", "even_count_check", "orientation_types"),
    surfaces.NormalSurface: ("tri", "triangles", "quads"),
    surfaces.SurfaceComponent: ("euler", "orientable", "discs"),
    surfaces.SurfaceComponents: ("surface", "components"),
    lst.LstParams: ("a", "b", "c"),
    lst.LstComplex: ("tri", "params", "word", "boundary", "free_faces"),
    lst.LstCertificate: (
        "edge", "tets", "core", "params", "word", "boundary_edges",
        "maximal"),
    lst.DetectionFailure: ("edge", "reason"),
    monodromy.MonodromyWord: ("word", "matrix", "trace", "mod2",
                              "mod2_order"),
    monodromy.BundleTriangulation: ("tri", "analysis", "signature"),
    monodromy.BundleCertificate: (
        "word", "covered_word", "cover_degree", "bundle", "certificate",
        "horizontal_counts", "tetrahedra"),
}


@pytest.mark.parametrize("record", FIELDS, ids=lambda r: r.__name__)
def test_record_is_a_named_tuple(record):
    assert issubclass(record, tuple)
    assert record._fields == FIELDS[record]
    assert record._field_defaults == {}


def test_records_are_immutable():
    params = lst.LstParams(1, 2, 3)
    assert params.as_tuple() == (1, 2, 3)
    assert repr(params) == "LstParams(a=1, b=2, c=3)"
    with pytest.raises(AttributeError):
        params.a = 2
    with pytest.raises(AttributeError):
        params.d = 2


def test_cocycle_rejects_odd_faces():
    tri = decode("cPcbbbiht")
    with pytest.raises(cohomology.ParityError):
        cohomology.Cocycle(tri, 1)
    with pytest.raises(cohomology.ParityError):
        cohomology.Cocycle(tri, 0)._replace(mask=1)
    # a mask must be a set of the edge classes: an int below 1 << 6 here
    tri = decode("gLLMQbeefffehhqxhqq")
    assert len(tri.edge_classes) == 6
    for mask in (1 << 6, -1, 1.5, "1", None, True):
        with pytest.raises(cohomology.ParityError):
            cohomology.Cocycle(tri, mask)
    with pytest.raises(cohomology.ParityError):
        cohomology.Cocycle(tri, 0)._replace(mask=1 << 6)
    # phi with a bit past the edge classes agrees with phi on every edge:
    # it is no second colouring for the rank-2 sweep
    phi = cohomology.cocycle_space(tri).vectors[0]
    with pytest.raises(cohomology.ParityError):
        cohomology.classify_rank2(
            tri, phi, cohomology.Cocycle(tri, phi.mask | 1 << 6))


def test_normal_surface_rejects_bounded_triangulations():
    tri = lst.lst_build("").tri
    assert not tri.is_closed
    with pytest.raises(surfaces.SurfaceError):
        surfaces.NormalSurface(tri, ((0, 0, 0, 0),), ((0, 0, 0),))


def test_lst_params_rejects_non_meridian_triples():
    with pytest.raises(lst.LstError):
        lst.LstParams(1, 1, 3)
    with pytest.raises(lst.LstError):
        lst.LstParams(2, 2, 4)
    with pytest.raises(lst.LstError):
        lst.LstParams(1, 2, 3)._replace(a=2)
