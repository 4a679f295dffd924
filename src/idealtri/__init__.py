"""Ideal triangulations of cusped 3-manifolds: combinatorics,
GF(2) cohomology, canonical normal surfaces, and complexity bounds.

Importing the package executes none of its submodules.  Each one but
the ``cli`` entry point is registered in ``sys.modules`` (and as an
attribute here) through ``importlib.util.LazyLoader`` and executes when
one of its attributes is first read, so a subcommand executes only the
modules it calls.  ``cli`` is imported the usual way, so that
``python -m idealtri.cli`` does not find it imported already.  The
public names below resolve on first access (PEP 562).
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

_EXPORTS = {
    "triangulation": (
        "Triangulation", "EdgeClass", "VertexClass", "FaceClass", "FaceType",
        "InvalidTriangulation", "InvalidEdge",
        "build", "classify_faces", "face_type_counts", "degree_histogram",
        "anatomy_report", "boundary_surface", "relabelled",
        "find_isomorphism", "subcomplex"),
    "isosig": ("decode", "encode_canonical", "read_census",
               "MalformedSignature"),
    "cohomology": (
        "Cocycle", "CocycleBasis", "RankTwoColouring", "BoundCertificate",
        "ParityError", "IdentityError", "LinkError",
        "cocycle_space", "classify_rank1", "classify_rank2",
        "check_identities", "bound_certificate", "rank2_subgroups"),
    "surfaces": (
        "NormalSurface", "SurfaceComponents", "SurfaceError",
        "canonical_surface", "euler_characteristic", "components",
        "chi_minus", "vertex_link_surface", "from_coordinates"),
    "lst": (
        "LstParams", "LstComplex", "LstCertificate", "LstError",
        "lst_build", "layer_tetrahedron", "detect_degree3",
        "maximal_extension", "pairwise_intersection"),
    "moves": ("MoveSite", "MoveError", "enumerate_moves", "apply_move"),
    "search": ("SearchResult", "enumerate_complexes", "bounded_move_search",
               "random_move_walk"),
    "monodromy": (
        "MonodromyWord", "BundleTriangulation", "BundleCertificate",
        "MonodromyError", "word_analysis", "build_bundle", "cover",
        "bundle_certificate"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def _register(name):
    """Bind the submodule ``name`` here and in ``sys.modules`` without
    executing it; it executes when one of its attributes is first read."""
    spec = find_spec(f"{__name__}.{name}")
    loader = spec.loader = LazyLoader(spec.loader)
    module = sys.modules[spec.name] = globals()[name] = module_from_spec(spec)
    loader.exec_module(module)


for _name in ("perms", *_EXPORTS):
    _register(_name)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})
