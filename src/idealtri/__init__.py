"""Ideal triangulations of cusped 3-manifolds: combinatorics,
GF(2) cohomology, canonical normal surfaces, and complexity bounds."""

from .triangulation import (
    Triangulation, EdgeClass, VertexClass, FaceClass, FaceType,
    InvalidTriangulation, InvalidEdge,
    build, classify_faces, face_type_counts, degree_histogram,
    anatomy_report, boundary_surface, relabelled, find_isomorphism,
    subcomplex,
)
from .isosig import decode, encode_canonical, read_census, MalformedSignature
from .cohomology import (
    Cocycle, CocycleBasis, RankTwoColouring, BoundCertificate,
    ParityError, IdentityError, LinkError,
    cocycle_space, classify_rank1, classify_rank2, check_identities,
    bound_certificate, rank2_subgroups,
)
from .surfaces import (
    NormalSurface, SurfaceComponents, SurfaceError,
    canonical_surface, euler_characteristic, components, chi_minus,
    vertex_link_surface, from_coordinates,
)
from .lst import (
    LstParams, LstComplex, LstCertificate, LstError,
    lst_build, layer_tetrahedron, detect_degree3, maximal_extension,
    pairwise_intersection,
)
from .moves import MoveSite, MoveError, enumerate_moves, apply_move
from .search import (
    SearchResult, enumerate_complexes, bounded_move_search, random_move_walk,
)
from .monodromy import (
    MonodromyWord, BundleTriangulation, BundleCertificate, MonodromyError,
    word_analysis, build_bundle, cover, bundle_certificate,
)

__version__ = "0.1.0"
