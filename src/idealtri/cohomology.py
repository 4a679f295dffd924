"""GF(2) edge colourings satisfying triangle parity, and the tetrahedron
taxonomies they induce.

A cocycle assigns 0 or 1 to every edge class so that the three edge
values of each face sum to zero mod 2 (counted with multiplicity when a
face meets an edge class more than once).  The solution space of this
parity system is the relative first cohomology of the pseudo-manifold
modulo its vertices, which is isomorphic to the second homology of the
cusped manifold with Z2 coefficients.

Colourings are stored as bitmasks over edge-class indices, and read per
tetrahedron as 6-bit slot masks (bit k: edge slot 6t + k is odd) through
tables: ``_RANK1`` holds the rank-1 type of each of the 64 masks.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from .triangulation import _FACE_CYCLES, _PAIRS


class ParityError(ValueError):
    """An edge colouring violates the triangle parity constraint."""


class IdentityError(AssertionError):
    """A counting identity failed on input meeting its hypotheses: an
    implementation bug somewhere."""


class LinkError(ValueError):
    """A vertex link is not a torus or Klein bottle, so the counting
    identities do not apply."""


class _CocycleFields(NamedTuple):
    tri: object
    mask: int


class Cocycle(_CocycleFields):
    """A parity-respecting GF(2) edge colouring, as a bitmask."""

    __slots__ = ()
    # NamedTuple bodies bar __new__; this _make keeps _replace checked.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, tri, mask):
        if type(mask) is not int or not 0 <= mask < 1 << len(tri.edge_classes):
            raise ParityError("mask is not a set of edge classes")
        for row in tri.parity_rows:
            if (mask & row).bit_count() % 2:
                raise ParityError("face with odd edge-colour sum")
        return tuple.__new__(cls, (tri, mask))

    def value(self, edge_index):
        return (self.mask >> edge_index) & 1

    def odd_edges(self):
        return [e.index for e in self.tri.edge_classes if self.value(e.index)]

    def is_zero(self):
        return self.mask == 0

    def __add__(self, other):
        if other.tri is not self.tri:
            raise ValueError("cocycles on different triangulations")
        return Cocycle(self.tri, self.mask ^ other.mask)


class CocycleBasis(NamedTuple):
    tri: object
    vectors: tuple  # of Cocycle

    @property
    def rank(self):
        return len(self.vectors)

    def elements(self):
        """All cocycles in the span, the zero colouring first."""
        out = [Cocycle(self.tri, 0)]
        for v in self.vectors:
            out.extend(Cocycle(self.tri, c.mask ^ v.mask) for c in list(out))
        return out

    def nonzero_elements(self):
        return [c for c in self.elements() if not c.is_zero()]


def cocycle_space(tri):
    """Basis of the parity solution space by GF(2) elimination.

    Pivoting is by increasing edge index, so the basis is deterministic.
    """
    m = len(tri.edge_classes)
    rows = tri.parity_rows
    pivot_of_col = {}
    for row in rows:
        for col, prow in pivot_of_col.items():
            if (row >> col) & 1:
                row ^= prow
        if row:
            col = (row & -row).bit_length() - 1
            # normalise previous rows against the new pivot
            for c in list(pivot_of_col):
                if (pivot_of_col[c] >> col) & 1:
                    pivot_of_col[c] ^= row
            pivot_of_col[col] = row
    # null space: one basis vector per free column
    free_cols = [c for c in range(m) if c not in pivot_of_col]
    basis = []
    for fc in free_cols:
        mask = 1 << fc
        for col, row in pivot_of_col.items():
            if (row >> fc) & 1:
                mask |= 1 << col
        basis.append(Cocycle(tri, mask))
    basis.sort(key=lambda c: c.mask)
    return CocycleBasis(tri=tri, vectors=tuple(basis))


# ---------------------------------------------------------------------------
# rank-1 taxonomy

def _rank1_rule(mask):
    """('q', even opposite pair) | ('t', apex) | ('e', None) for the odd
    slots of a 6-bit slot mask, or None when they match no type."""
    odd = {pair for k, pair in enumerate(_PAIRS) if mask >> k & 1}
    if not odd:
        return ("e", None)
    if len(odd) == 4:
        (a, b), (c, d) = [pair for pair in _PAIRS if pair not in odd]
        if {a, b} | {c, d} == {0, 1, 2, 3}:
            return ("q", ((a, b), (c, d)))
    if len(odd) == 3:
        for v in range(4):
            if all(v in pair for pair in odd):
                return ("t", v)
    return None


_RANK1 = tuple(map(_rank1_rule, range(64)))
# _FACE_MASK[f]: the slot bits of the three edges of face f.
_FACE_MASK = tuple(sum(1 << k for k, _ in cycle) for cycle in _FACE_CYCLES)


def _slot_masks(slots, mask):
    """The slot mask of each tetrahedron, for ``slots`` a run of edge
    class indices by slot (``tri._edge_slots[0]`` or a slice of it)."""
    odd = [mask >> e & 1 for e in slots]
    return [odd[i] | odd[i + 1] << 1 | odd[i + 2] << 2 | odd[i + 3] << 3
            | odd[i + 4] << 4 | odd[i + 5] << 5 for i in range(0, len(odd), 6)]


def _rank1_types(slots, mask, first=0):
    """The rank-1 types under the colouring ``mask`` of the tetrahedra
    of ``slots``, numbered from ``first``."""
    types = [_RANK1[m] for m in _slot_masks(slots, mask)]
    if None in types:
        raise ParityError(
            f"tetrahedron {first + types.index(None)} matches no rank-1 type")
    return types


def classify_tet_rank1(tri, phi, t):
    """('q', even opposite pair) | ('t', apex) | ('e', None)."""
    return _rank1_types(tri._edge_slots[0][6 * t:6 * t + 6], phi.mask, t)[0]


def classify_rank1(tri, phi):
    """Counts of quadrilateral, triangle and empty tetrahedra."""
    counts = {"q": 0, "t": 0, "e": 0}
    for kind, _ in _rank1_types(tri._edge_slots[0], phi.mask):
        counts[kind] += 1
    return counts


# ---------------------------------------------------------------------------
# rank-2 taxonomy

TET_TYPES = ("qtt", "qq", "tt", "empty", "qqq")


class RankTwoColouring(NamedTuple):
    """A pair of independent cocycles with the derived taxonomy.

    edge_labels[e] is 0 for H-even edges and i when phi_i is the unique
    vanishing colouring; tet_types[t] is one of TET_TYPES with its
    sub-type (the distinguished colour index, or None);
    rank1_types[i - 1][t] is the rank-1 type of phi_i on tetrahedron t.
    """

    tri: object
    phi: tuple            # (phi1, phi2, phi3)
    edge_labels: tuple
    tet_types: tuple      # ((type, subtype), ...)
    rank1_types: tuple    # per colouring, classify_tet_rank1 per tetrahedron
    counts: dict
    e0: int               # number of 0-even edges
    e0_weighted: int      # number of their preimages (degree weighted)
    e0_histogram: dict    # degree -> number of 0-even edges

    def quad_of(self, t, i):
        """Quad type carried by surface i in tetrahedron t, or None."""
        kind, data = self.rank1_types[i - 1][t]
        if kind != "q":
            return None
        from .surfaces import quad_type_of_pair
        return quad_type_of_pair(*data[0])

    def canonical_surfaces(self):
        """The canonical surfaces of phi1, phi2, phi3, read off the
        stored rank-1 types."""
        from .surfaces import _surface_of_types
        return tuple(_surface_of_types(self.tri, types)
                     for types in self.rank1_types)


def _rank2_rule(kinds):
    """The rank-2 type of rank-1 kinds ``kinds`` under phi1, phi2, phi3:
    its name, with the index of the kind met once as sub-type; or None
    for an impossible pattern."""
    name = {"qqq": "qqq", "qtt": "qtt", "eqq": "qq", "ett": "tt",
            "eee": "empty"}.get("".join(sorted(kinds)))
    once = [i for i, kind in enumerate(kinds, 1) if kinds.count(kind) == 1]
    return name and (name, once[0] if len(once) == 1 else None)


_RANK2 = {kinds: _rank2_rule(kinds) for kinds in product("eqt", repeat=3)}


def classify_rank2(tri, phi1, phi2):
    if phi1.is_zero() or phi2.is_zero() or phi1.mask == phi2.mask:
        raise ParityError("colourings do not span a rank-2 subgroup")
    phis = (phi1, phi2, phi1 + phi2)
    m1, m2 = phi1.mask, phi2.mask
    labels = [2 * (m1 >> e & 1) + (m2 >> e & 1)
              for e in range(len(tri.edge_classes))]

    slots = tri._edge_slots[0]
    by_tet = []
    tet_types = []
    counts = {k: 0 for k in TET_TYPES}
    for t, (s1, s2) in enumerate(zip(_slot_masks(slots, m1),
                                     _slot_masks(slots, m2))):
        types = (_RANK1[s1], _RANK1[s2], _RANK1[s1 ^ s2])
        if None in types:
            raise ParityError(f"tetrahedron {t} matches no rank-1 type")
        by_tet.append(types)
        kinds = tuple(kind for kind, _ in types)
        tet_type = _RANK2[kinds]
        if tet_type is None:
            raise ParityError(
                f"tetrahedron {t} has impossible rank-2 pattern {kinds}")
        tet_types.append(tet_type)
        counts[tet_type[0]] += 1

    hist = {}
    for e, label in zip(tri.edge_classes, labels):
        if not label:
            hist[e.degree] = hist.get(e.degree, 0) + 1
    return RankTwoColouring(
        tri=tri, phi=phis, edge_labels=tuple(labels),
        tet_types=tuple(tet_types), rank1_types=tuple(zip(*by_tet)),
        counts=counts, e0=labels.count(0),
        e0_weighted=sum(d * k for d, k in hist.items()),
        e0_histogram=dict(sorted(hist.items())))


# ---------------------------------------------------------------------------
# counting identities

def even_subcomplex_euler(rc):
    """Euler characteristic of the ideal subcomplex spanned by the
    0-even edges, counted directly from its cells."""
    tri = rc.tri
    odd = sum(1 << e for e, label in enumerate(rc.edge_labels) if label)
    masks = _slot_masks(tri._edge_slots[0], odd)
    n_faces = sum(1 for fc in tri.face_classes
                  if not masks[fc.sides[0][0]] & _FACE_MASK[fc.sides[0][1]])
    return -rc.edge_labels.count(0) + n_faces - masks.count(0)


def check_identities(rc, chi1, chi2, chi3):
    """Verify the counting identities tying tetrahedron types, 0-even
    edges and the Euler characteristics of the three canonical surfaces.

    Any failure raises IdentityError.  The identities are theorems for
    closed triangulations whose vertex links are tori or Klein bottles;
    on such input a failure is an implementation bug.  Callers check
    those hypotheses first.
    """
    tri = rc.tri
    n = tri.n
    c = rc.counts
    chis = chi1 + chi2 + chi3
    report = {}

    def record(key, holds, failure, **values):
        report[key] = {**values, "holds": holds}
        if not holds:
            raise IdentityError(failure)

    report["type_counts"] = dict(c)
    report["tetrahedra"] = n
    if sum(c.values()) != n:
        raise IdentityError("tetrahedron types do not partition the tetrahedra")

    lhs2 = c["tt"] + 2 * c["empty"] - c["qqq"]
    rhs2 = 2 * rc.e0 + chis
    record("eq_types_vs_chi", lhs2 == rhs2,
           f"type/chi identity fails: {lhs2} != {rhs2}", lhs=lhs2, rhs=rhs2)

    rhs3 = 2 * n - c["qtt"] - c["tt"] + 4 * rc.e0 + 2 * chis
    record("eq_weighted_even_edges", rc.e0_weighted == rhs3,
           f"weighted even-edge identity fails: {rc.e0_weighted} != {rhs3}",
           lhs=rc.e0_weighted, rhs=rhs3)

    hist = rc.e0_histogram
    e1 = hist.get(1, 0)
    e2 = hist.get(2, 0)
    e3 = hist.get(3, 0)
    high = sum((d - 4) * k for d, k in hist.items() if d >= 5)
    rhs4 = c["qtt"] + c["tt"] - 2 * (n + chis) + high
    expected = rhs4 - 3 * e1 - 2 * e2
    record("eq_degree_three_even_edges", e3 == expected,
           f"degree-three even-edge identity fails: {e3} != {expected}",
           lhs=e3, rhs=rhs4, low_degree_even_edges=e1 + e2,
           applicable=e1 == 0 and e2 == 0)

    # chi_k = -e0 + tt/2 + empty, compared doubled since tt may be odd
    chi_k = even_subcomplex_euler(rc)
    doubled = -2 * rc.e0 + c["tt"] + 2 * c["empty"]
    record("even_subcomplex_euler", 2 * chi_k == doubled,
           f"even subcomplex Euler characteristic fails: 2 * {chi_k} != "
           f"{doubled}", direct=chi_k)
    report["chi"] = [chi1, chi2, chi3]
    return report


# ---------------------------------------------------------------------------
# the complexity bound certificate

class BoundCertificate(NamedTuple):
    """A rank-2 subgroup whose canonical surfaces are all quadrilateral."""

    tri: object
    subgroup: tuple          # masks of the three nonzero cocycles, sorted
    colouring: RankTwoColouring
    surfaces: tuple          # canonical surfaces of colouring.phi, in order
    chi: tuple               # Euler characteristics of the three surfaces
    sum_neg_chi: int
    tetrahedra: int
    even_count_check: bool
    orientation_types: tuple  # +1/-1 per tetrahedron


def rank2_subgroups(basis):
    """Each rank-2 subgroup of the span as its sorted masks, in sorted
    order: met once, at its two least elements x < y < x ^ y.  XORs of
    basis masks pass the parity check by linearity, so none is rerun."""
    masks = [0]
    for v in basis.vectors:
        masks += [m ^ v.mask for m in masks]
    nonzero = sorted(filter(None, masks))
    return [(x, y, x ^ y) for i, x in enumerate(nonzero)
            for y in nonzero[i + 1:] if y < x ^ y]


def qqq_orientation_types(tri, rc):
    """The two oriented sub-types of all-quadrilateral tetrahedra.

    For each tetrahedron the induced boundary orientation of any face
    reads the three edge colours in a cyclic order; the order is the
    same for all four faces and distinguishes the two sub-types.
    Adjacent tetrahedra get opposite sub-types.
    """
    signs = tri.orientation_signs
    if signs is None:
        raise ParityError("orientation types need an orientable triangulation")
    orbit, labels = tri._edge_slots[0], rc.edge_labels
    types = []
    for t in range(tri.n):
        face_types = set()
        for f, cycle in enumerate(_FACE_CYCLES):
            cols = tuple(labels[orbit[6 * t + k]] for k, _ in cycle)
            if signs[t] * (-1) ** f < 0:
                cols = cols[::-1]
            face_types.add(+1 if cols in ((1, 2, 3), (2, 3, 1), (3, 1, 2)) else -1)
        if len(face_types) != 1:
            raise IdentityError("face colour cycles disagree within a tetrahedron")
        types.append(face_types.pop())
    for t in range(tri.n):
        for f in range(4):
            t2, _ = tri.gluings[t][f]
            if types[t] == types[t2]:
                raise IdentityError(
                    "adjacent all-quadrilateral tetrahedra share a sub-type")
    return tuple(types)


def rank2_colourings(basis):
    """The rank-2 colouring of each rank-2 subgroup of the span, in the
    order of ``rank2_subgroups``, classified as it is reached."""
    tri = basis.tri
    for subgroup in rank2_subgroups(basis):
        yield classify_rank2(
            tri, Cocycle(tri, subgroup[0]), Cocycle(tri, subgroup[1]))


def certificate_of(rc):
    """The bound certificate of one rank-2 colouring, or None unless
    every tetrahedron has type qqq; then the sum of -chi over the three
    canonical surfaces equals the size of the triangulation, which must
    be even.  A failed sum raises ``LinkError`` when a link has chi != 0."""
    from .surfaces import euler_characteristic

    tri = rc.tri
    if rc.counts["qqq"] != tri.n:
        return None
    surfaces = rc.canonical_surfaces()
    chis = tuple(euler_characteristic(s) for s in surfaces)
    total = sum(-x for x in chis)
    if total != tri.n:
        # the links are read on failure only, not for every bundle
        if any(v.link_euler for v in tri.vertex_classes):
            raise LinkError("certificates need every vertex link to be a "
                            "torus or Klein bottle")
        raise IdentityError(
            f"all-quadrilateral colouring with sum(-chi) = {total} != {tri.n}")
    types = qqq_orientation_types(tri, rc)
    if tri.n % 2:
        raise IdentityError("all-quadrilateral certificate with odd size")
    return BoundCertificate(
        tri=tri, subgroup=tuple(sorted(p.mask for p in rc.phi)), colouring=rc,
        surfaces=surfaces, chi=chis, sum_neg_chi=total, tetrahedra=tri.n,
        even_count_check=(tri.n % 2 == 0),
        orientation_types=types)


def bound_certificate(tri):
    """The certificate of the first rank-2 subgroup whose canonical
    surfaces are all quadrilateral, or None."""
    colourings = rank2_colourings(cocycle_space(tri))
    return next(filter(None, map(certificate_of, colourings)), None)
