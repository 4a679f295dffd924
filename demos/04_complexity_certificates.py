"""Certificates for the complexity lower bound.

A rank-2 subgroup of the colouring space whose three canonical surfaces
meet every tetrahedron in a quadrilateral gives

    |T| = sum of -chi over the three surfaces,

with an even number of tetrahedra.  The four census fixtures all carry
such a certificate.  The canonical surfaces only bound the norms from
above (the "norm upper bounds" printed below), so the equality does not
show that the triangulation is minimal; the fixtures' minimality comes
from the census they were taken from.
"""

import pathlib

from idealtri import (
    bound_certificate, build_bundle, canonical_surface, chi_minus, decode,
    read_census,
)

census = pathlib.Path(__file__).with_name("bound_attaining.census")
for sig in read_census(census.read_text()):
    tri = decode(sig)
    cert = bound_certificate(tri)
    print(f"{sig}")
    print(f"  tetrahedra: {cert.tetrahedra} (even: {cert.even_count_check})")
    print(f"  chi of the three canonical surfaces: {cert.chi}")
    print(f"  sum(-chi) = {cert.sum_neg_chi} = |T|: "
          f"{cert.sum_neg_chi == tri.n}")
    print(f"  all tetrahedra all-quadrilateral: "
          f"{cert.colouring.counts['qqq'] == tri.n}")
    print(f"  oriented sub-types alternate: {cert.orientation_types}")
    norms = [chi_minus(canonical_surface(tri, p)) for p in cert.colouring.phi]
    print(f"  norm upper bounds chi_minus(S_i): {norms}\n")

print("a rank-deficient example has no certificate:")
rl = build_bundle("RL").tri
print(f"  RL bundle: certificate = {bound_certificate(rl)}")
