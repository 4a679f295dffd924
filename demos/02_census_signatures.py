"""Isomorphism signatures: decoding census strings and canonical
re-encoding.

The four census triangulations attaining the complexity bound (without
being torus bundles) are shipped in bound_attaining.census; each decodes
to a closed orientable one-cusped triangulation and survives the
round trip bit-exactly.  Random relabellings never change the canonical
string, so equal strings mean isomorphic triangulations.
"""

import pathlib
import random

from idealtri import anatomy_report, decode, encode_canonical, read_census, relabelled
from idealtri.perms import S4

census = pathlib.Path(__file__).with_name("bound_attaining.census")
signatures = read_census(census.read_text())
print(f"census file: {len(signatures)} signatures\n")

for sig in signatures:
    tri = decode(sig)
    report = anatomy_report(tri)
    print(f"{sig}")
    print(f"  {tri.n} tetrahedra, orientable = {tri.is_orientable}, "
          f"cusps = {len(tri.vertex_classes)}, "
          f"torus link = {tri.vertex_classes[0].is_torus_link}")
    print(f"  min edge degree {report['min_edge_degree']}, "
          f"passes minimal anatomy: {report['passes_minimal_anatomy']}")
    print(f"  round trip: {encode_canonical(tri) == sig}")

print("\ncanonical strings are relabelling-invariant:")
rng = random.Random(0)
tri = decode(signatures[0])
base = encode_canonical(tri)
for trial in range(3):
    tet_map = list(range(tri.n))
    rng.shuffle(tet_map)
    vmaps = [rng.choice(S4) for _ in range(tri.n)]
    shuffled = relabelled(tri, tet_map, vmaps)
    print(f"  shuffle {trial}: encode(relabelled) == original: "
          f"{encode_canonical(shuffled) == base}")
