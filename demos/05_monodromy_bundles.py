"""Once-punctured torus bundles from RL-words.

Each positive word in the transvections R and L layers one tetrahedron
per letter and closes up through the monodromy.  Euler characteristics
of canonical surfaces count horizontal quadrilaterals.  A word whose
mod-2 monodromy is the identity carries a bound certificate itself, and
the other words through a 2- or 3-fold cyclic cover.  The certificate
does not prove minimality: that these triangulations are minimal is the
paper's theorem.
"""

from idealtri import (
    build_bundle, bundle_certificate, cocycle_space, cover, degree_histogram,
    encode_canonical, word_analysis,
)

for word in ["RL", "RRLL", "RLL", "RLRLRL"]:
    wa = word_analysis(word)
    bundle = build_bundle(word)
    tri = bundle.tri
    print(f"word {word}: trace {wa.trace}, mod-2 order {wa.mod2_order}")
    print(f"  {tri.n} tetrahedra, degrees {degree_histogram(tri)} (all even), "
          f"one torus cusp: {tri.vertex_classes[0].is_torus_link}")
    print(f"  signature {encode_canonical(tri)}, "
          f"cocycle rank {cocycle_space(tri).rank}")

print("\nrotating the word gives the same bundle:")
print(" ", {w: encode_canonical(build_bundle(w).tri)
            for w in ["RRLL", "RLLR", "LLRR"]})

print("\ncovers trivialise the mod-2 monodromy:")
print("  cover('RL', 3) =", cover("RL", 3),
      "-> mod-2 order", word_analysis(cover("RL", 3)).mod2_order)

print("\nminimality certificates:")
for word in ["RRLL", "RL", "RLL"]:
    bc = bundle_certificate(word)
    print(f"  {word}: runs on {bc.covered_word} "
          f"({bc.cover_degree}-fold cover), certificate found: {bc.found}")
    print(f"    sum(-chi) = {bc.sum_neg_chi} = {bc.tetrahedra} tetrahedra; "
          f"horizontal quadrilaterals per surface: {bc.horizontal_counts}")
