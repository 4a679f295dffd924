"""Monodromy bundles: word analysis, construction, covers, certificates."""

import itertools
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from idealtri import (
    MonodromyError, build_bundle, bundle_certificate, cover, cocycle_space,
    canonical_surface, decode, encode_canonical, euler_characteristic,
    read_census, word_analysis,
)
from idealtri import isosig
from idealtri.monodromy import (
    _ELLIPTIC, _closure, _mat_mul, _mat_mod2, _slide, HORIZONTAL_QUAD, IDENT,
)
from idealtri.perms import COMPOSE, IDENTITY, S4_INDEX
from idealtri.triangulation import _from_table, relabelled

from helpers import (
    assert_revalidates, reference_build_bundle, reference_least_closure,
)


def admissible_words(length):
    return ["".join(w) for w in itertools.product("RL", repeat=length)
            if "R" in w and "L" in w]


# Every admissible word of length 2 to 6 with its 2- and 3-fold repeats;
# the mod-2 cover of each word is one of the three.
ORACLE_WORDS = list(dict.fromkeys(
    cover(w, k) for length in range(2, 7) for w in admissible_words(length)
    for k in (1, 2, 3)))

long_words = st.text("RL", min_size=7, max_size=40).filter(
    lambda w: "R" in w and "L" in w)


def assert_matches_oracle(word):
    bundle, reference = build_bundle(word), reference_build_bundle(word)
    assert bundle.tri.gluings == reference.tri.gluings
    assert bundle.signature == reference.signature


def test_layer_gluings_match_slope_tracking():
    assert len(ORACLE_WORDS) == 330
    for w in ORACLE_WORDS:
        assert_matches_oracle(w)


@settings(max_examples=30, deadline=None)
@given(long_words)
def test_long_word_layer_gluings_match_slope_tracking(word):
    assert_matches_oracle(word)


# Every admissible word of length 2 to 10, and the 2- and 3-fold covers
# of those of length 2 to 6.
CLOSURE_WORDS = list(dict.fromkeys(
    [w for length in range(2, 11) for w in admissible_words(length)]
    + [cover(w, k) for length in range(2, 7) for w in admissible_words(length)
       for k in (2, 3)]))


def assert_matches_two_encodes(word):
    bundle, reference = build_bundle(word), reference_least_closure(word)
    assert bundle.signature == reference.signature, word
    assert bundle.tri == reference.tri, word


def test_paired_search_matches_two_encodes():
    assert len(CLOSURE_WORDS) == 2192
    for w in CLOSURE_WORDS:
        assert_matches_two_encodes(w)


@settings(max_examples=30, deadline=None)
@given(long_words)
def test_long_word_paired_search_matches_two_encodes(word):
    assert_matches_two_encodes(word)


def test_the_twist_slides_to_any_layer():
    # E conjugates each layer's face-0 gluing into its face-1 gluing, so
    # relabelling a run of tetrahedra by E moves the twist from the
    # gluing into the run to the gluing out of it: with the twist on the
    # gluing into any tetrahedron j the closure is the same bundle.
    for length in range(2, 9):
        for w in admissible_words(length):
            untwisted = _closure(w, IDENTITY)
            sig = encode_canonical(_closure(w, _ELLIPTIC))
            for j in range(length):
                assert _closure(w, IDENTITY, at=j) == untwisted
                assert encode_canonical(_closure(w, _ELLIPTIC, at=j)) == sig


def test_slid_closure_grows_each_start_as_the_closure_through_minus_a():
    # From a start in tetrahedron t, B_t has the twist on the gluing out
    # of tetrahedron t + n//2.  It is the closure through A with the
    # slide's gluings in place, and the closure through -A with the
    # slide's run of tetrahedra relabelled by E, t left out; so every
    # start 24t + p grows the same string on both, with vertex maps
    # that differ by E on the run.
    e = S4_INDEX[_ELLIPTIC]
    for length in range(2, 8):
        for w in admissible_words(length):
            minus_a = _closure(w, _ELLIPTIC)
            flat = isosig._flatten(minus_a)
            slide = _slide(w)
            for t in range(length):
                b_t = _closure(w, _ELLIPTIC, at=(t + length // 2 + 1) % length)
                gluings, run = slide(t)
                assert t not in run
                rows = [list(row) for row in _closure(w, IDENTITY).gluings]
                for (u, face), gluing in gluings.items():
                    rows[u][face] = gluing
                assert _from_table(rows) == b_t
                assert b_t == relabelled(
                    minus_a, list(range(length)),
                    [_ELLIPTIC if u in run else IDENTITY
                     for u in range(length)])
                b_flat = isosig._flatten(b_t)
                for p in range(24):
                    grown = isosig._grow(*flat, t, p, None)
                    on_b = isosig._grow(*b_flat, t, p, None)
                    assert on_b[:5] == grown[:5]
                    assert [COMPOSE[v][e] if u in run else v
                            for u, v in enumerate(on_b[5])] == grown[5]


def test_slides_keep_destinations_and_least_starts():
    # The law the paired search rests on: each slide re-glues facets of
    # two tetrahedra to the destinations they had, lists both sides and
    # glues no tetrahedron to itself, so every row keeps its shape and
    # both closures have the same least starts.
    for w in CLOSURE_WORDS:
        n = len(w)
        tri, twin = (_closure(w, twist) for twist in (IDENTITY, _ELLIPTIC))
        assert (isosig._least_starts(*isosig._flatten(tri)[:2], n)
                == isosig._least_starts(*isosig._flatten(twin)[:2], n)), w
        slide = _slide(w)
        for t in range(n):
            gluings, _ = slide(t)
            assert len({u for u, _ in gluings}) == 2
            for (u, face), (d, perm) in gluings.items():
                assert d != u and tri.gluings[u][face][0] == d, (w, t)
                assert gluings[d, perm[face]] == (
                    u, tuple(perm.index(v) for v in range(4))), (w, t)


def test_both_closures_are_admissible():
    # build_bundle encodes both closures without a filter; each must be
    # a valid one-cusp orientable triangulation with even edge degrees.
    # The two are never isomorphic (H1 has torsion of order tr A - 2 for
    # one and tr A + 2 for the other), so the tie rule never applies.
    for w in ORACLE_WORDS:
        closures = [_closure(w, twist) for twist in (IDENTITY, _ELLIPTIC)]
        assert encode_canonical(closures[0]) != encode_canonical(closures[1])
        for closed in closures:
            assert_revalidates(closed)
            assert closed.edge_classes
            assert closed.is_orientable
            assert len(closed.vertex_classes) == 1
            assert closed.vertex_classes[0].is_torus_link
            assert all(e.degree % 2 == 0 for e in closed.edge_classes)


def test_word_analysis_rl():
    wa = word_analysis("RL")
    assert wa.matrix == ((2, 1), (1, 1))
    assert wa.trace == 3
    assert wa.mod2_order == 3


def test_word_analysis_rrll_identity_mod2():
    wa = word_analysis("RRLL")
    assert wa.mod2 == IDENT
    assert wa.mod2_order == 1


def test_single_letter_words_rejected():
    for w in ["RRRR", "L", "R", "LLL"]:
        with pytest.raises(MonodromyError):
            word_analysis(w)
    with pytest.raises(MonodromyError):
        word_analysis("")
    # a word that is not a str is not read letter by letter
    for w in [5, b"RL", ["R", "L"], ("R", "L"), None]:
        with pytest.raises(MonodromyError, match="must be a nonempty str"):
            word_analysis(w)
        with pytest.raises(MonodromyError):
            build_bundle(w)


def test_cover_laws():
    assert cover("RL", 3) == "RLRLRL"
    assert cover("RLL", 1) == "RLL"
    for k in (0, 4, True, 2.0):
        with pytest.raises(MonodromyError):
            cover("RL", k)
    # the word goes through word_analysis's check
    for w in ["xyz", 5, "", "RRR", b"RL", ["R", "L"]]:
        with pytest.raises(MonodromyError):
            cover(w, 2)
    for w in ["RL", "RLL", "RRLL"]:
        base = word_analysis(w)
        for k in (1, 2, 3):
            lifted = word_analysis(cover(w, k))
            power = IDENT
            for _ in range(k):
                power = _mat_mul(power, base.mod2)
            assert lifted.mod2 == _mat_mod2(power)
    assert word_analysis(cover("RL", 3)).mod2 == IDENT


def test_bundle_shape_invariants():
    for w in ["RL", "RRLL", "RLL", "RRRL", "RLRLR", "RRLLRL", "RLRLRL"]:
        bundle = build_bundle(w)
        tri = bundle.tri
        assert tri.n == len(w)
        assert tri.is_closed and tri.is_orientable
        assert len(tri.vertex_classes) == 1
        assert tri.vertex_classes[0].is_torus_link
        assert all(e.degree % 2 == 0 for e in tri.edge_classes)
        assert bundle.signature == encode_canonical(tri)


def test_bundles_and_covers_revalidate():
    # Towers and closures adopt their tables without checks; the
    # validating constructor must accept each closed bundle.
    for length in range(2, 7):
        for w in admissible_words(length):
            assert_revalidates(build_bundle(w).tri)
            k = word_analysis(w).mod2_order
            if k > 1:
                assert_revalidates(build_bundle(cover(w, k)).tri)


def test_certificate_carries_its_canonical_surfaces():
    for w in ["RRLL", "RLRLRL", "RRLRRL"]:
        bc = bundle_certificate(w)
        cert, tri = bc.certificate, bc.bundle.tri
        phis = cert.colouring.phi
        assert cert.surfaces == tuple(canonical_surface(tri, p) for p in phis)
        assert cert.chi == tuple(euler_characteristic(s) for s in cert.surfaces)
        # the certificate report reads the subgroup off the colouring
        assert cert.subgroup == tuple(p.mask for p in phis)


def test_fig8_bundle():
    tri = build_bundle("RL").tri
    assert tri.n == 2
    assert sorted(e.degree for e in tri.edge_classes) == [6, 6]
    # the two-tetrahedron bundle is one of the two census triangulations
    assert encode_canonical(tri) in ("cPcbbbiht", "cPcbbbdxm")


def test_cyclic_rotation_gives_isomorphic_bundles():
    for w in ["RRLL", "RLL", "RRLRL", "RRLLRL"]:
        base = encode_canonical(build_bundle(w).tri)
        for i in range(1, len(w)):
            rotated = w[i:] + w[:i]
            assert encode_canonical(build_bundle(rotated).tri) == base


def test_reversal_gives_isomorphic_bundles():
    # reading the word backwards inverts the monodromy up to conjugacy
    for w in ["RL", "RRLL", "RLL"]:
        assert (encode_canonical(build_bundle(w).tri)
                == encode_canonical(build_bundle(w[::-1]).tri))


def test_chi_equals_minus_horizontal_for_all_canonical_surfaces():
    for w in ["RRLL", "RLRLRL", "RLLRLL", "RRLLRRLL"]:
        bundle = build_bundle(w)
        tri = bundle.tri
        for phi in cocycle_space(tri).nonzero_elements():
            surface = canonical_surface(tri, phi)
            horizontal = sum(surface.quads[t][HORIZONTAL_QUAD - 1]
                             for t in range(tri.n))
            assert euler_characteristic(surface) == -horizontal


def test_certificate_rrll():
    bc = bundle_certificate("RRLL")
    assert bc.found
    assert bc.cover_degree == 1
    assert bc.sum_neg_chi == 4 == bc.tetrahedra
    assert sum(bc.horizontal_counts) == 4


def test_certificate_rl_via_threefold_cover():
    bc = bundle_certificate("RL")
    assert bc.cover_degree == 3
    assert bc.covered_word == "RLRLRL"
    assert bc.found
    assert bc.sum_neg_chi == 6 == bc.tetrahedra


def test_certificate_longer_words():
    bc = bundle_certificate("RRLLRRLL")
    assert bc.found and bc.cover_degree == 1
    assert bc.sum_neg_chi == 8 == bc.tetrahedra
    assert bc.horizontal_counts == (4, 2, 2)
    bc = bundle_certificate("RRL")
    assert bc.cover_degree == 2 and bc.covered_word == "RRLRRL"
    assert bc.found and bc.sum_neg_chi == 6


def test_certificate_horizontal_quads_partition():
    # each tetrahedron's horizontal quad is used by exactly one of the
    # three certificate surfaces (checked internally; spot-check totals)
    for w in ["RRLL", "RLLRLL"]:
        bc = bundle_certificate(w)
        assert bc.found
        assert sum(bc.horizontal_counts) == bc.tetrahedra
        assert all(h >= 1 for h in bc.horizontal_counts)


def test_longer_words_build():
    for w in ["RRRLLLRRRLLL"[:12], "RLRLRLRLRLRL"[:12]]:
        bundle = build_bundle(w)
        assert bundle.tri.n == 12
        assert all(e.degree % 2 == 0 for e in bundle.tri.edge_classes)


def test_admissible_word_counts():
    assert len(admissible_words(6)) == 62
    assert sum(len(admissible_words(k)) for k in range(2, 7)) == 114


def test_bound_attaining_fixtures_are_not_monodromy_triangulations():
    # The shipped census triangulations attain the bound without being
    # the closure of any word of their length through either twist.
    census = (pathlib.Path(__file__).resolve().parents[1] / "demos"
              / "bound_attaining.census").read_text(encoding="utf-8")
    closures = {n: {encode_canonical(_closure(w, twist))
                    for w in admissible_words(n)
                    for twist in (IDENTITY, _ELLIPTIC)} for n in (6, 8)}
    assert [len(closures[6]), len(closures[8])] == [14, 34]
    sigs = read_census(census)
    assert len(sigs) == 4
    for sig in sigs:
        tri = decode(sig)
        assert encode_canonical(tri) not in closures[tri.n]


def test_closure_lets_unexpected_errors_surface(monkeypatch):
    # Both closures are valid by construction and adopted without a
    # filter, so an error raised while building one is a bug and must
    # reach the caller.
    from idealtri import monodromy

    def broken(rows):
        if all(g is not None for row in rows for g in row):
            raise RuntimeError("bug")
        return _from_table(rows)

    monkeypatch.setattr(monodromy, "_from_table", broken)
    with pytest.raises(RuntimeError, match="bug"):
        build_bundle("RL")
