"""Signature codec laws: fixtures, round trips, canonicality."""

import itertools
import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from idealtri import (
    MalformedSignature, build_bundle, cover, decode, encode_canonical,
    lst_build, read_census, relabelled,
)
from idealtri import find_isomorphism, isosig
from idealtri.isosig import SCHARS, _canonical, encode_with_automorphisms
from idealtri.monodromy import _ELLIPTIC, _closure
from idealtri.perms import IDENTITY, S4
from idealtri.triangulation import _from_table

from helpers import (
    assert_revalidates, random_admissible, random_complex,
    reference_canonical_starts, reference_decode, reference_encode_canonical,
    reference_flatten, reference_grow, reference_grow_isomorphism,
    reference_relabelled, reference_validating_decode,
)

CENSUS_FIXTURES = [
    ("gLLMQbeefffehhqxhqq", 6),
    ("iLLLQPcbefgffhhhxxhaqxxqh", 8),
    ("iLLLQPcbefgffhhhhhqaxhhxq", 8),
    ("iLLwQPcbeefgehhhhhqhhqhqx", 8),
]


@pytest.mark.parametrize("sig,size", CENSUS_FIXTURES)
def test_fixture_decode_size(sig, size):
    tri = decode(sig)
    assert tri.n == size
    assert tri.is_closed


@pytest.mark.parametrize("sig,size", CENSUS_FIXTURES)
def test_fixture_round_trip(sig, size):
    assert encode_canonical(decode(sig)) == sig


@pytest.mark.parametrize("sig,size", CENSUS_FIXTURES)
def test_fixture_invariants(sig, size):
    tri = decode(sig)
    assert tri.is_orientable
    assert len(tri.vertex_classes) == 1
    assert tri.vertex_classes[0].is_torus_link


def test_empty_triangulation_rejected():
    with pytest.raises(MalformedSignature):
        decode("a")


def test_malformed_alphabet_rejected():
    with pytest.raises(MalformedSignature):
        decode("not_a_sig!")


def test_truncated_rejected():
    with pytest.raises(MalformedSignature):
        decode("gLLMQbeefffehhqxhq")


def test_trailing_data_rejected():
    with pytest.raises(MalformedSignature):
        decode("cPcbbbihtt")


# -- differential oracle: the decoder against the validating one --------

@st.composite
def signature_like(draw):
    """A census fixture, an encoded random complex or a random string
    with a small size prefix, maybe with one character replaced."""
    kind = draw(st.sampled_from(["fixture", "admissible", "complex", "raw"]))
    if kind == "raw":
        return (draw(st.sampled_from(SCHARS[1:4]))
                + draw(st.text(SCHARS, max_size=12)))
    if kind == "fixture":
        sig = draw(st.sampled_from([sig for sig, _ in CENSUS_FIXTURES]))
    else:
        rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
        if kind == "admissible":
            tri = random_admissible(rng)
        else:
            tri = random_complex(rng, draw(st.integers(1, 4)),
                                 closed=draw(st.booleans()))
        sig = encode_canonical(tri)
    if draw(st.booleans()):
        i = draw(st.integers(0, len(sig) - 1))
        sig = sig[:i] + draw(st.sampled_from(SCHARS)) + sig[i + 1:]
    return sig


@settings(max_examples=400, deadline=None)
@given(signature_like())
@example("bcaa")            # a facet joined to itself: too few actions
@example("")                # the empty signature
@example("cPcbbbiht")
def test_decode_matches_validating_reference(sig):
    try:
        expected = reference_validating_decode(sig)
    except MalformedSignature as exc:
        with pytest.raises(MalformedSignature) as caught:
            decode(sig)
        assert str(caught.value) == str(exc)
        return
    tri = decode(sig)
    assert tri.gluings == expected.gluings
    assert_revalidates(tri)


# Signatures of 63 and 64 tetrahedra, whose labels take two characters.
LONG_SIGS = [encode_canonical(random_complex(random.Random(n), n, closed=closed))
             for n, closed in ((63, False), (64, True))]


@st.composite
def decoder_input(draw):
    """A ``signature_like`` string or a long signature, maybe cut at a
    character, with one character deleted or with a stray one."""
    sig = draw(st.one_of(signature_like(), st.sampled_from(LONG_SIGS)))
    if not sig:
        return sig
    i = draw(st.integers(0, len(sig) - 1))
    change = draw(st.sampled_from(["none", "cut", "delete", "stray"]))
    if change == "cut":
        return sig[:i]
    if change == "delete":
        return sig[:i] + sig[i + 1:]
    if change == "stray":
        return sig[:i] + draw(st.sampled_from("!_ .")) + sig[i:]
    return sig


@settings(max_examples=500, deadline=None)
@given(decoder_input())
@example("bBaa")            # facet action 3
@example("-")               # a long size prefix cut short
@example(LONG_SIGS[0])
@example(LONG_SIGS[1][:-1])
def test_decode_matches_seed_decoder(sig):
    # the table decoder rebuilds the seed decoder's table, or raises its
    # message
    try:
        expected = reference_decode(sig)
    except MalformedSignature as exc:
        with pytest.raises(MalformedSignature) as caught:
            decode(sig)
        assert str(caught.value) == str(exc)
        return
    assert decode(sig).gluings == expected.gluings


def test_self_gluing_runs_out_of_actions():
    for decoder in (decode, reference_decode, reference_validating_decode):
        with pytest.raises(MalformedSignature, match="too few facet actions"):
            decoder("bcaa")


def test_encode_decode_idempotent():
    for sig, _ in CENSUS_FIXTURES:
        tri = decode(sig)
        once = encode_canonical(tri)
        assert encode_canonical(decode(once)) == once


def test_canonical_invariance_under_relabelling():
    rng = random.Random(5)
    for sig, _ in CENSUS_FIXTURES:
        tri = decode(sig)
        base = encode_canonical(tri)
        for _ in range(50):
            tet_map = list(range(tri.n))
            rng.shuffle(tet_map)
            vmaps = [rng.choice(S4) for _ in range(tri.n)]
            assert encode_canonical(relabelled(tri, tet_map, vmaps)) == base


def test_read_census():
    text = "# comment\ngLLMQbeefffehhqxhqq\n\ncPcbbbiht # fig8\n"
    assert read_census(text) == ["gLLMQbeefffehhqxhqq", "cPcbbbiht"]


def test_bounded_complex_round_trip():
    from idealtri import build
    tri = build(2, {(0, 0): (1, (0, 1, 2, 3)),
                    (0, 1): (1, (0, 2, 1, 3))}, closed=False)
    sig = encode_canonical(tri)
    tri2 = decode(sig)
    assert tri2.n == 2
    assert not tri2.is_closed
    assert encode_canonical(tri2) == sig


def test_large_size_prefix_round_trip():
    # 63 or more tetrahedra use the multi-character size encoding
    from idealtri import lst_build
    chain = lst_build("ab" * 35)   # 71 tetrahedra
    assert chain.tri.n == 71
    sig = encode_canonical(chain.tri)
    again = decode(sig)
    assert again.n == 71
    assert encode_canonical(again) == sig


# -- differential oracle: the fast encoder against the reference ---------

SEEDS = st.integers(0, 2 ** 32 - 1)


def random_relabelling(tri, rng):
    tet_map = list(range(tri.n))
    rng.shuffle(tet_map)
    return relabelled(tri, tet_map, [rng.choice(S4) for _ in range(tri.n)])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.booleans(), SEEDS, st.data())
def test_signature_invariant_under_random_relabelling(n, closed, seed, data):
    # relabelled runs on the enumerator's S4-index kernel and adopts its
    # table unchecked; it agrees with the gluing-by-gluing relabelling,
    # the validating constructor accepts it, and the signature ignores both
    tri = random_complex(random.Random(seed), n, closed=closed)
    tet_map = data.draw(st.permutations(range(n)))
    vertex_maps = data.draw(st.lists(st.sampled_from(S4), min_size=n,
                                     max_size=n))
    other = relabelled(tri, tet_map, vertex_maps)
    assert other == reference_relabelled(tri, tet_map, vertex_maps)
    assert_revalidates(other)
    assert encode_canonical(other) == encode_canonical(tri)


def assert_matches_reference(tri, rng):
    sig = encode_canonical(tri)
    assert sig == reference_encode_canonical(tri)
    assert encode_canonical(random_relabelling(tri, rng)) == sig


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([sig for sig, _ in CENSUS_FIXTURES]), SEEDS)
def test_oracle_census_relabellings(sig, seed):
    rng = random.Random(seed)
    tri = random_relabelling(decode(sig), rng)
    assert encode_canonical(tri) == reference_encode_canonical(tri) == sig


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_oracle_move_walks(seed):
    rng = random.Random(seed)
    assert_matches_reference(random_admissible(rng), rng)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), SEEDS)
def test_oracle_bounded_complexes(n, seed):
    rng = random.Random(seed)
    tri = random_complex(rng, n)
    assert_matches_reference(tri, rng)
    assert encode_canonical(decode(encode_canonical(tri))) == encode_canonical(tri)


@settings(max_examples=25, deadline=None)
@given(st.text("RL", min_size=2, max_size=24).filter(
    lambda w: "R" in w and "L" in w), st.sampled_from([1, 2, 3]), SEEDS)
def test_oracle_bundles_and_covers(word, k, seed):
    bundle = build_bundle(cover(word, k))
    assert bundle.signature == reference_encode_canonical(bundle.tri)
    assert_matches_reference(bundle.tri, random.Random(seed))


def test_oracle_large_size_prefix():
    tri = lst_build("ab" * 35).tri
    assert tri.n >= 63
    assert_matches_reference(tri, random.Random(3))


# -- automorphisms: skipped starts and the group order -------------------

# Periodic words: each rotation of the word, the elliptic involution and,
# for the covers, the deck group are automorphisms of the bundle.
SYMMETRIC_WORDS = (["RL" * k for k in (1, 2, 3, 6, 12)]
                   + ["RRL" * k for k in (1, 2, 4)]
                   + ["RRLL" * 3, "RLL" * 3, "RRRLLRLRLL"])


@pytest.mark.parametrize("word", SYMMETRIC_WORDS)
def test_oracle_symmetric_bundles(word):
    # Relabelled copies put the canonical orbit at different points of
    # the start order, so the skip meets it early, late and split.
    bundle = build_bundle(word)
    reference = reference_canonical_starts(bundle.tri)
    assert reference[0] == bundle.signature
    rng = random.Random(word)
    for _ in range(3):
        assert _canonical(random_relabelling(bundle.tri, rng))[:2] == reference


@pytest.mark.parametrize("word", SYMMETRIC_WORDS)
def test_marked_orbits_prune_the_starts(word):
    # Every oracle above also passes with no start ever skipped, only
    # slower.  With the skip, about one start is grown per orbit of the
    # group, plus one per automorphism found; each automorphism found at
    # least doubles the group.
    bundle = build_bundle(word)
    rng = random.Random(word)
    grow = isosig._grow
    for tri in [bundle.tri] + [random_relabelling(bundle.tri, rng)
                               for _ in range(3)]:
        dest, partner = isosig._flatten(tri)[:2]
        firsts = [c for t in range(tri.n)
                  for c in isosig._first_row(dest, partner, t)[0]]
        grown = []

        def spy(*args):
            grown.append(args[4:6])
            return grow(*args)

        with mock.patch.object(isosig, "_grow", spy):
            _, order = isosig._canonical(tri)[:2]
        assert order > 1
        assert len(grown) <= (firsts.count(min(firsts)) / order
                              + math.log2(order)), (word, order)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.booleans(), SEEDS)
def test_group_order_counts_canonical_starts(n, closed, seed):
    tri = random_complex(random.Random(seed), n, closed=closed)
    assert _canonical(tri)[:2] == reference_canonical_starts(tri)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.booleans(), SEEDS)
@example(1, True, 0)        # a lone closed tetrahedron: two actions in all
def test_first_character_table_matches_grow(n, closed, seed):
    tri = random_complex(random.Random(seed), n, closed=closed)
    flat = isosig._flatten(tri)
    dest, partner = flat[:2]
    firsts = []
    for t in range(n):
        chars = isosig._first_row(dest, partner, t)[0]
        assert chars == tuple(isosig._grow(*flat, t, p, None)[0][0]
                              for p in range(24))
        firsts += chars
    grown = []
    grow = isosig._grow

    def spy(dest, partner, back, rows, start, start_perm, bound):
        grown.append(24 * start + start_perm)
        return grow(dest, partner, back, rows, start, start_perm, bound)

    with mock.patch.object(isosig, "_grow", spy):
        assert isosig._canonical(tri)[:2] == reference_canonical_starts(tri)
    assert grown
    assert all(firsts[s] == min(firsts) for s in grown)


def test_bundle_group_order_law():
    # The rotations fixing a word act on its bundle, so they divide the
    # group order; the elliptic involution fixes every fibre, so it is
    # not a rotation and doubles it.
    for length in range(2, 7):
        for letters in itertools.product("RL", repeat=length):
            if "R" not in letters or "L" not in letters:
                continue
            for k in (1, 2, 3):
                word = cover("".join(letters), k)
                bundle = build_bundle(word)
                signature, order = _canonical(bundle.tri)[:2]
                assert signature == bundle.signature
                rotations = sum(word[i:] + word[:i] == word
                                for i in range(len(word)))
                assert order % (2 * rotations) == 0, (word, order)
                if order >= 24:
                    assert (signature, order) == reference_canonical_starts(
                        bundle.tri), word


def assert_automorphism_law(tri, rng):
    """Every automorphism returned keeps the gluings of the decoded
    signature, there are as many as the group's order, and relabelling
    the input returns the same set."""
    sig, automorphisms = encode_with_automorphisms(tri)
    canonical = decode(sig)
    assert all(relabelled(canonical, *g) == canonical for g in automorphisms)
    group = {(tuple(m), tuple(v)) for m, v in automorphisms}
    assert len(group) == len(automorphisms) == _canonical(tri)[1]
    again = encode_with_automorphisms(random_relabelling(tri, rng))
    assert again[0] == sig
    assert {(tuple(m), tuple(v)) for m, v in again[1]} == group
    return len(group)


def test_automorphisms_of_bundle_closures_keep_the_gluings():
    # both closures of every admissible word of length 2 to 5
    orders = []
    for length in range(2, 6):
        for letters in itertools.product("RL", repeat=length):
            if "R" not in letters or "L" not in letters:
                continue
            word = "".join(letters)
            rng = random.Random(word)
            for twist in (IDENTITY, _ELLIPTIC):
                orders.append(assert_automorphism_law(_closure(word, twist),
                                                      rng))
    assert max(orders) >= 8


class _RecordedSearch(isosig._Search):
    """A ``_Search`` that keeps a list of every instance made."""

    __slots__ = ()
    made = []

    def __init__(self, *args):
        super().__init__(*args)
        self.made.append(self)


@pytest.mark.parametrize("word", ["RL", "RRL", "RRLL", "RLRLRL", "RRLRRL",
                                  "RLLRLLRLL", "RRRLRRRLRRRL",
                                  "RLRRLRLLRRLRLRRL"])
def test_paired_searches_grow_what_two_encodes_grow(word, monkeypatch):
    # Each search of the pair grows the starts its own encode grows and
    # finds the same group; the twin's grows all resume a fork, none
    # starts afresh.
    build_bundle(word)          # fills the first-character table first
    monkeypatch.setattr(isosig, "_Search", _RecordedSearch)
    grow = isosig._grow
    fresh = []

    def spy(*args):
        fresh.append(len(args) < 8 or args[7] is None)
        return grow(*args)

    monkeypatch.setattr(isosig, "_grow", spy)
    _RecordedSearch.made.clear()
    build_bundle(word)
    paired = list(_RecordedSearch.made)
    during = fresh[:]
    for search, twist in zip(paired, (IDENTITY, _ELLIPTIC)):
        _RecordedSearch.made.clear()
        _canonical(_closure(word, twist))
        (alone,) = _RecordedSearch.made
        assert search.grown_starts == alone.grown_starts
        assert sorted(search.group) == sorted(alone.group)
        assert search.best_tail == alone.best_tail
    assert during.count(True) == len(paired[0].grown_starts)
    assert during.count(False) == len(paired[1].grown_starts)


@pytest.mark.parametrize("word", ["RL", "RRL", "RRLL", "RLRLRL", "RRRLLRL"])
def test_least_twin_signature_breaks_a_tie_towards_tri(word):
    # A twin equal to tri, its slide re-gluing the gluing across the
    # bundle from each start with the same gluings: both searches fork
    # and tie, and the tie goes to tri.
    tri = _closure(word, IDENTITY)
    n = tri.n

    def slide(t):
        i = (t + n // 2) % n
        gluings = {}
        for face in (0, 1):
            d, perm = tri.gluings[i][face]
            gluings[i, face] = d, perm
            gluings[d, perm[face]] = tri.gluings[d][perm[face]]
        return gluings, ()

    assert isosig.least_twin_signature(tri, slide, IDENTITY) == (
        encode_canonical(tri), 0)


def _reglued(tri, rng):
    """tri with one glued pair of facets glued by another permutation,
    or two pairs swapping partners; the re-glued facets' new gluings,
    or None when the result falls apart."""
    glued = [(t, f) for t in range(tri.n) for f in range(4)
             if tri.gluings[t][f] is not None]
    if not glued:
        return None
    t, f = rng.choice(glued)
    d, perm = tri.gluings[t][f]
    pairs = [((t, f), (d, perm[f]))]
    others = [(u, g) for u, g in glued if (u, g) not in pairs[0]]
    if others and rng.random() < 0.5:
        u, g = rng.choice(others)
        w, q = tri.gluings[u][g]
        pairs = [((t, f), (u, g)), ((d, perm[f]), (w, q[g]))]
    gluings = {}
    for (a, fa), (b, fb) in pairs:
        p = rng.choice([p for p in S4 if p[fa] == fb])
        gluings[a, fa] = (b, p)
        gluings[b, fb] = (a, tuple(p.index(v) for v in range(4)))
    rows = [list(row) for row in tri.gluings]
    for (u, g), gluing in gluings.items():
        rows[u][g] = gluing
    twin = _from_table(rows)
    if len(isosig._grow(*isosig._flatten(twin), 0, 0, None)[4]) < tri.n:
        return None
    return twin, gluings


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.booleans(), SEEDS)
def test_least_twin_signature_of_a_regluing(n, closed, seed):
    # The twin re-glues one or two glued pairs of facets.  B_t is the
    # twin itself for every t, with nothing relabelled, so the pair may
    # grow against different bounds or die on one side only.  Each
    # search still grows what its own encode grows.  The paired search
    # takes the twin's least starts to be tri's, so a regluing that
    # changes them is left out.
    rng = random.Random(seed)
    tri = random_complex(rng, n, closed=closed)
    reglued = _reglued(tri, rng)
    if reglued is None:
        return
    twin, gluings = reglued
    if (isosig._least_starts(*isosig._flatten(twin)[:2], tri.n)
            != isosig._least_starts(*isosig._flatten(tri)[:2], tri.n)):
        return
    with mock.patch.object(isosig, "_Search", _RecordedSearch):
        _RecordedSearch.made.clear()
        got = isosig.least_twin_signature(tri, lambda t: (gluings, ()),
                                          IDENTITY)
        paired = list(_RecordedSearch.made)
        _RecordedSearch.made.clear()
        sigs = _canonical(tri)[0], _canonical(twin)[0]
        alone = list(_RecordedSearch.made)
    assert got == (min(sigs), int(sigs[1] < sigs[0]))
    for search, reference in zip(paired, alone):
        assert search.grown_starts == reference.grown_starts
        assert sorted(search.group) == sorted(reference.group)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.booleans(), SEEDS)
def test_automorphisms_of_random_complexes_keep_the_gluings(n, closed, seed):
    rng = random.Random(seed)
    assert_automorphism_law(random_complex(rng, n, closed=closed), rng)


# -- differential oracle: the labelling kernel against the reference -----

def assert_kernel_matches_reference(tri, other):
    """Every start grows what the reference kernel grows: with no bound,
    with the actions of start ``other`` as the bound, and with its own
    actions but the last character one code point lower or higher."""
    flat, ref = isosig._flatten(tri), reference_flatten(tri)
    bound = reference_grow(*ref, *divmod(other, 24), None)[0]
    outcomes = set()
    for s in range(24 * tri.n):
        start, perm = divmod(s, 24)
        own = reference_grow(*ref, start, perm, None)
        assert isosig._grow(*flat, start, perm, None) == own
        for last in (own[0][-1] - 1, own[0][-1] + 1):
            near = own[0][:-1] + [last]
            assert (isosig._grow(*flat, start, perm, near)
                    == reference_grow(*ref, start, perm, near))
        grown = isosig._grow(*flat, start, perm, bound)
        assert grown == reference_grow(*ref, start, perm, bound)
        outcomes.add("abort" if grown is None
                     else "tie" if grown[3] else "beat")
    return outcomes


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.booleans(), SEEDS, st.data())
def test_kernel_matches_reference_on_random_complexes(n, closed, seed, data):
    tri = random_complex(random.Random(seed), n, closed=closed)
    assert_kernel_matches_reference(tri, data.draw(st.integers(0, 24 * n - 1)))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([sig for sig, _ in CENSUS_FIXTURES]), SEEDS)
def test_kernel_matches_reference_on_census_relabellings(sig, seed):
    rng = random.Random(seed)
    tri = random_relabelling(decode(sig), rng)
    assert_kernel_matches_reference(tri, rng.randrange(24 * tri.n))


def test_kernel_covers_every_bound_outcome():
    tri = decode(CENSUS_FIXTURES[0][0])
    assert assert_kernel_matches_reference(tri, 24 * tri.n - 1) == {
        "abort", "tie", "beat"}


def test_kernel_matches_reference_on_large_bundle():
    # 63 or more tetrahedra: labels of several characters in the tail
    tri = build_bundle(cover("RRL" * 7, 3)).tri
    assert tri.n >= 63
    assert_kernel_matches_reference(tri, 24 * tri.n - 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.booleans(), SEEDS)
def test_find_isomorphism_matches_reference_kernel(n, closed, seed):
    rng = random.Random(seed)
    tri = random_complex(rng, n, closed=closed)
    other = random_relabelling(tri, rng)
    stranger = random_complex(rng, rng.randint(1, 5),
                              closed=rng.random() < 0.5)
    for a, b in [(tri, other), (other, tri), (tri, stranger)]:
        assert find_isomorphism(a, b) == reference_grow_isomorphism(a, b)
    assert find_isomorphism(tri, other) is not None


def test_find_isomorphism_of_different_free_face_counts_is_none():
    # one tetrahedron with 4, 2 and 0 free faces: no start of one ties
    # the other's action stream, whichever is longer
    tris = [_from_table([[None] * 4]), lst_build("").tri, decode("bkaagj")]
    for a, b in itertools.permutations(tris, 2):
        assert find_isomorphism(a, b) is None


def test_rebase_drops_a_fork_past_the_new_bound():
    # No closure word has a twin bound below a fork's prefix, so the
    # forked states are made by hand: only their last two fields, the
    # actions and the count of characters tied, are read.
    bound, new_bound = [5, 6, 7], [5, 4, 9]
    assert isosig._rebase([None] * 8 + [None, 2], bound, new_bound) is None
    assert isosig._rebase([None] * 8 + [[5, 6, 3], 0], bound,
                          new_bound) is None
    assert isosig._rebase([None] * 8 + [None, 1], bound, new_bound) \
        == [None] * 8 + [None, 1]
    assert isosig._rebase([None] * 8 + [[5, 3], 0], bound, new_bound) \
        == [None] * 8 + [[5, 3], 0]
