"""Command-line interface: subcommands, exit codes, determinism."""

import io
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from idealtri import cli, cohomology, search
from idealtri.cli import (
    EXIT_INAPPLICABLE, EXIT_IO, EXIT_MALFORMED, EXIT_OK, EXIT_USAGE, _SINGLE,
    run,
)
from idealtri.isosig import decode, encode_canonical, read_census
from idealtri.monodromy import build_bundle
from idealtri.search import PREDICATES, enumerate_complexes, random_move_walk

from helpers import random_complex

FIXTURE = "gLLMQbeefffehhqxhqq"
SWEEP_COMMANDS = list(_SINGLE) + ["minsearch"]


def invoke(argv):
    out = io.StringIO()
    code = run(argv, out)
    return code, out.getvalue()


def assert_invalid_input(argv):
    """A request no report can answer: one JSON error, exit code 2."""
    code, out = invoke(argv)
    assert code == EXIT_MALFORMED, argv
    lines = out.splitlines()
    assert len(lines) == 1, argv
    assert json.loads(lines[0])["error"]["kind"] == "invalid-input", argv


# A signature whose replay is a valid table but whose edge (0,{0,3}) is
# identified with itself in reverse: decoding accepts it, and every
# subcommand reports an invalid input.
@pytest.mark.parametrize("command", SWEEP_COMMANDS)
def test_reversed_edge_is_invalid_input(command):
    code, out = invoke([command, "cMcabbjns"])
    assert code == EXIT_MALFORMED
    error = json.loads(out)["error"]
    assert error["kind"] == "invalid-input"
    assert "in reverse" in error["message"]


def test_decode_reports_shape():
    code, out = invoke(["decode", FIXTURE])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["tetrahedra"] == 6
    assert payload["orientable"] is True
    assert payload["vertices"] == 1
    assert payload["links"][0]["torus"] is True


# Closed 2-tetrahedron complexes with sphere or projective-plane vertex
# links: outside the hypotheses of the counting identities.
NON_CUSPED = ["cMcabbgag", "cPcbbbaaa", "cPcbbbabb", "cPcbbbahh", "cPcbbbqxh"]


@pytest.mark.parametrize("sig", NON_CUSPED)
def test_certificate_rejects_non_cusped_links(sig):
    code, out = invoke(["certificate", sig])
    assert code == EXIT_INAPPLICABLE
    lines = out.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["kind"] == "inapplicable"
    assert "vertex link" in error["message"]


@pytest.mark.parametrize("sig", NON_CUSPED)
def test_bound_certificate_rejects_non_cusped_links(sig):
    # the library finds no certificate or names the links, and never
    # reports a failed identity outside the identities' hypotheses
    try:
        assert cohomology.bound_certificate(decode(sig)) is None
    except cohomology.LinkError as exc:
        assert "vertex link" in str(exc)


def test_certificate_rejects_non_orientable_all_quadrilateral_colouring():
    # Closed, non-orientable, one Klein-bottle link: its all-quadrilateral
    # colouring has no orientation types, so no certificate applies.
    sig = "dLQbccchxqa"
    tri = decode(sig)
    assert tri.is_closed and not tri.is_orientable
    assert [(v.link_euler, v.link_orientable)
            for v in tri.vertex_classes] == [(0, False)]
    code, out = invoke(["certificate", sig])
    assert code == EXIT_INAPPLICABLE
    lines = out.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["kind"] == "inapplicable"
    assert "orientable" in error["message"]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_every_command_reports_one_json_line(n, closed, seed):
    sig = encode_canonical(random_complex(random.Random(seed), n, closed=closed))
    for argv in [[command, sig] for command in _SINGLE] + [
            ["minsearch", sig, "--depth", "1"]]:
        code, out = invoke(argv)
        assert code in (EXIT_OK, EXIT_MALFORMED, EXIT_INAPPLICABLE), argv
        lines = out.splitlines()
        assert len(lines) == 1, argv
        json.loads(lines[0])


@pytest.fixture(scope="module")
def small_closed_sweep():
    """Exit code and output of every sweep command over every closed 1-
    and 2-tetrahedron complex, by command."""
    sigs = [*enumerate_complexes(1), *enumerate_complexes(2)]
    assert len(sigs) == 66
    argvs = {command: [[command, sig] for sig in sigs] for command in _SINGLE}
    argvs["minsearch"] = [["minsearch", sig, "--cap", "3", "--depth", "1"]
                          for sig in sigs]
    return {command: [(argv, *invoke(argv)) for argv in calls]
            for command, calls in argvs.items()}


@pytest.mark.parametrize("command", SWEEP_COMMANDS)
def test_every_small_closed_complex_reports_one_json_line(
        small_closed_sweep, command):
    for argv, code, out in small_closed_sweep[command]:
        assert code in (EXIT_OK, EXIT_MALFORMED, EXIT_INAPPLICABLE), argv
        lines = out.splitlines()
        assert len(lines) == 1, argv
        json.loads(lines[0])


def test_batch_reports_every_line(tmp_path):
    sigs = ["cPcbbbiht", "cMcabbgag", "not_a_sig", FIXTURE]
    path = tmp_path / "census.txt"
    path.write_text("\n".join(sigs), encoding="utf-8")
    code, out = invoke(["certificate", str(path)])
    assert code == EXIT_INAPPLICABLE     # the first failing line's code
    lines = out.splitlines()
    assert len(lines) == len(sigs)
    for sig, line in zip(sigs, lines):
        assert line + "\n" == invoke(["certificate", sig])[1]
    assert json.loads(lines[1])["error"]["kind"] == "inapplicable"
    assert json.loads(lines[2])["error"]["kind"] == "malformed-signature"


def test_census_file_may_start_with_a_byte_order_mark(tmp_path):
    text = b"cPcbbbiht\ncPcbbbdxm\n"
    plain, marked = tmp_path / "plain.census", tmp_path / "marked.census"
    plain.write_bytes(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    for command in ("decode", "encode"):
        code, out = invoke([command, str(marked)])
        assert code == EXIT_OK
        assert (code, out) == invoke([command, str(plain)])
        assert len(out.splitlines()) == 2


def test_certificate_fixture():
    code, out = invoke(["certificate", FIXTURE])
    payload = json.loads(out)
    assert code == EXIT_OK
    assert payload["certificate_found"] is True
    assert payload["tetrahedra"] == 6
    assert payload["sum_neg_chi"] == 6
    assert payload["identities_hold"] is True
    assert payload["n_qqq"] == 6
    assert len(payload["surfaces"]) == 3
    for vector in payload["surfaces"]:
        assert len(vector) == 7 * payload["tetrahedra"]
        assert sum(vector) == payload["tetrahedra"]  # one quad per tet


def test_certificate_report_classifies_each_subgroup_once(monkeypatch):
    # rank 2 with no certificate: one subgroup, classified once for the
    # search and reused for the identity checks
    calls = []
    classify = cohomology.classify_rank2

    def spy(*args):
        calls.append(args)
        return classify(*args)

    monkeypatch.setattr(cohomology, "classify_rank2", spy)
    # also where the report could call it directly
    monkeypatch.setattr(cli, "classify_rank2", spy, raising=False)
    code, out = invoke(["certificate", "fLLQcacdeeenkaqkc"])
    payload = json.loads(out)
    assert code == EXIT_OK
    assert payload["rank"] == 2
    assert payload["certificate_found"] is False
    assert payload["subgroups_checked"] == 1
    assert payload["identities_hold"] is True
    assert len(calls) == 1


def test_monodromy_command():
    code, out = invoke(["monodromy", "--word", "RRLL"])
    payload = json.loads(out)
    assert code == EXIT_OK
    assert payload["certificate_found"] is True
    assert payload["tetrahedra"] == 4
    assert payload["sum_neg_chi"] == 4


def test_malformed_signature_exit_code():
    code, out = invoke(["decode", "not_a_sig"])
    assert code == EXIT_MALFORMED
    payload = json.loads(out)
    assert payload["error"]["kind"] == "malformed-signature"


def test_empty_signature_is_malformed():
    code, out = invoke(["decode", ""])
    assert code == EXIT_MALFORMED
    assert json.loads(out)["error"] == {"kind": "malformed-signature",
                                        "message": "empty signature"}


def test_bad_word_exit_code():
    code, out = invoke(["monodromy", "--word", "RRRR"])
    assert code == EXIT_MALFORMED
    assert "error" in json.loads(out)


def test_unknown_subcommand_is_usage_error():
    code, _ = invoke(["frobnicate"])
    assert code == EXIT_USAGE


def test_missing_file_is_io_error():
    # a path-like argument that exists is read as a census file; a
    # non-path is treated as a signature, so use an unreadable path
    import os
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "census.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# census\n%s\ncPcbbbiht\n" % FIXTURE)
        code, out = invoke(["analyze", path])
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["signature"] == FIXTURE
        assert first["passes_minimal_anatomy"] is True


def test_batch_order_preserved():
    import os
    import tempfile
    sigs = ["cPcbbbiht", FIXTURE, "cPcbbbdxm"]
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "census.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(sigs))
        code, out = invoke(["encode", path])
        assert code == EXIT_OK
        got = [json.loads(line)["signature"] for line in out.strip().splitlines()]
        assert got == sigs


def test_reports_deterministic():
    _, out1 = invoke(["certificate", FIXTURE])
    _, out2 = invoke(["certificate", FIXTURE])
    assert out1 == out2


def test_lst_and_moves_commands():
    code, out = invoke(["lst", FIXTURE])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["degree3_edges"] == []
    code, out = invoke(["moves", "cPcbbbiht"])
    payload = json.loads(out)
    assert code == EXIT_OK
    assert all(site["kind"] == "2-3" for site in payload["sites"])


def test_minsearch_command():
    code, out = invoke(["minsearch", "cPcbbbiht", "--cap", "3", "--depth", "2"])
    payload = json.loads(out)
    assert code == EXIT_OK
    assert payload["min_tetrahedra"] == 2
    assert payload["smaller_admissible"] == []
    assert_invalid_input(["minsearch", "cPcbbbiht", "--depth", "-1"])


def test_enumerate_command():
    code, out = invoke(["enumerate", "--tets", "1", "--filter", "closed-admissible"])
    payload = json.loads(out)
    assert code == EXIT_OK
    assert payload["count"] == 0
    code, _ = invoke(["enumerate", "--tets", "1", "--filter", "nonsense"])
    assert code == EXIT_USAGE
    for tets in ("0", "-3", "3"):
        assert_invalid_input(["enumerate", "--tets", tets])


@pytest.mark.parametrize(
    "name", ["closed-admissible", "all", "degree3-lst-context", "torus-links"])
def test_enumerate_reports_are_frozen(name):
    # the reports the walk printed while it encoded every leaf, and
    # torus-links as the unpruned walk printed it
    golden = pathlib.Path(__file__).parent / "golden" / "enumerate_reports.txt"
    frozen = {json.loads(line)["filter"]: line
              for line in golden.read_text(encoding="utf-8").splitlines(True)}
    code, out = invoke(["enumerate", "--tets", "2", "--filter", name])
    assert code == EXIT_OK
    assert out == frozen[name]


def test_monodromy_reports_are_frozen():
    # the reports of every admissible word of length 2 to 6, as the
    # slope-tracking construction printed them
    golden = pathlib.Path(__file__).parent / "golden" / "monodromy_reports.txt"
    words = ["".join(w) for length in range(2, 7)
             for w in itertools.product("RL", repeat=length)
             if "R" in w and "L" in w]
    reports = []
    for word in words:
        code, out = invoke(["monodromy", "--word", word])
        assert code == EXIT_OK
        reports.append(out)
    assert "".join(reports) == golden.read_text(encoding="utf-8")


# One word each of length 24 and mod-2 order 1, of length 24 and order
# 3, and of length 40 and order 1: covers of 24, 72 and 40 tetrahedra.
LONG_WORDS = ("RRRLLLLLRRRRLRLLLLLRRLRR", "LLLRLLLLRLRRLLRLRLLRRLLL",
              "LLRRRLRRRLLLLLLLRRRLLRLRLRLRRLRRLLRRRRLL")


def test_long_monodromy_reports_are_frozen():
    # the reports as the encoder printed them when it encoded the two
    # closures one after the other
    golden = (pathlib.Path(__file__).parent / "golden"
              / "monodromy_long_reports.txt")
    reports = []
    for word in LONG_WORDS:
        code, out = invoke(["monodromy", "--word", word])
        assert code == EXIT_OK
        reports.append(out)
    assert "".join(reports) == golden.read_text(encoding="utf-8")


def _long_signature():
    """The 72-tetrahedron cover of ``LONG_WORDS[1]``; like every
    signature of 63 or more tetrahedra, it starts with "-"."""
    golden = (pathlib.Path(__file__).parent / "golden"
              / "monodromy_long_reports.txt")
    line = golden.read_text(encoding="utf-8").splitlines()[1]
    return json.loads(line)["signature"]


@pytest.mark.parametrize("command", SWEEP_COMMANDS)
def test_signature_that_starts_with_a_dash_is_the_input(command):
    sig = _long_signature()
    assert sig.startswith("-")
    extra = ["--cap", "3", "--depth", "1"] if command == "minsearch" else []
    code, out = invoke([command, sig, *extra])
    assert code == EXIT_OK
    assert json.loads(out)["signature"] == sig
    assert invoke([command, *extra, "--", sig]) == (code, out)


def test_decode_and_minsearch_read_a_72_tetrahedron_signature():
    sig = _long_signature()
    code, out = invoke(["decode", sig])
    assert code == EXIT_OK
    assert json.loads(out)["tetrahedra"] == 72
    # options may come before the signature too
    code, out = invoke(["minsearch", "--cap", "3", sig, "--depth", "1"])
    payload = json.loads(out)
    assert code == EXIT_OK
    assert payload["start_tetrahedra"] == payload["min_tetrahedra"] == 72
    # a dashed argument is read as a signature, so a bad one is malformed
    code, out = invoke(["decode", "-cb"])
    assert code == EXIT_MALFORMED
    assert json.loads(out)["error"]["kind"] == "malformed-signature"


@pytest.mark.parametrize("command", ["decode", "analyze", "certificate"])
def test_closed_pipe_exits_quietly(command):
    # the reader closes its end before the first line is written, so
    # every write fails; the command must exit with EXIT_IO and print
    # no traceback
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "idealtri", command,
         str(root / "demos" / "bound_attaining.census")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == EXIT_IO
    assert err == b""


def test_minsearch_reports_are_frozen():
    # the reports the search printed before it pruned its sites by the
    # automorphism group: the census fixtures, a two-tetrahedron
    # complex and three bundles, under caps of one to three tetrahedra
    # above the start
    here = pathlib.Path(__file__).parent
    golden = here / "golden" / "minsearch_reports.txt"
    census = here.parent / "demos" / "bound_attaining.census"
    words = ("RRLL", "RLRLRL", "RRLRRL")
    sigs = (read_census(census.read_text(encoding="utf-8")) + ["cPcbbbiht"]
            + [build_bundle(word).signature for word in words])
    reports = []
    for sig in sigs:
        for extra in (1, 2, 3):
            for depth in (2, 3):
                code, out = invoke(["minsearch", sig, "--cap",
                                    str(decode(sig).n + extra),
                                    "--depth", str(depth)])
                assert code == EXIT_OK
                reports.append(out)
    assert "".join(reports) == golden.read_text(encoding="utf-8")


def census_report_inputs():
    """The census fixtures, the bundles of the RL-words of length 2 to
    4, forty move walks off them, the non-cusped complexes and a few
    malformed or invalid lines."""
    census = pathlib.Path(__file__).parents[1] / "demos" / "bound_attaining.census"
    sigs = read_census(census.read_text(encoding="utf-8")) + ["cPcbbbiht"]
    sigs = list(dict.fromkeys(sigs + [
        build_bundle("".join(w)).signature
        for length in (2, 3, 4) for w in itertools.product("RL", repeat=length)
        if "R" in w and "L" in w]))
    seeds = [decode(sig) for sig in sigs]
    rng = random.Random(0)
    walks = []
    while len(walks) < 40:
        walk = random_move_walk(rng.choice(seeds), rng.randrange(1, 6), rng,
                                max_tets=7)
        sig = encode_canonical(walk)
        if sig not in sigs and sig not in walks:
            walks.append(sig)
    return (sigs + walks + NON_CUSPED
            + ["bBaa", FIXTURE[:-3], "cPcbb!iht", "cMcabbjns"])


def census_report_text(path):
    """The six census batch reports over the file at ``path``, each
    headed by its subcommand and exit code."""
    reports = []
    for command in ("decode", "analyze", "cohomology", "certificate", "lst",
                    "moves"):
        code, out = invoke([command, str(path)])
        reports.append(f"# {command} exit {code}\n{out}")
    return "".join(reports)


def test_census_reports_are_frozen(tmp_path):
    # the six batch reports that the census-report benchmark runs, as
    # the front end printed them when it decoded character by character
    # and walked edge classes depth first
    golden = pathlib.Path(__file__).parent / "golden" / "census_reports.txt"
    path = tmp_path / "census.txt"
    path.write_text("".join(sig + "\n" for sig in census_report_inputs()),
                    encoding="utf-8")
    assert census_report_text(path) == golden.read_text(encoding="utf-8")


def test_lst_reports_are_frozen(tmp_path):
    # certificates of words b, bb and bbb, a maximal extension that
    # stops when no letter matches, an OTHER intersection with shared
    # faces and two 3-2 failures
    golden = pathlib.Path(__file__).parent / "golden" / "lst_reports.txt"
    path = tmp_path / "lst.census"
    path.write_text("dLQbcbcdxjj\nfLAMcbcbdeehhjdxr\ngLAMPbcbdeffhhjhihj\n"
                    "gLLQPccddefftnnruhj\n", encoding="utf-8")
    assert invoke(["lst", str(path)]) == (
        EXIT_OK, golden.read_text(encoding="utf-8"))


def test_no_subcommand_prints_usage():
    code, out = invoke([])
    assert code == EXIT_USAGE == 1
    assert out.startswith("usage: idealtri")


def test_census_path_that_is_a_directory_is_an_io_error(tmp_path):
    code, out = invoke(["decode", str(tmp_path)])
    assert code == EXIT_IO == 3
    assert json.loads(out)["error"]["kind"] == "io"


def test_enumerate_passes_only_predicate_and_boundary(monkeypatch):
    # enumerate_complexes decides itself whether a filter's walk may cut
    # non-orientable gluings; the CLI hands it the predicate and the
    # number of free faces alone
    asked = {}

    def spy(n, predicate, boundary_faces):
        asked[predicate] = boundary_faces
        return {}

    monkeypatch.setattr(search, "enumerate_complexes", spy)
    for name in PREDICATES:
        assert invoke(["enumerate", "--tets", "1", "--filter", name])[0] == 0
    assert asked == {predicate: 2 if name == "degree3-lst-context" else 0
                     for name, predicate in PREDICATES.items()}


def test_version_goes_to_the_report_stream(capsys):
    code, out = invoke(["--version"])
    assert (code, out) == (EXIT_OK, "0.1.0\n")
    assert capsys.readouterr().out == ""


def test_cohomology_command():
    code, out = invoke(["cohomology", FIXTURE])
    payload = json.loads(out)
    assert code == EXIT_OK
    assert payload["rank"] == 2
    assert len(payload["basis"]) == 2


def test_certificates_over_shipped_census():
    import pathlib
    census = pathlib.Path(__file__).resolve().parents[1] / "demos" / "bound_attaining.census"
    code, out = invoke(["certificate", str(census)])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 4
    for line in lines:
        payload = json.loads(line)
        assert payload["certificate_found"] is True
        assert payload["sum_neg_chi"] == payload["tetrahedra"]
        assert payload["tetrahedra"] % 2 == 0
