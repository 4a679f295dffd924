"""Command-line front end: analysis pipelines emitting JSON reports.

Single inputs produce one JSON document; a census file (one signature
per line, '#' comments) produces one JSON line per input line, in input
order: the line's report, or ``{"error": ...}`` when that line fails.
Exit codes: 0 success, 2 malformed input, 3 I/O failure, 4 inapplicable
request, 1 usage errors; a census batch exits with the code of its
first failing line.  A reader that closes standard output early is an
I/O failure: ``main`` points standard output at the null device, so
nothing more is written and no traceback is printed, and exits with 3.

A signature of 63 or more tetrahedra starts with ``-``.  Every
subcommand that takes a signature or census file reads an argument
that starts with ``-`` and a letter, other than ``-h``, as that input,
so such a signature needs no ``--`` before it.

The analysis modules are called through their module objects, which
the package registers without executing them, so a subcommand executes
only the modules it calls: ``enumerate`` and ``minsearch`` never
execute ``cohomology``, ``surfaces``, ``lst`` or ``monodromy``, and
``enumerate`` never executes ``moves``.  Every result record is a named
tuple, so no subcommand imports a record-class library at start-up.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__, cohomology, lst, monodromy, moves, search, surfaces
from .isosig import MalformedSignature, decode, encode_canonical, read_census
from .triangulation import anatomy_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MALFORMED = 2
EXIT_IO = 3
EXIT_INAPPLICABLE = 4


class CliError(Exception):
    def __init__(self, code, kind, message):
        super().__init__(message)
        self.code = code
        self.kind = kind


def _emit(payload, out):
    out.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _load(sig):
    try:
        return decode(sig)
    except MalformedSignature as exc:
        raise CliError(EXIT_MALFORMED, "malformed-signature", str(exc))


def _inputs(value):
    """A literal signature, or a census file of signatures."""
    if os.path.exists(value):
        try:
            with open(value, "r", encoding="utf-8-sig") as fh:
                return read_census(fh.read())
        except OSError as exc:
            raise CliError(EXIT_IO, "io", str(exc))
    return [value]


def _report_decode(sig):
    tri = _load(sig)
    return {
        "signature": sig,
        "tetrahedra": tri.n,
        "closed": tri.is_closed,
        "orientable": tri.is_orientable,
        "vertices": len(tri.vertex_classes),
        "edges": len(tri.edge_classes),
        "links": [{"euler": v.link_euler, "orientable": v.link_orientable,
                   "torus": v.is_torus_link} for v in tri.vertex_classes],
        "gluings": [[list(tri.gluings[t][f]) if tri.gluings[t][f] else None
                     for f in range(4)] for t in range(tri.n)],
    }


def _report_encode(sig):
    tri = _load(sig)
    tri.edge_classes        # raises InvalidEdge on a reversed edge
    return {"signature": sig, "canonical": encode_canonical(tri)}


def _report_analyze(sig):
    tri = _load(sig)
    report = anatomy_report(tri)
    report["signature"] = sig
    report["orientable"] = tri.is_orientable
    report["links"] = [{"euler": v.link_euler, "torus": v.is_torus_link}
                       for v in tri.vertex_classes]
    report["degree_histogram"] = {str(k): v for k, v
                                  in report["degree_histogram"].items()}
    return report


def _report_cohomology(sig):
    tri = _load(sig)
    basis = cohomology.cocycle_space(tri)
    return {
        "signature": sig,
        "tetrahedra": tri.n,
        "rank": basis.rank,
        "basis": [sorted(c.odd_edges()) for c in basis.vectors],
    }


def _report_certificate(sig):
    tri = _load(sig)
    if not tri.is_closed:
        raise CliError(EXIT_INAPPLICABLE, "inapplicable",
                       "certificates need a closed triangulation")
    if any(v.link_euler for v in tri.vertex_classes):
        raise CliError(EXIT_INAPPLICABLE, "inapplicable",
                       "certificates need every vertex link to be a torus "
                       "or Klein bottle")
    basis = cohomology.cocycle_space(tri)
    colourings = list(cohomology.rank2_colourings(basis))
    if (any(rc.counts["qqq"] == tri.n for rc in colourings)
            and not tri.is_orientable):
        raise CliError(EXIT_INAPPLICABLE, "inapplicable",
                       "all-quadrilateral certificates need an orientable "
                       "triangulation")
    cert = next(filter(None, map(cohomology.certificate_of, colourings)), None)
    report = {
        "signature": sig,
        "tetrahedra": tri.n,
        "rank": basis.rank,
        "certificate_found": cert is not None,
    }
    # check_identities raises on the first identity that fails, so the
    # report can only ever say that they hold
    if cert is not None:
        rc = cert.colouring
        chis = cert.chi
        cohomology.check_identities(rc, *chis)
        report.update({
            "subgroup": [sorted(p.odd_edges()) for p in rc.phi],
            "surfaces": [s.coordinate_vector() for s in cert.surfaces],
            "chi": list(chis),
            "sum_neg_chi": cert.sum_neg_chi,
            "tetrahedra_even": cert.even_count_check,
            "n_qtt": rc.counts["qtt"], "n_qq": rc.counts["qq"],
            "n_tt": rc.counts["tt"], "n_empty": rc.counts["empty"],
            "n_qqq": rc.counts["qqq"],
            "e0even": rc.e0,
            "e_histogram": {str(k): v for k, v in rc.e0_histogram.items()},
            "identities_hold": True,
            "orientation_types": list(cert.orientation_types),
        })
    else:
        # report identity checks over every rank-2 subgroup anyway
        for rc in colourings:
            cohomology.check_identities(
                rc, *map(surfaces.euler_characteristic,
                         rc.canonical_surfaces()))
        report["subgroups_checked"] = len(colourings)
        report["identities_hold"] = True
    return report


def _report_monodromy(word):
    try:
        analysis = monodromy.word_analysis(word)
        bc = monodromy.bundle_certificate(word)
    except monodromy.MonodromyError as exc:
        raise CliError(EXIT_MALFORMED, "bad-word", str(exc))
    report = {
        "word": word,
        "trace": analysis.trace,
        "mod2_order": analysis.mod2_order,
        "cover_degree": bc.cover_degree,
        "covered_word": bc.covered_word,
        "tetrahedra": bc.tetrahedra,
        "signature": bc.bundle.signature,
        "certificate_found": bc.found,
        "convention": "letters layer positionally; closure takes the "
                      "lexicographically least admissible signature",
    }
    if bc.found:
        report.update({
            "sum_neg_chi": bc.sum_neg_chi,
            "chi": list(bc.certificate.chi),
            "horizontal_quads": list(bc.horizontal_counts),
        })
    return report


def _report_lst(sig):
    tri = _load(sig)
    certs, failures = lst.detect_degree3(tri)
    maximal = [lst.maximal_extension(c, tri) for c in certs]
    intersections = []
    for i in range(len(maximal)):
        for j in range(i + 1, len(maximal)):
            kind, detail = lst.pairwise_intersection(maximal[i], maximal[j],
                                                      tri)
            intersections.append({"pair": [i, j], "kind": kind,
                                  "shared": detail})
    return {
        "signature": sig,
        "degree3_edges": [e.index for e in tri.edge_classes if e.degree == 3],
        "certificates": [{
            "edge": c.edge, "core": c.core, "tets": list(c.tets),
            "params": list(c.params), "word": c.word, "maximal": c.maximal,
            "boundary_edges": [list(b) for b in c.boundary_edges],
        } for c in maximal],
        "failures": [{"edge": f.edge, "reason": f.reason} for f in failures],
        "intersections": intersections,
    }


def _report_moves(sig):
    tri = _load(sig)
    sites = moves.enumerate_moves(tri)
    return {
        "signature": sig,
        "sites": [{"kind": s.kind, "index": s.index, "axis": s.axis,
                   "tets": list(s.tets)} for s in sites],
    }


def _report_enumerate(n, filter_name):
    if filter_name not in search.PREDICATES:
        raise CliError(EXIT_USAGE, "unknown-filter",
                       f"unknown filter {filter_name!r}; "
                       f"choose from {sorted(search.PREDICATES)}")
    predicate = search.PREDICATES[filter_name]
    boundary = 2 if filter_name == "degree3-lst-context" else 0
    found = search.enumerate_complexes(n, predicate,
                                       boundary_faces=boundary)
    return {
        "tetrahedra": n,
        "filter": filter_name,
        "boundary_faces": boundary,
        "count": len(found),
        "signatures": sorted(found),
    }


def _report_minsearch(sig, cap, depth):
    tri = _load(sig)
    result = search.bounded_move_search(tri, cap, depth)
    return {
        "signature": sig,
        "start_tetrahedra": tri.n,
        "cap": cap,
        "depth": depth,
        "reachable": len(result.reachable),
        "min_tetrahedra": result.min_tetrahedra,
        "smaller_admissible": list(result.smaller_admissible),
        "truncated": result.truncated,
    }


def build_parser():
    parser = argparse.ArgumentParser(
        prog="idealtri",
        description="ideal triangulations: anatomy, GF(2) cohomology, "
                    "canonical surfaces, complexity certificates")
    parser.add_argument("--version", action="store_true",
                        help="show program's version number and exit")
    sub = parser.add_subparsers(dest="command")

    for name, needs in [("decode", "input"), ("encode", "input"),
                        ("analyze", "input"), ("cohomology", "input"),
                        ("certificate", "input"), ("lst", "input"),
                        ("moves", "input")]:
        p = sub.add_parser(name)
        p.add_argument(needs, help="isomorphism signature or census file")

    p = sub.add_parser("monodromy")
    p.add_argument("--word", required=True, help="positive word over R, L")

    p = sub.add_parser("enumerate")
    p.add_argument("--tets", type=int, required=True)
    p.add_argument("--filter", default="all", dest="filter_name")

    p = sub.add_parser("minsearch")
    p.add_argument("input")
    p.add_argument("--cap", type=int, default=3)
    p.add_argument("--depth", type=int, default=6)
    return parser


_SINGLE = {
    "decode": _report_decode,
    "encode": _report_encode,
    "analyze": _report_analyze,
    "cohomology": _report_cohomology,
    "certificate": _report_certificate,
    "lst": _report_lst,
    "moves": _report_moves,
}

_PARSER = build_parser()
_TAKES_INPUT = {*_SINGLE, "minsearch"}


def _dashed_inputs_last(argv):
    """``argv`` with each argument that starts with ``-`` and a letter,
    other than ``-h``, moved behind a ``--`` when the subcommand takes
    an input and ``argv`` has no ``--`` yet: argparse would read such a
    signature as an unknown option."""
    if not argv or argv[0] not in _TAKES_INPUT or "--" in argv:
        return argv
    dashed = [arg for arg in argv[1:]
              if arg[:1] == "-" and arg[1:2].isalpha() and arg != "-h"]
    if not dashed:
        return argv
    return [arg for arg in argv if arg not in dashed] + ["--", *dashed]


def _outcome(report, *args):
    """The exit code and the JSON payload of one report."""
    try:
        return EXIT_OK, report(*args)
    except CliError as exc:
        return exc.code, {"error": {"kind": exc.kind, "message": str(exc)}}
    except ValueError as exc:
        return EXIT_MALFORMED, {"error": {"kind": "invalid-input",
                                          "message": str(exc)}}


def run(argv, out=None):
    """Entry point; returns the exit code."""
    out = out or sys.stdout
    try:
        args = _PARSER.parse_args(_dashed_inputs_last(argv))
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    if args.version:
        out.write(__version__ + "\n")
        return EXIT_OK
    if args.command is None:
        _PARSER.print_usage(out)
        return EXIT_USAGE
    if args.command in _SINGLE:
        code, sigs = _outcome(_inputs, args.input)
        if code:                        # sigs is the error payload
            _emit(sigs, out)
            return code
        for sig in sigs:
            line_code, payload = _outcome(_SINGLE[args.command], sig)
            _emit(payload, out)
            code = code or line_code
        return code
    if args.command == "monodromy":
        code, payload = _outcome(_report_monodromy, args.word)
    elif args.command == "enumerate":
        code, payload = _outcome(_report_enumerate, args.tets, args.filter_name)
    else:
        code, payload = _outcome(_report_minsearch, args.input, args.cap,
                                 args.depth)
    _emit(payload, out)
    return code


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The interpreter flushes standard output again at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_IO
    raise SystemExit(code)


if __name__ == "__main__":
    main()
