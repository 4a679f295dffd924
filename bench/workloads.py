"""Workload inputs and output checks for the idealtri benchmark.

Inputs come from the frozen pool in ``corpus.json``; the seed chooses a
fixed-size sample of every stratum and the order of the calls, so every
seed does the same mix of work and every op has a golden digest taken
from the reference code.  A call is one ``idealtri.cli.run`` invocation;
it reports one op, or one op per input line for a census batch.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass

from idealtri.isosig import decode, encode_canonical

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "corpus.json")

CENSUS_COMMANDS = ("decode", "analyze", "cohomology", "certificate", "lst",
                   "moves")
DOCUMENTED_EXITS = frozenset({0, 1, 2, 3, 4})

# Per-seed sample sizes.  A stratum with fewer pool entries is taken
# whole.  Fixed sizes keep the work of a pass nearly equal across seeds,
# and taking most of each pool keeps the latency percentiles from
# moving with the sample.
CENSUS_QUOTA = 50          # per (tetrahedra, rank) stratum of move walks
PROBE_QUOTA = {"2": 3, "3": 5, "4": 10, "5": 40, "6": 96}
LONG_WORD_CLASSES = ("24/1", "24/3", "40/1")   # length/mod-2 order

# One small call per workload fills lazily built tables before timing;
# set-up time is the fresh import plus these calls.
WARMUP = {
    "census-report": [[c, "cPcbbbiht"] for c in CENSUS_COMMANDS],
    "bundles": [["monodromy", "--word", "RRLL"]],
    "minsearch": [["minsearch", "cPcbbbiht", "--cap", "3", "--depth", "1"]],
    "enumerate": [["enumerate", "--tets", "1", "--filter",
                   "closed-admissible"]],
}


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_corpus():
    with open(CORPUS, "r", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Call:
    """One ``cli.run`` invocation and the ops it reports."""

    argv: list
    goldens: list         # digest per op; None where no reference exists
    per_line: bool        # each stdout line is one op (census batch)
    entries: list         # corpus entries behind the ops, for invariants
    # False for the out-of-domain batches, so that the six subcommands
    # of the main census file weigh equally in the latency percentiles.
    in_latency: bool = True

    @property
    def ops(self):
        return len(self.goldens)


def build_calls(workload, seed, corpus, work_dir):
    """The calls of one pass; census files are written into work_dir."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "census-report":
        return _census_calls(rng, corpus, work_dir)
    if workload == "bundles":
        words = list(corpus["short_words"])
        for cls in LONG_WORD_CLASSES:
            words.append(rng.choice(corpus["long_words"][cls]))
        rng.shuffle(words)
        return [Call(["monodromy", "--word", w["word"]], [w["golden"]],
                     False, [w]) for w in words]
    if workload == "minsearch":
        probes = list(corpus["fixture_probes"])
        for n, quota in PROBE_QUOTA.items():
            pool = corpus["probes"][n]
            probes += rng.sample(pool, min(quota, len(pool)))
        rng.shuffle(probes)
        return [Call(["minsearch", p["sig"], "--cap", str(p["cap"]),
                      "--depth", "1"], [p["golden"]], False, [p])
                for p in probes]
    if workload == "enumerate":
        e = corpus["enumerate"]
        return [Call(list(e["argv"]), [e["golden"]], False, [e])]
    raise ValueError(f"unknown workload {workload!r}")


def _census_calls(rng, corpus, work_dir):
    entries = list(corpus["fixtures"]) + list(corpus["bundle_sigs"])
    for stratum in sorted(corpus["census"]):
        pool = corpus["census"][stratum]
        entries += rng.sample(pool, min(CENSUS_QUOTA, len(pool)))
    rng.shuffle(entries)
    files = [("census", entries, True),
             ("out-of-domain", corpus["out_of_domain"], False)]
    calls = []
    for name, rows, in_latency in files:
        path = os.path.join(work_dir, f"{name}.census")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(r["sig"] + "\n" for r in rows))
        for command in CENSUS_COMMANDS:
            calls.append(Call([command, path],
                              [r["golden"].get(command) for r in rows],
                              True, rows, in_latency))
    rng.shuffle(calls)
    return calls


def inputs_digest(calls):
    """Digest of everything the program is given, census files included."""
    h = hashlib.sha256()
    for call in calls:
        h.update(json.dumps(call.argv[:1]).encode())
        for arg in call.argv[1:]:
            if os.path.isfile(arg):
                with open(arg, "rb") as fh:
                    h.update(fh.read())
            else:
                h.update(arg.encode())
    return h.hexdigest()[:16]


# Verdicts on one op.  An error is a call that raised or exited with an
# undocumented code; a wrong op produced output that is not correct.
OK, ERROR, WRONG = "ok", "error", "wrong"


def _valid_json_lines(text):
    if not text:
        return False
    try:
        for line in text.splitlines():
            json.loads(line)
    except ValueError:
        return False
    return True


def check_call(call, rc, text, exc):
    """One verdict per op of the call.

    An op fails when ``cli.run`` raises or exits with an undocumented
    code (an error), or when its output is not JSON or differs from its
    golden digest (wrong).  An op without a golden digest (the
    certificate of an out-of-domain complex) needs only a documented
    exit and JSON output.
    """
    if exc is not None or rc not in DOCUMENTED_EXITS:
        return [ERROR] * call.ops
    if not call.per_line:
        golden = call.goldens[0]
        good = (_valid_json_lines(text) if golden is None
                else digest(text) == golden)
        return [OK if good else WRONG]
    lines = text.splitlines(keepends=True)
    if len(lines) == call.ops:
        return [OK if (digest(line) == g if g is not None
                       else _valid_json_lines(line)) else WRONG
                for line, g in zip(lines, call.goldens)]
    loose = _valid_json_lines(text)
    return [OK if g is None and loose else WRONG for g in call.goldens]


def check_invariants(workload, call, text):
    """Paper invariants that hold whatever the golden digests say."""
    if workload == "census-report":
        if call.argv[0] != "certificate" or not any(
                e["kind"] == "fixture" for e in call.entries):
            return True
        reports = [json.loads(line) for line in text.splitlines()]
        if len(reports) != call.ops:
            return False
        for entry, report in zip(call.entries, reports):
            if entry["kind"] == "fixture" and not (
                    report.get("certificate_found")
                    and report.get("sum_neg_chi") == report["tetrahedra"]):
                return False
        return True
    report = json.loads(text)
    if workload == "bundles":
        if report["tetrahedra"] != report["cover_degree"] * len(report["word"]):
            return False
        if report["certificate_found"] and (
                report["sum_neg_chi"] != report["tetrahedra"]):
            return False
        return _round_trips([report["signature"]])
    if workload == "minsearch":
        return _round_trips(report["smaller_admissible"])
    if workload == "enumerate":
        frozen = call.entries[0]
        return (report["count"] == frozen["count"]
                and report["signatures"] == frozen["signatures"]
                and _round_trips(report["signatures"]))
    raise ValueError(f"unknown workload {workload!r}")


def _round_trips(sigs):
    return all(encode_canonical(decode(s)) == s for s in sigs)
