"""Regenerate ``corpus.json``: the input pool and its golden digests.

    python3 bench/make_corpus.py

The pool comes from move walks and word sampling under a fixed seed;
the goldens are the reports of the code this runs against.  They define
correct output for the benchmark, so regenerate only to add inputs, and
only from a commit whose reports are known to be right.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from idealtri import cli  # noqa: E402
from idealtri.cohomology import cocycle_space  # noqa: E402
from idealtri.isosig import decode, encode_canonical, read_census  # noqa: E402
from idealtri.monodromy import MonodromyError, build_bundle, word_analysis  # noqa: E402
from idealtri.search import closed_admissible, random_move_walk, torus_links_only  # noqa: E402

from workloads import (  # noqa: E402
    CENSUS_COMMANDS, CORPUS, LONG_WORD_CLASSES, digest)

POOL_SEED = 1808_02836
WALKS = 4000
# Closed 2-tetrahedron complexes whose vertex links are spheres or
# projective planes: outside the paper's cusped setting.
OUT_OF_DOMAIN = ["cMcabbgag", "cPcbbbaaa", "cPcbbbabb", "cPcbbbahh",
                 "cPcbbbqxh"]
# The closed admissible 2-tetrahedron triangulations (rank 0).
RANK0_STARTS = ["cPcbbbdei", "cPcbbbdxm", "cPcbbbiht"]
CENSUS_POOL = 60
PROBE_POOL = 120
LONG_WORDS_PER_CLASS = 6
ENUMERATE_ARGV = ["enumerate", "--tets", "2", "--filter", "closed-admissible"]


def report(argv):
    out = io.StringIO()
    rc = cli.run(argv, out)
    if rc != 0:
        raise SystemExit(f"reference call {argv} exited {rc}")
    return out.getvalue()


def census_goldens(sig, commands=CENSUS_COMMANDS):
    return {c: digest(report([c, sig])) for c in commands}


def admissible_words(lengths):
    for n in lengths:
        for letters in itertools.product("RL", repeat=n):
            word = "".join(letters)
            try:
                yield word, word_analysis(word).mod2_order
            except MonodromyError:
                continue


def walk_pools(rng, starts, keep, max_tets, stratum_of, target):
    pools = {}
    for _ in range(WALKS):
        tri = random_move_walk(decode(rng.choice(starts)), rng.randint(1, 12),
                               rng, max_tets=max_tets, keep=keep)
        sig = encode_canonical(tri)
        pool = pools.setdefault(stratum_of(tri), {})
        if len(pool) < target:
            pool[sig] = tri.n
    return pools


def main():
    rng = random.Random(POOL_SEED)
    with open(os.path.join(ROOT, "demos", "bound_attaining.census"),
              encoding="utf-8") as fh:
        fixtures = read_census(fh.read())

    trivial = sorted({encode_canonical(build_bundle(w).tri)
                      for w, order in admissible_words(range(2, 9))
                      if order == 1})
    print(f"{len(trivial)} mod-2-trivial bundle signatures", flush=True)

    census = walk_pools(
        rng, RANK0_STARTS + fixtures + trivial, torus_links_only, 8,
        lambda t: f"n{t.n}.r{cocycle_space(t).rank}", CENSUS_POOL)
    print("census strata:", {k: len(v) for k, v in sorted(census.items())},
          flush=True)

    probes = walk_pools(rng, RANK0_STARTS, closed_admissible, 6,
                        lambda t: str(t.n), PROBE_POOL)
    print("probe strata:", {k: len(v) for k, v in sorted(probes.items())},
          flush=True)

    def probe(sig, n):
        argv = ["minsearch", sig, "--cap", str(n + 1), "--depth", "1"]
        return {"sig": sig, "cap": n + 1, "golden": digest(report(argv))}

    long_words = {}
    for cls in LONG_WORD_CLASSES:
        length, order = map(int, cls.split("/"))
        chosen = []
        while len(chosen) < LONG_WORDS_PER_CLASS:
            word = "".join(rng.choice("RL") for _ in range(length))
            try:
                if word_analysis(word).mod2_order != order:
                    continue
            except MonodromyError:
                continue
            if word not in chosen:
                chosen.append(word)
        long_words[cls] = [
            {"word": w, "golden": digest(report(["monodromy", "--word", w]))}
            for w in chosen]
        print(f"long words {cls} done", flush=True)

    enum_out = report(ENUMERATE_ARGV)
    enum_report = json.loads(enum_out)

    corpus = {
        "pool_seed": POOL_SEED,
        "fixtures": [{"sig": s, "kind": "fixture", "golden": census_goldens(s)}
                     for s in fixtures],
        "bundle_sigs": [{"sig": s, "kind": "bundle",
                         "golden": census_goldens(s)} for s in trivial],
        "census": {k: [{"sig": s, "kind": "walk", "golden": census_goldens(s)}
                       for s in sorted(v)] for k, v in sorted(census.items())},
        "out_of_domain": [
            {"sig": s, "kind": "out-of-domain",
             "golden": census_goldens(
                 s, [c for c in CENSUS_COMMANDS if c != "certificate"])}
            for s in OUT_OF_DOMAIN],
        "short_words": [
            {"word": w, "golden": digest(report(["monodromy", "--word", w]))}
            for w, _ in admissible_words(range(2, 7))],
        "long_words": long_words,
        "fixture_probes": [probe(s, decode(s).n) for s in fixtures],
        "probes": {k: [probe(s, n) for s, n in sorted(v.items())]
                   for k, v in sorted(probes.items())},
        "enumerate": {"argv": ENUMERATE_ARGV, "golden": digest(enum_out),
                      "count": enum_report["count"],
                      "signatures": enum_report["signatures"]},
    }
    with open(CORPUS, "w", encoding="utf-8") as fh:
        json.dump(corpus, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {CORPUS}")


if __name__ == "__main__":
    main()
