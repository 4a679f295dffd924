"""Cold start: importing the package executes none of its submodules,
a subcommand executes only the modules it calls, and none imports
``dataclasses``.  Each check runs in a fresh interpreter (``-S``, so no
site hook imports anything), since the pytest process itself has
executed every module long before."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
# The modules the benchmark's tracer reads from sys.modules.
TRACED = ("isosig", "triangulation", "cohomology", "surfaces", "lst",
          "moves", "search", "monodromy", "cli")
# The modules the package registers: all but the cli entry point.
REGISTERED = ("perms", *(m for m in TRACED if m != "cli"))
UNCALLED_BY_SEARCH = {"cohomology", "lst", "monodromy", "surfaces"}
CENSUS_COMMANDS = ("decode", "analyze", "cohomology", "certificate", "lst",
                   "moves")

# The package's public names, by home module, as the eager package
# exported them.
EXPORTS = {
    "triangulation": [
        "Triangulation", "EdgeClass", "VertexClass", "FaceClass", "FaceType",
        "InvalidTriangulation", "InvalidEdge", "build", "classify_faces",
        "face_type_counts", "degree_histogram", "anatomy_report",
        "boundary_surface", "relabelled", "find_isomorphism", "subcomplex"],
    "isosig": ["decode", "encode_canonical", "read_census",
               "MalformedSignature"],
    "cohomology": [
        "Cocycle", "CocycleBasis", "RankTwoColouring", "BoundCertificate",
        "ParityError", "IdentityError", "LinkError", "cocycle_space",
        "classify_rank1", "classify_rank2", "check_identities",
        "bound_certificate", "rank2_subgroups"],
    "surfaces": [
        "NormalSurface", "SurfaceComponents", "SurfaceError",
        "canonical_surface", "euler_characteristic", "components",
        "chi_minus", "vertex_link_surface", "from_coordinates"],
    "lst": [
        "LstParams", "LstComplex", "LstCertificate", "LstError", "lst_build",
        "layer_tetrahedron", "detect_degree3", "maximal_extension",
        "pairwise_intersection"],
    "moves": ["MoveSite", "MoveError", "enumerate_moves", "apply_move"],
    "search": ["SearchResult", "enumerate_complexes", "bounded_move_search",
               "random_move_walk"],
    "monodromy": [
        "MonodromyWord", "BundleTriangulation", "BundleCertificate",
        "MonodromyError", "word_analysis", "build_bundle", "cover",
        "bundle_certificate"],
}

# Prints which idealtri modules are registered and which executed: a
# module registered by LazyLoader keeps a ModuleType subclass as its
# type until it executes.
STATE = """
import json, sys, types
mods = {n: m for n, m in sys.modules.items() if n.startswith("idealtri.")}
print(json.dumps({
    "registered": sorted(mods),
    "executed": sorted(n for n, m in mods.items()
                       if type(m) is types.ModuleType),
    "dataclasses": "dataclasses" in sys.modules}))
"""


def _python(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-S", *args], env=env,
                          capture_output=True, text=True, timeout=120)


def _fresh(code, *args):
    done = _python("-c", code, *args)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _short(names):
    return {name.removeprefix("idealtri.") for name in names}


def _run_fresh(argv):
    return _fresh("import io\nfrom idealtri import cli\n"
                  f"assert cli.run({argv!r}, io.StringIO()) == 0\n" + STATE)


def test_import_registers_every_module_and_executes_none():
    state = _fresh("import idealtri\n" + STATE)
    registered = _short(state["registered"])
    assert registered >= set(REGISTERED)
    assert "cli" not in registered
    assert state["executed"] == []
    assert state["dataclasses"] is False


def test_module_entry_point_runs_without_warnings():
    # runpy warns when the module it is asked to run as __main__ is in
    # sys.modules already after its package is imported.
    done = _python("-m", "idealtri.cli", "--version")
    assert (done.returncode, done.stdout, done.stderr) == (0, "0.1.0\n", "")


@pytest.mark.parametrize("argv, uncalled", [
    (["enumerate", "--tets", "1", "--filter", "closed-admissible"],
     UNCALLED_BY_SEARCH | {"moves"}),
    (["minsearch", "cPcbbbiht", "--cap", "3", "--depth", "1"],
     UNCALLED_BY_SEARCH),
], ids=["enumerate", "minsearch"])
def test_search_commands_leave_the_other_modules_unexecuted(argv, uncalled):
    state = _run_fresh(argv)
    assert _short(state["registered"]) >= set(TRACED)
    executed = _short(state["executed"])
    assert {"cli", "search"} <= executed
    assert not executed & uncalled
    assert state["dataclasses"] is False


@pytest.mark.parametrize("argv", [
    *([command, "cPcbbbiht"] for command in CENSUS_COMMANDS),
    ["monodromy", "--word", "RRL"],
], ids=[*CENSUS_COMMANDS, "monodromy"])
def test_no_command_imports_dataclasses(argv):
    assert _run_fresh(argv)["dataclasses"] is False


# Imports every name of the export table in argv[1] from the package and
# prints whether each is its home module's object, what ``import *``
# binds, and which of the names ``dir`` lists.
IMPORTS = """
import json, sys
import idealtri
exports = json.loads(sys.argv[1])
names = [name for names in exports.values() for name in names]
homes = {}
for module, names_here in exports.items():
    for name in names_here:
        exec(f"from idealtri import {name} as value")
        homes[name] = value is getattr(sys.modules["idealtri." + module], name)
star = {}
exec("from idealtri import *", star)
print(json.dumps({"homes": homes,
                  "star": sorted(set(star) - {"__builtins__"}),
                  "dir": sorted(set(dir(idealtri)) & set(names))}))
"""


def test_every_export_imports_from_the_package():
    names = sorted(name for names in EXPORTS.values() for name in names)
    found = _fresh(IMPORTS, json.dumps(EXPORTS))
    assert found["homes"] == dict.fromkeys(names, True)
    assert found["star"] == names
    assert found["dir"] == names
