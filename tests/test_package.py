import json
import os
import subprocess
import sys
from pathlib import Path

import planetube

# home submodule -> the names the package root re-exports from it
EXPORTS = {
    "graphs": ["Graph", "Edge", "EdgeCycle", "SpanningTree", "GraphError",
               "validate_graph", "canonical_spanning_tree",
               "fundamental_cycle", "complete_graph", "star_graph",
               "cycle_graph", "path_graph", "star", "subgraph_from_edges"],
    "tube": ["SymmetricTube", "TubeComplex", "TubeError",
             "build_symmetric_tube", "tube_spanning_tree", "rank", "wu_basis",
             "basis_cycle", "tube_cycle_over_graph_cycle"],
    "genericity": ["Tolerances", "GenericityReport", "ImmersionError",
                   "NotGenericError", "CyclicOrder", "validate_generic"],
    "immersion": ["PlaneImmersion", "immersion_from_json_dict", "restrict",
                  "reflect", "map_points", "standard_curve", "standard_star",
                  "planar_k4", "to_svg"],
    "invariant": ["WuVector", "WindingError", "wu", "prepare",
                  "evaluate_on_tube_cycle", "equivalent", "star_wu",
                  "rotation_number_on_cycle"],
    "moves": ["MoveRecord", "MoveError", "insert_curl", "whitney_pair",
              "perturb", "apply_moves"],
}
SUBMODULES = [*EXPORTS, "geometry"]


def fresh(code):
    """What code prints as JSON, run in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=str(
            Path(planetube.__file__).parents[1])))
    return json.loads(out.stdout)


def test_bare_import_loads_no_submodule():
    assert fresh(
        "import json, sys, planetube; print(json.dumps(["
        "sorted(m for m in sys.modules if m.startswith('planetube')), "
        "getattr(planetube, 'nope', None)]))") == [["planetube"], None]


def test_root_resolves_every_public_name():
    """The 59 public names, each resolved by a fresh root to the object its
    home submodule holds, and each submodule to itself."""
    names = [n for ns in EXPORTS.values() for n in ns]
    assert len(names) == 52 and len(names) + len(SUBMODULES) == 59
    code = (
        "import importlib, json, planetube; "
        f"exports = {EXPORTS!r}; "
        "public = sorted(n for n in dir(planetube) if not n.startswith('_')); "
        "same = [getattr(planetube, n) is getattr(importlib.import_module("
        "'planetube.' + home), n) "
        "for home, ns in exports.items() for n in ns]; "
        f"subs = [getattr(planetube, m) is importlib.import_module("
        f"'planetube.' + m) for m in {SUBMODULES!r}]; "
        "print(json.dumps([public, same, subs]))")
    public, same, subs = fresh(code)
    assert public == sorted(names + SUBMODULES)
    assert all(same) and all(subs)


def test_winding_error_is_one_class():
    # the CLI catches it from `genericity`, the oracles from `invariant`
    from planetube import genericity, invariant, oracles
    assert planetube.WindingError is genericity.WindingError \
        is invariant.WindingError is oracles.WindingError
