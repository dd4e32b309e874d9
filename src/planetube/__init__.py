"""Wu invariants of generic plane immersions of finite graphs.

The package loads a submodule the first time one of its names is read
(PEP 562), so `import planetube` and each CLI command compile only the
code they use.
"""

from importlib import import_module as _import_module

# home submodule -> the names the package re-exports from it
_EXPORTS = {
    "graphs": ("Graph", "Edge", "EdgeCycle", "SpanningTree", "GraphError",
               "validate_graph", "canonical_spanning_tree",
               "fundamental_cycle", "complete_graph", "star_graph",
               "cycle_graph", "path_graph", "star", "subgraph_from_edges"),
    "tube": ("SymmetricTube", "TubeComplex", "TubeError",
             "build_symmetric_tube", "tube_spanning_tree", "rank", "wu_basis",
             "basis_cycle", "tube_cycle_over_graph_cycle"),
    "genericity": ("Tolerances", "GenericityReport", "ImmersionError",
                   "NotGenericError", "WindingError", "CyclicOrder",
                   "validate_generic"),
    "immersion": ("PlaneImmersion", "immersion_from_json_dict", "restrict",
                  "reflect", "map_points", "standard_curve", "standard_star",
                  "planar_k4", "to_svg"),
    "invariant": ("WuVector", "wu", "prepare", "evaluate_on_tube_cycle",
                  "equivalent", "star_wu", "rotation_number_on_cycle"),
    "moves": ("MoveRecord", "MoveError", "insert_curl", "whitney_pair",
              "perturb", "apply_moves"),
}
# name -> home submodule; a submodule is its own home
_HOME = {name: home for home, names in _EXPORTS.items() for name in names}
_HOME.update((home, home) for home in (*_EXPORTS, "geometry"))

__version__ = "0.1.0"


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f".{home}", __name__)
    value = module if home == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
