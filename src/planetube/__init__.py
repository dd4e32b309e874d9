"""Wu invariants of generic plane immersions of finite graphs."""

from .graphs import (Graph, Edge, EdgeCycle, SpanningTree, GraphError,
                     validate_graph, canonical_spanning_tree,
                     fundamental_cycle, complete_graph, star_graph,
                     cycle_graph, path_graph, star, subgraph_from_edges)
from .tube import (SymmetricTube, TubeComplex, TubeError,
                   build_symmetric_tube, tube_spanning_tree, rank, wu_basis,
                   basis_cycle, tube_cycle_over_graph_cycle)
from .genericity import (Tolerances, GenericityReport, ImmersionError,
                         NotGenericError, CyclicOrder, validate_generic)
from .immersion import (PlaneImmersion, immersion_from_json_dict, restrict,
                        reflect, map_points, standard_curve, standard_star,
                        planar_k4, to_svg)
from .invariant import (WuVector, WindingError, wu, prepare,
                        evaluate_on_tube_cycle, equivalent, star_wu,
                        rotation_number_on_cycle)
from .moves import (MoveRecord, MoveError, insert_curl, whitney_pair,
                    perturb, apply_moves)

__version__ = "0.1.0"
