"""Command-line interface.

Exit codes: 0 success, 1 validation failure (malformed input, a non-finite
coordinate or a non-generic immersion), 2 numeric failure (an `--eps` out of
range, or a tube-cochain total that is not a whole number of half-turns).
Payloads go to stdout; machine-readable error objects go to stderr.
"""
from __future__ import annotations

import argparse
import json
import sys

from .graphs import GraphError, EdgeCycle, validate_graph
from .tube import rank, to_dot, to_json_dict
from .genericity import Tolerances, ImmersionError, validate_generic
from .immersion import (immersion_from_json_dict, standard_curve,
                        standard_star, planar_k4, to_svg)
from .invariant import WindingError, prepare, wu, wu_plan, equivalent, \
    rotation_number_on_cycle
from .moves import MoveError, apply_moves


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# what parsing a file raises on a JSON value of the wrong shape, such as a
# list where an object belongs
_SHAPE_ERRORS = (TypeError, AttributeError)


def _load_graph(path: str):
    d = _load_json(path)
    try:
        return validate_graph(d["vertices"], d["edges"])
    except _SHAPE_ERRORS as exc:
        raise GraphError(f"malformed graph file: {exc}") from None
    except KeyError as exc:             # a table the file lacks
        raise GraphError(f"graph file: missing key {exc}") from None


def _load_immersion(path: str):
    try:
        return immersion_from_json_dict(_load_json(path))
    except _SHAPE_ERRORS as exc:
        raise ImmersionError(f"malformed immersion file: {exc}") from None
    except KeyError as exc:
        raise ImmersionError(f"immersion file: missing key {exc}") from None


def _tolerances(args) -> Tolerances | None:
    if getattr(args, "tol", None) is not None:
        return Tolerances(tau_abs=args.tol)
    return None


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def cmd_validate(args) -> int:
    f = _load_immersion(args.immersion)
    report = validate_generic(f, _tolerances(args))
    _emit({
        "passed": report.passed,
        "violations": [list(v) for v in report.violations],
        "crossings": len(report.crossings),
        "cyclic_orders": {str(v): list(o.edges)
                          for v, o in sorted(report.cyclic_orders.items())},
        "epsilon": report.epsilon,
        "tau": report.tau,
    })
    return 0 if report.passed else 1


def cmd_tube(args) -> int:
    plan = wu_plan(_load_graph(args.graph))
    if args.dot:
        sys.stdout.write(to_dot(plan.complex))
    else:
        _emit(to_json_dict(plan.complex, plan.labels))
    return 0


def cmd_rank(args) -> int:
    g = _load_graph(args.graph)
    sys.stdout.write(f"{rank(g)}\n")
    return 0


def cmd_basis(args) -> int:
    g = _load_graph(args.graph)
    _emit({"basis": wu_plan(g).names, "rank": rank(g)})
    return 0


def cmd_invariant(args) -> int:
    f = _load_immersion(args.immersion)
    vec = wu(f, _tolerances(args), eps=args.eps)
    _emit(vec.to_json_dict())
    return 0


def cmd_equiv(args) -> int:
    fa = _load_immersion(args.a)
    fb = _load_immersion(args.b)
    same = equivalent(fa, fb, _tolerances(args))
    sys.stdout.write(f"equivalent: {'true' if same else 'false'}\n")
    return 0


def cmd_rotation(args) -> int:
    f = _load_immersion(args.immersion)
    steps = tuple((abs(x), 1 if x > 0 else -1) for x in args.cycle)
    if any(x == 0 for x in args.cycle):
        raise GraphError("cycle edge ids are signed and nonzero")
    cycle = EdgeCycle(f.graph, steps)
    ctx = prepare(f, _tolerances(args), eps=args.eps)
    sys.stdout.write(f"{rotation_number_on_cycle(ctx, cycle)}\n")
    return 0


def cmd_gen(args) -> int:
    if args.kind == "curve":
        f = standard_curve(args.r)
    elif args.kind == "star":
        order = [int(x) for x in args.order.split(",")]
        f = standard_star(order)
    else:
        f = planar_k4()
    _emit(f.to_json_dict())
    return 0


def cmd_move(args) -> int:
    f = _load_immersion(args.immersion)
    records = _load_json(args.moves)
    if not isinstance(records, list):
        raise MoveError("a move file holds a list of move objects")
    out = apply_moves(f, records, _tolerances(args))
    _emit(out.to_json_dict())
    return 0


def cmd_render(args) -> int:
    f = _load_immersion(args.immersion)
    report = validate_generic(f, _tolerances(args))
    sys.stdout.write(to_svg(f, report))
    return 0


def _add_tol(p) -> None:
    p.add_argument("--tol", type=float, default=None,
                   help="absolute genericity tolerance, finite and > 0")


def _add_eps(p) -> None:
    p.add_argument("--eps", type=float, default=None,
                   help="pair scale override, range-checked against the "
                        "suggested scale (the result does not depend on it)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="planetube",
        description="Wu invariants of generic plane immersions of graphs")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="genericity report for an immersion")
    p.add_argument("immersion")
    _add_tol(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("tube", help="symmetric tube of a graph")
    p.add_argument("graph")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    p.set_defaults(fn=cmd_tube)

    p = sub.add_parser("rank", help="rank of the invariant lattice")
    p.add_argument("graph")
    p.set_defaults(fn=cmd_rank)

    p = sub.add_parser("basis", help="cohomology basis labels")
    p.add_argument("graph")
    p.set_defaults(fn=cmd_basis)

    p = sub.add_parser("invariant", help="Wu vector of an immersion")
    p.add_argument("immersion")
    _add_tol(p)
    _add_eps(p)
    p.set_defaults(fn=cmd_invariant)

    p = sub.add_parser("equiv", help="regular-homotopy equivalence test")
    p.add_argument("a")
    p.add_argument("b")
    _add_tol(p)
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("rotation",
                       help="rotation number over a simple graph cycle")
    p.add_argument("immersion")
    p.add_argument("--cycle", type=int, nargs="+", required=True,
                   metavar="SIGNED_EDGE",
                   help="signed edge ids in traversal order, e.g. 3 -2 1")
    _add_tol(p)
    _add_eps(p)
    p.set_defaults(fn=cmd_rotation)

    p = sub.add_parser("gen", help="built-in example immersions")
    p.add_argument("kind", choices=["curve", "star", "k4"])
    p.add_argument("--r", type=int, default=1,
                   help="rotation number for `curve`")
    p.add_argument("--order", default="1,2,3",
                   help="counterclockwise edge order for `star`")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("move", help="apply a JSON list of moves")
    p.add_argument("immersion")
    p.add_argument("moves")
    _add_tol(p)
    p.set_defaults(fn=cmd_move)

    p = sub.add_parser("render", help="SVG rendering")
    p.add_argument("immersion")
    p.add_argument("--svg", action="store_true",
                   help="emit SVG (the only supported format)")
    _add_tol(p)
    p.set_defaults(fn=cmd_render)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except WindingError as exc:
        sys.stderr.write(json.dumps(
            {"error": "numeric", "message": str(exc)}) + "\n")
        return 2
    except (GraphError, ImmersionError, OSError, KeyError,
            json.JSONDecodeError, ValueError) as exc:
        sys.stderr.write(json.dumps(
            {"error": "validation", "message": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
