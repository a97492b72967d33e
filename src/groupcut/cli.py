"""Command-line front end: batch subcommands over the library modules.

Results go to stdout in a canonical order so that identical invocations
produce byte-identical output no matter how many workers ran; progress
and summaries go to stderr.  Exit codes: 0 success, 1 domain or usage
error, 2 I/O error.
"""

import argparse
import json
import os
import sys

from .bounds import BoundsError, basis_determinant, check_upper_bound, construct_sequence
from .extremality import is_extreme, oversampling_vertex_test
from .grid_functions import load_function, number_of_slopes, save_function, to_json_dict
from .mip import SolutionFile, emit_mip, emit_mip_2q, refind_function
from .patterns import pattern_extreme
from .polyhedra import (
    build_minimal_function_polytope,
    build_triple_system_polytope,
    enumerate_vertices,
    function_from_vertex,
    remove_redundant,
)
from .rationals import format_rational, parse_rational
from .search import HEURISTIC, SearchConfig, exact_epsilon, run_search
from .svgplot import render_2d_diagram

__all__ = ["main", "run"]


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as domain errors (exit 1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


def _f_index(q, text):
    f = parse_rational(text)
    scaled = f * q
    if scaled.denominator != 1:
        raise CliError("f = %s is not a multiple of 1/%d" % (text, q))
    return int(scaled)


def _values_line(fn):
    return " ".join(format_rational(v) for v in fn.values)


def _bool_word(flag):
    return "true" if flag else "false"


def _write_function_dir(dirpath, functions):
    os.makedirs(dirpath, exist_ok=True)
    with open(os.path.join(dirpath, "index.jsonl"), "w") as index:
        for i, fn in enumerate(functions):
            name = "fn_%04d.fn" % i
            save_function(fn, os.path.join(dirpath, name))
            row = {"file": name, "q": fn.q, "f_index": fn.f_index,
                   "slopes": number_of_slopes(fn)}
            index.write(json.dumps(row, sort_keys=True) + "\n")


def _write_painting_dir(dirpath, paintings):
    os.makedirs(dirpath, exist_ok=True)
    with open(os.path.join(dirpath, "index.jsonl"), "w") as index:
        for i, painting in enumerate(paintings):
            name = "painting_%04d.txt" % i
            with open(os.path.join(dirpath, name), "w") as fh:
                fh.write("\n".join(painting.to_lines()) + "\n")
            row = {"file": name, "q": painting.q,
                   "green_faces": len(painting.green_faces())}
            index.write(json.dumps(row, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_search(args):
    q = args.q
    epsilon = exact_epsilon(q) if args.exact else parse_rational(args.epsilon)
    config = SearchConfig(
        q=q,
        f_index=_f_index(q, args.f),
        target_slopes=args.slopes,
        epsilon=epsilon,
        mode=args.mode.replace("-", "_"),
        exp_dim_threshold=args.threshold,
        worker_count=args.workers,
    )
    outcome = run_search(config)
    print(json.dumps(outcome.stats, sort_keys=True), file=sys.stderr)
    if config.mode == HEURISTIC:
        for i, painting in enumerate(outcome.paintings):
            if i:
                print()
            for line in painting.to_lines():
                print(line)
        if args.out:
            _write_painting_dir(args.out, outcome.paintings)
    else:
        for fn in outcome.functions:
            print(_values_line(fn))
        if args.out:
            _write_function_dir(args.out, outcome.functions)
    return 0


def _cmd_test(args):
    fn = load_function(args.file)
    result = is_extreme(fn)
    print("extreme: %s" % _bool_word(result.extreme))
    print("minimal: %s" % _bool_word(result.minimal))
    print("vertex: %s" % _bool_word(result.vertex))
    print("covered: %s" % _bool_word(result.covered))
    if result.uncovered_intervals:
        print("uncovered: %s"
              % " ".join(str(z) for z in result.uncovered_intervals))
    if args.oversampling is not None:
        print("oversampling m=%d: %s"
              % (args.oversampling,
                 _bool_word(oversampling_vertex_test(fn, args.oversampling))))
    return 0


def _cmd_vertices(args):
    q = args.q
    f_index = _f_index(q, args.f)
    if args.triple_system:
        poly = build_triple_system_polytope(q, f_index)
    else:
        poly = build_minimal_function_polytope(q, f_index)
    if not args.no_redund:
        poly = remove_redundant(poly)
    functions = sorted(
        (function_from_vertex(q, f_index, coords)
         for coords in enumerate_vertices(poly)),
        key=lambda fn: fn.sort_key())
    for fn in functions:
        print(_values_line(fn))
    print("%d vertices" % len(functions), file=sys.stderr)
    return 0


def _cmd_emit_mip(args):
    path = emit_mip(args.q, _f_index(args.q, args.f), args.slopes,
                    args.maxstep, args.m, args.type, args.out)
    print(path)
    return 0


def _cmd_emit_mip_2q(args):
    q = args.q
    path = emit_mip_2q(q, _f_index(q, args.f), _f_index(q, args.a),
                       args.slopes, args.maxstep, args.m, args.out)
    print(path)
    return 0


def _cmd_refind(args):
    solution = SolutionFile.read(args.sol)
    fn = refind_function(solution, args.q, _f_index(args.q, args.f))
    print(json.dumps(to_json_dict(fn), sort_keys=True))
    return 0


def _cmd_pattern(args):
    functions = pattern_extreme(args.r, args.slopes)
    for fn in functions:
        print(_values_line(fn))
    print("%d functions at q=%d" % (len(functions), 36 * args.r + 22),
          file=sys.stderr)
    if args.out:
        _write_function_dir(args.out, functions)
    return 0


def _cmd_plot(args):
    fn = load_function(args.file)
    render_2d_diagram(fn, output=args.out)
    print(args.out)
    return 0


def _cmd_bounds(args):
    q = args.q
    if args.f is not None:
        f_list = [_f_index(q, args.f)]
        skip_invalid = False
    else:
        f_list = list(range(1, q))
        skip_invalid = True
    rows = []
    for f_index in f_list:
        try:
            seq = construct_sequence(q, f_index)
        except BoundsError:
            if skip_invalid:
                continue
            raise
        rows.append({"q": q, "f_index": f_index,
                     "statistic": "basis_determinant",
                     "value": basis_determinant(seq)})
        rows.extend(check_upper_bound(q, f_index, args.samples,
                                      seed=args.seed))
    for row in rows:
        print(json.dumps(row, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# parser wiring

def _build_parser():
    parser = _Parser(prog="groupcut",
                     description="exact search tooling for extreme "
                                 "cut-generating functions on the 1/q grid")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("search", help="run one of the three search modes")
    p.add_argument("--mode", required=True,
                   choices=["vertex-filter", "heuristic", "combined"])
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--f", required=True, metavar="P/Q")
    p.add_argument("--slopes", type=int, required=True, metavar="K")
    p.add_argument("--threshold", type=int, default=11,
                   help="expected-dimension stop for combined mode")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--epsilon", default="1/4", metavar="P/Q",
                       help="additivity margin for branching (default 1/4)")
    group.add_argument("--exact", action="store_true",
                       help="margin 1/10^ceil(q/4); loses no extreme function "
                       "only if det^4 <= 10^q for every basis, which "
                       "'groupcut bounds' samples but does not prove")
    p.add_argument("--workers", type=int, default=1, metavar="W")
    p.add_argument("--out", metavar="DIR",
                   help="also write one file per result plus index.jsonl")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("test", help="print the extremality certificate")
    p.add_argument("--file", required=True, metavar="FN")
    p.add_argument("--oversampling", type=int, metavar="M",
                   help="also run the finite vertex test at grid m*q")
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("vertices",
                       help="list the minimal-function polytope vertices")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--f", required=True, metavar="P/Q")
    p.add_argument("--triple-system", action="store_true",
                   help="use the three-term subadditivity form")
    p.add_argument("--no-redund", action="store_true",
                   help="skip redundancy removal before enumerating")
    p.set_defaults(func=_cmd_vertices)

    p = sub.add_parser("emit-mip", help="write the k-slope model as an LP file")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--f", required=True, metavar="P/Q")
    p.add_argument("--slopes", type=int, required=True, metavar="K")
    p.add_argument("--maxstep", type=int, default=2)
    p.add_argument("--m", type=int, default=4,
                   help="strictness denominator: margins are 1/m")
    p.add_argument("--type", default="standard",
                   choices=["standard", "fulldim", "fulldim_covers"])
    p.add_argument("--out", default=".", metavar="PATH",
                   help="file or directory (canonical name appended)")
    p.set_defaults(func=_cmd_emit_mip)

    p = sub.add_parser("emit-mip-2q",
                       help="LP file with one reflection pair pinned uncovered")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--f", required=True, metavar="P/Q")
    p.add_argument("--a", required=True, metavar="P/Q",
                   help="left endpoint of the pinned uncovered interval")
    p.add_argument("--slopes", type=int, required=True, metavar="K")
    p.add_argument("--maxstep", type=int, default=2)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--out", default=".", metavar="PATH")
    p.set_defaults(func=_cmd_emit_mip_2q)

    p = sub.add_parser("refind",
                       help="rationalize a solver solution into a function")
    p.add_argument("--sol", required=True, metavar="FILE")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--f", required=True, metavar="P/Q")
    p.set_defaults(func=_cmd_refind)

    p = sub.add_parser("pattern",
                       help="extreme functions from the slope-block families")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--slopes", type=int, required=True, metavar="K")
    p.add_argument("--out", metavar="DIR")
    p.set_defaults(func=_cmd_pattern)

    p = sub.add_parser("plot", help="draw a function's painting as SVG")
    p.add_argument("--file", required=True, metavar="FN")
    p.add_argument("--out", required=True, metavar="SVG")
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("bounds",
                       help="halving-sequence determinants and bound checks")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--f", metavar="P/Q")
    p.add_argument("--samples", type=int, default=200,
                   help="random bases per f for the upper-bound check")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bounds)

    return parser


def run(argv):
    """Execute one invocation; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def main(argv=None):
    sys.exit(run(sys.argv[1:] if argv is None else argv))
