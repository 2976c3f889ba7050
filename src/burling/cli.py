"""Command line interface.

Exit codes: 0 success or positive answer, 1 negative answer (not a Burling
graph, or verification found violations), 2 input or usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core import verify_axioms
from .errors import InputError
from .frames import Frame, FrameFamily, build_frames, verify_strict
from .generator import GeneratorConfig, gen_burling
from .io import (
    dump_burling_json,
    dump_frames_json,
    frame_records,
    load_burling_json,
    load_frames_json,
    parse_graph_text,
    parse_weights,
)
from .mis import max_weight_independent_set
from .oracles import brute_force_mwis, exhaustive_recognize
from .recognition import recognize
from .svg import render_svg


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror or e}")


def _graph_weights(args):
    g = parse_graph_text(_read(args.graph))
    names = [str(v) for v in range(g.n)]
    by_name = parse_weights(_read(args.weights), names)
    return g, {v: by_name[str(v)] for v in range(g.n)}


def _print_mis(result) -> int:
    if result is None:
        print("NOT_BURLING")
        return 1
    chosen, total = result
    print(total)
    print(" ".join(str(v) for v in sorted(chosen)))
    return 0


def _print_witness(b) -> int:
    if b is None:
        print("NOT_BURLING")
        return 1
    print(dump_burling_json(b))
    return 0


def _print_report(report) -> int:
    for line in report.lines():  # ["OK"] when the report is clean
        print(line)
    return 0 if report.ok else 1


def cmd_recognize(args) -> int:
    return _print_witness(recognize(parse_graph_text(_read(args.graph))))


def cmd_frames(args) -> int:
    b = load_burling_json(_read(args.setfile))
    report = verify_axioms(b)
    if not report.ok:
        raise InputError(f"not a valid Burling set: {report.lines()[0]}")
    print(dump_frames_json(build_frames(b)))
    return 0


def cmd_mis(args) -> int:
    g, weights = _graph_weights(args)
    return _print_mis(max_weight_independent_set(g, weights))


def cmd_verify_set(args) -> int:
    return _print_report(verify_axioms(load_burling_json(_read(args.setfile))))


def cmd_verify_frames(args) -> int:
    records = frame_records(_read(args.framesfile))
    try:
        family = FrameFamily(Frame(*rec) for rec in records)
    except InputError as e:
        # a coordinate that is not an integer is an input error, not a
        # failed verification
        if not all(type(v) is int for rec in records for v in rec[1:]):
            raise
        print(str(e))
        return 1
    return _print_report(verify_strict(family))


def cmd_gen(args) -> int:
    cfg = GeneratorConfig(
        seed=args.seed,
        target_size=args.n,
        probe_bias=args.probe_bias,
        join_mix=args.join_mix,
    )
    print(dump_burling_json(gen_burling(cfg)))
    return 0


def cmd_svg(args) -> int:
    family = load_frames_json(_read(args.framesfile))
    try:
        Path(args.output).write_text(render_svg(family))
    except OSError as e:
        raise InputError(f"cannot write {args.output}: {e.strerror or e}")
    return 0


def cmd_oracle_recognize(args) -> int:
    return _print_witness(exhaustive_recognize(parse_graph_text(_read(args.graph))))


def cmd_oracle_mis(args) -> int:
    g, weights = _graph_weights(args)
    return _print_mis(brute_force_mwis(g, weights))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="burling",
        description="Recognition, frame representations, and exact weighted "
        "independent sets for Burling graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recognize", help="decide whether a graph is a Burling graph")
    p.add_argument("graph", help="graph text file")
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("frames", help="build a strict frame family for a Burling set")
    p.add_argument("setfile", help="Burling set JSON file")
    p.set_defaults(func=cmd_frames)

    p = sub.add_parser("mis", help="maximum-weight independent set of a Burling graph")
    p.add_argument("graph", help="graph text file")
    p.add_argument("--weights", required=True, help="weights file")
    p.set_defaults(func=cmd_mis)

    p = sub.add_parser("verify", help="check a Burling set or frame family")
    vsub = p.add_subparsers(dest="kind", required=True)
    pv = vsub.add_parser("set", help="check the Burling set axioms")
    pv.add_argument("setfile")
    pv.set_defaults(func=cmd_verify_set)
    pv = vsub.add_parser("frames", help="check strictness of a frame family")
    pv.add_argument("framesfile")
    pv.set_defaults(func=cmd_verify_frames)

    p = sub.add_parser("gen", help="generate a random Burling set")
    p.add_argument("--n", type=int, required=True, help="number of elements")
    p.add_argument("--seed", type=int, required=True, help="random seed")
    p.add_argument("--probe-bias", type=float, default=0.5)
    p.add_argument("--join-mix", type=float, default=0.5)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("svg", help="render a frame family to SVG")
    p.add_argument("framesfile", help="frames JSON file")
    p.add_argument("-o", "--output", required=True, help="output SVG path")
    p.set_defaults(func=cmd_svg)

    p = sub.add_parser("oracle", help="brute-force reference answers")
    osub = p.add_subparsers(dest="kind", required=True)
    po = osub.add_parser("recognize", help="exhaustive recognition, n <= 8")
    po.add_argument("graph")
    po.set_defaults(func=cmd_oracle_recognize)
    po = osub.add_parser("mis", help="brute-force MWIS, n <= 24")
    po.add_argument("graph")
    po.add_argument("--weights", required=True)
    po.set_defaults(func=cmd_oracle_mis)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
