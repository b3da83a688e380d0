"""Command-line front end.

Subcommands: solve, gen, maxreach, scan, verify.  Exit status 0 means
success, 1 a negative mathematical finding (failed verification, oracle
disagreement, scan failures), 2 malformed input or usage.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .cover import (
    InternalInconsistencyError,
    check_cover,
    format_cover,
    parse_cover,
    solve,
)
from .extremal import brute_max_2reachable, build_sharp_example, max_2reachable
from .graphs import (
    BLUE,
    RED,
    ColoredCocktail,
    GraphFormatError,
    all_red,
    parse,
    parse_decimal,
    random_coloring,
    serialize,
    to_compact,
    vertex_text,
)
from .lab import scan


def _read_graph(path: str) -> ColoredCocktail:
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    return parse(text)


def _cmd_solve(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    cov = solve(g)
    sys.stdout.write(format_cover(cov))
    if args.certificate:
        print(f"certificate: {cov.certificate.describe()}")
    if args.verify:
        reason = check_cover(g, cov)
        if reason is not None:
            print(f"verify: FAILED ({reason})")
            return 1
        print("verify: ok")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.sharp is not None:
        g = build_sharp_example(args.sharp)
    elif args.all_red is not None:
        g = all_red(args.all_red)
    else:
        n, seed = args.random
        g = random_coloring(n, seed)
    if args.compact:
        print(to_compact(g))
    else:
        sys.stdout.write(serialize(g))
    return 0


def _cmd_maxreach(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    colors = (RED, BLUE) if args.color == "both" else (int(args.color),)
    status = 0
    for c in colors:
        size, wit = max_2reachable(g, c)
        print(f"color {c}: max 2-reachable size {size}, witness {vertex_text(wit)}")
        if args.oracle:
            osize = brute_max_2reachable(g, c)
            if osize == size:
                print(f"color {c}: oracle size {osize}, agrees")
            else:
                print(f"color {c}: oracle size {osize}, DISAGREES")
                status = 1
    return status


def _parse_scan_mode(text: str) -> tuple[str, int | None, int | None]:
    if text == "exhaustive":
        return "exhaustive", None, None
    fields = text.split(":")
    if fields[0] == "random" and len(fields) == 3:
        seed_text = fields[2]
        if seed_text.startswith("seed"):
            seed_text = seed_text[4:]
        try:
            return ("random", parse_decimal(fields[1]),
                    parse_decimal(seed_text))
        except ValueError:
            pass
    raise GraphFormatError(
        f"mode must be 'exhaustive' or 'random:SAMPLES:SEED', got {text!r}")


def _cmd_scan(args: argparse.Namespace) -> int:
    mode, samples, seed = _parse_scan_mode(args.mode)
    report = scan(args.n, mode=mode, check=args.check, samples=samples,
                  seed=seed, workers=args.workers)
    sys.stdout.write(report.to_text())
    if args.out:
        Path(args.out).write_text(report.machine_text())
    return 0 if report.ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    cover = parse_cover(Path(args.cover).read_text(), g.n)
    reason = check_cover(g, cover, require_diam2=args.diam2)
    if reason is not None:
        print(f"invalid: {reason}")
        return 1
    print("ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partycover",
        description="Certified 2-reachable covers of 2-edge-colored "
                    "cocktail party graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="cover a coloring by two monochromatic "
                                     "2-reachable sets")
    p.add_argument("graph", nargs="?", default="-",
                   help="graph file, or - for stdin (default)")
    p.add_argument("--verify", action="store_true",
                   help="re-check the cover independently")
    p.add_argument("--certificate", action="store_true",
                   help="describe which structural branch produced the cover")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("gen", help="emit a coloring in the text format")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--sharp", type=parse_decimal, metavar="N",
                     help="the extremal coloring with both maxima equal to N/2")
    grp.add_argument("--random", type=parse_decimal, nargs=2,
                     metavar=("N", "SEED"),
                     help="seeded uniform coloring")
    grp.add_argument("--all-red", type=parse_decimal, metavar="N",
                     help="every edge color 1")
    p.add_argument("--compact", action="store_true",
                   help="emit the one-line n:HEX form instead")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("maxreach", help="largest monochromatic 2-reachable "
                                        "subset(s)")
    p.add_argument("graph", nargs="?", default="-")
    p.add_argument("--color", choices=("1", "2", "both"), default="both")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against subset enumeration (n <= 16)")
    p.set_defaults(func=_cmd_maxreach)

    p = sub.add_parser("scan", help="solve/verify or diameter-2-search a "
                                    "whole coloring space")
    p.add_argument("--n", type=parse_decimal, required=True)
    p.add_argument("--mode", default="exhaustive",
                   help="'exhaustive' (default) or 'random:SAMPLES:SEED'")
    p.add_argument("--check", choices=("reach", "diam2", "both"),
                   default="reach")
    p.add_argument("--workers", type=parse_decimal, default=1)
    p.add_argument("--out", metavar="FILE",
                   help="also write the machine-readable report here")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("verify", help="check a cover file against a graph file")
    p.add_argument("graph")
    p.add_argument("cover")
    p.add_argument("--diam2", action="store_true",
                   help="require the stronger in-set diameter-2 property")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 1
    except GraphFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
