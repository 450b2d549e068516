"""Command-line frontend: samplers, products, membership, exact enumeration
and concentration sweeps, all seed-reproducible.

Data goes to --out (default stdout); diagnostics go to stderr.  Exit codes:
0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields

from .blockmat import BlockSpec, _read_json, embed, load_source
from .cosets import FAMILY_KINDS, CosetTarget, GroupFamily, _check_group, circ_N, circ_infinite
from .experiments import (
    ExperimentConfig,
    run_block_decay,
    run_concentration,
    write_report,
    write_text,
)
from .geometry import sym_membership
from .haar import RandomStream, _draw
from .hypergroup_exact import _check_budget, exact_convolution

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract wants config errors -> 1
    def error(self, message):
        raise ValueError(message)


def _cmd_sample(args) -> int:
    if args.dim < 1:
        raise ValueError(f"--dim must be a positive integer; got {args.dim}")
    mat = _draw(args.kind, args.dim, RandomStream(args.seed))
    write_text(json.dumps(mat.to_json_dict()) + "\n", args.out)
    return 0


def _cmd_product(args) -> int:
    spec = BlockSpec(args.alpha, args.k, args.k if args.N is None else args.N, args.m)
    g = load_source(args.g, spec.window)
    h = load_source(args.h, spec.window)
    if args.N is None:
        if args.m != 1:
            raise ValueError("the size-stable product needs m=1; pass --N for the finite product")
        _check_group(g, h, args.family)
        rep = circ_infinite(g, h, alpha=args.alpha)
    else:
        fam = GroupFamily(args.family, spec)
        rep = circ_N(g, h, fam).representative
    write_text(json.dumps(rep.to_json_dict()) + "\n", args.out)
    return 0


def _cmd_membership(args) -> int:
    spec = BlockSpec(args.alpha, args.k, args.N, args.m)
    fam = GroupFamily("symmetric", spec)
    x = load_source(args.x, spec.dim)
    rep = load_source(args.target, spec.dim)
    verdict = sym_membership(x, CosetTarget(rep, fam))
    write_text(("true" if verdict else "false") + "\n", args.out)
    return 0


def _cmd_exact_sym(args) -> int:
    spec = BlockSpec(args.alpha, args.k, args.N, args.m)
    fam = GroupFamily("symmetric", spec)
    _check_budget(spec)  # before g and h are built at full size

    def load(src):
        elem = load_source(src, (spec.window, spec.dim))
        return elem if elem.dim == spec.dim else embed(elem, spec)

    g = load(args.g)
    h = load(args.h)
    dist = exact_convolution(g, h, fam)
    write_text(json.dumps(dist.to_json_dict(), indent=2) + "\n", args.out)
    return 0


def _cmd_block_decay(args) -> int:
    rows = run_block_decay(args.k, args.N, args.samples, args.seed)
    write_report(rows, args.out, args.format)
    return 0


def _cmd_concentration(args) -> int:
    data = {}
    if args.config is not None:
        data = _read_json(args.config, "config")
        if not isinstance(data, dict):
            raise ValueError(f"config {args.config} must hold a JSON object; "
                             f"got {type(data).__name__}")
    overrides = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)}
    data.update({key: val for key, val in overrides.items() if val is not None})
    if data.get("seed") is None:
        raise ValueError("concentration needs an explicit --seed (or a seed in the config)")
    report = run_concentration(ExperimentConfig.from_json_dict(data))
    write_report(report, args.out, args.format)
    return 0


@functools.cache
def _build_parser() -> _Parser:
    # built once per process: parsing leaves no state on the parser, and every
    # parse_args call starts a fresh namespace, append lists included
    parser = _Parser(prog="cosetlab",
                     description="Double-coset products and concentration experiments.")
    sub = parser.add_subparsers(dest="command", metavar="subcommand")
    parser.commands = sub.choices  # subcommand name -> its parser, for main's one pass

    # the block shape flags of product, membership and exact-sym
    shape = argparse.ArgumentParser(add_help=False)
    shape.add_argument("--alpha", type=int, required=True)
    shape.add_argument("--k", type=int, required=True)
    shape.add_argument("--m", type=int, default=1)

    def add(name, fn, help_, example, parents=()):
        p = sub.add_parser(name, help=help_, epilog=f"example: {example}", parents=parents,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.set_defaults(fn=fn)
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        return p

    p = add("sample", _cmd_sample, "emit one Haar/uniform group element as matrix JSON",
            "cosetlab sample --kind orthogonal --dim 4 --seed 7")
    p.add_argument("--kind", choices=("orthogonal", "unitary", "permutation"), required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, required=True, help="required: reproducibility by default")

    p = add("product", _cmd_product, "emit a product representative",
            'cosetlab product --family symmetric --alpha 1 --k 1 --N 3 --g "(1 2)" --h "(1 2)"',
            [shape])
    p.add_argument("--family", choices=FAMILY_KINDS, required=True)
    p.add_argument("--N", type=int, default=None,
                   help="tail size; omit for the size-stable corner product")
    p.add_argument("--g", required=True, help="'identity', a permutation, or a matrix JSON path")
    p.add_argument("--h", required=True)

    p = add("membership", _cmd_membership, "exact symmetric double-coset membership",
            'cosetlab membership --alpha 1 --k 1 --N 3 --x identity --target "(1 2)"', [shape])
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--target", required=True, help="full-size coset representative")

    p = add("exact-sym", _cmd_exact_sym, "exact convolution atoms for the symmetric family",
            'cosetlab exact-sym --alpha 1 --k 1 --N 3 --g "(1 2)" --h "(1 2)"', [shape])
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--g", required=True, help="window- or full-size matrix source")
    p.add_argument("--h", required=True)

    p = add("block-decay", _cmd_block_decay, "corner-block norm decay of Haar orthogonal matrices",
            "cosetlab block-decay --k 2 --N 20 --N 200 --samples 200 --seed 3")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", type=int, action="append", required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = add("concentration", _cmd_concentration, "Monte Carlo concentration sweep",
            "cosetlab concentration --family unitary_orthogonal --alpha 1 --k 1 --m 1 "
            "--N 8 --N 32 --epsilon 0.4 --samples 50 --seed 42")
    p.add_argument("--config", default=None, help="JSON config; inline flags win")
    p.add_argument("--family", choices=FAMILY_KINDS)
    p.add_argument("--alpha", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--N", dest="N_list", metavar="N", type=int, action="append")
    p.add_argument("--epsilon", dest="epsilon_list", metavar="EPSILON", type=float,
                   action="append")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--g", dest="g_spec", metavar="G", help="matrix source for g")
    p.add_argument("--h", dest="h_spec", metavar="H")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    """Run one command line (default: sys.argv[1:]) and return its exit code.

    An argv whose first word names a subcommand is parsed once, by that
    subcommand's parser, which gives the same namespace (less ``command``),
    output and errors as the full parser; any other argv, empty, help or an
    unknown command, goes through the full parser."""
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        sub = parser.commands.get(argv[0]) if argv else None
        args = parser.parse_args(argv) if sub is None else sub.parse_args(argv[1:])
        if getattr(args, "fn", None) is None:
            parser.print_help(sys.stderr)
            return 1
        return args.fn(args)
    except ValueError as exc:  # bad usage, config or inputs, found before or while running
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures: I/O, memory, numerical
        # MemoryError() and some others carry no text: name the type instead
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
