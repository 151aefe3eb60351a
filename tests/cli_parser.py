"""The rescoh argument parser declared one subparser block at a time.

Reference implementation of cli._build_parser as it stood before the
subcommands were declared in one table (cli._COMMANDS): nine copies of
one block, each naming its handler through set_defaults(func=...).  It
serves only as an oracle for the table-driven parser, whose help, usage
and parse results must equal these.
"""

import argparse

from rescoh import cli


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rescoh",
                                 description="restricted Lie algebra cohomology")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="axiom report for a definition file")
    sp.add_argument("file")
    sp.set_defaults(func=cli._cmd_validate)

    sp = sub.add_parser("cohomology", help="restricted and classical dimensions")
    sp.add_argument("file")
    sp.add_argument("--module", default="trivial",
                    help="module name from the file, or trivial/adjoint")
    sp.add_argument("--degree", type=cli._nonnegative_int, required=True)
    sp.add_argument("--classical", action="store_true",
                    help="classical cohomology only (any degree)")
    sp.set_defaults(func=cli._cmd_cohomology)

    sp = sub.add_parser("dims", help="cochain dimension formulas")
    sp.add_argument("file")
    sp.set_defaults(func=cli._cmd_dims)

    sp = sub.add_parser("derivations", help="restricted derivations vs H1")
    sp.add_argument("file")
    sp.set_defaults(func=cli._cmd_derivations)

    sp = sub.add_parser("resolve", help="abelian resolution homology")
    sp.add_argument("file")
    sp.add_argument("--kmax", type=cli._nonnegative_int, required=True)
    sp.set_defaults(func=cli._cmd_resolve)

    sp = sub.add_parser("deform-check", help="deformation vs cocycle predicate")
    sp.add_argument("file")
    sp.add_argument("--cocycle", required=True)
    sp.set_defaults(func=cli._cmd_deform_check)

    sp = sub.add_parser("identities", help="binomial identity families over GF(p)")
    sp.add_argument("--p", type=int, required=True)
    sp.set_defaults(func=cli._cmd_identities)

    sp = sub.add_parser("witt", help="built-in Witt algebra, optionally emitted")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--emit", metavar="PATH", default=None)
    sp.set_defaults(func=cli._cmd_witt)

    sp = sub.add_parser("infer", help="infer a p-operator from brackets")
    sp.add_argument("file")
    sp.set_defaults(func=cli._cmd_infer)
    return ap
