"""The table-driven argument parser (cli._COMMANDS) against the parser
declared one block per subcommand that it replaced (tests/cli_parser.py):
help and usage text, parse results and refusals, and the handler main runs."""

import argparse

import pytest

from rescoh import cli
from cli_parser import build_parser as oracle_parser


def subparsers(ap: argparse.ArgumentParser) -> dict:
    (action,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_help_and_usage_text_are_the_oracles():
    new, old = cli._build_parser(), oracle_parser()
    assert new.format_help() == old.format_help()
    assert new.format_usage() == old.format_usage()
    new_subs, old_subs = subparsers(new), subparsers(old)
    assert list(new_subs) == list(old_subs)
    for name, sp in old_subs.items():
        assert new_subs[name].format_help() == sp.format_help(), name
        assert new_subs[name].format_usage() == sp.format_usage(), name


VALID = [
    ["validate", "a.alg"],
    ["cohomology", "a.alg", "--degree", "2"],
    ["cohomology", "a.alg", "--degree", "0", "--module", "adjoint", "--classical"],
    ["cohomology", "--degree=3", "a.alg", "--classical"],
    ["dims", "a.alg"],
    ["derivations", "a.alg"],
    ["resolve", "a.alg", "--kmax", "2"],
    ["deform-check", "a.alg", "--cocycle", "c.coc"],
    ["identities", "--p", "5"],
    ["witt", "--p", "3"],
    ["witt", "--p", "3", "--emit", "out.alg"],
    ["infer", "a.alg"],
]

REFUSED = [
    [], ["nosuch"], ["nosuch", "a.alg"], ["--help"], ["-h"], ["--version"],
    ["validate"], ["validate", "a.alg", "extra"], ["dims"], ["derivations"], ["infer"],
    ["cohomology", "a.alg"], ["cohomology", "--degree", "1"],
    ["cohomology", "a.alg", "--degree", "-1"], ["cohomology", "a.alg", "--degree", "x"],
    ["cohomology", "a.alg", "--degree", "1", "--classical", "yes"],
    ["resolve", "a.alg"], ["resolve", "a.alg", "--kmax", "-2"],
    ["deform-check", "a.alg"], ["deform-check", "--cocycle", "c.coc"],
    ["identities"], ["identities", "--p", "three"],
    ["witt"], ["witt", "--p", "3", "--emit"],
] + [[name, "--help"] for name in cli._COMMANDS]


def outcome(parser: argparse.ArgumentParser, argv: list[str], capsys):
    """What parse_args makes of argv: the namespace or the exit code, and
    what it printed."""
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    out = capsys.readouterr()
    return result, out.out, out.err


@pytest.mark.parametrize("argv", VALID + REFUSED, ids=" ".join)
def test_parse_results_and_refusals_are_the_oracles(capsys, argv):
    new = outcome(cli._build_parser(), argv, capsys)
    old = outcome(oracle_parser(), argv, capsys)
    if isinstance(old[0], dict):
        del old[0]["func"]
    assert new == old
    assert isinstance(new[0], dict) == (argv in VALID)


@pytest.mark.parametrize("argv", VALID, ids=" ".join)
def test_main_runs_the_oracles_handler(capsys, monkeypatch, argv):
    expected = vars(oracle_parser().parse_args(argv))
    handler = expected.pop("func").__name__
    ran = []
    for name in vars(cli):
        if name.startswith("_cmd_"):
            monkeypatch.setattr(cli, name, lambda args, name=name: (
                ran.append((name, vars(args))) or ({}, [], [b""])))
    assert cli.main(argv) == 0
    assert ran == [(handler, expected)]
    capsys.readouterr()


def test_each_subcommand_has_one_handler_and_each_handler_a_subcommand():
    handlers = {name for name in vars(cli) if name.startswith("_cmd_")}
    commands = {"_cmd_" + name.replace("-", "_") for name in cli._COMMANDS}
    assert commands == handlers and len(cli._COMMANDS) == len(handlers)
