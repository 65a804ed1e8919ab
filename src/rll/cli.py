"""Command-line entry point.

Exit codes: 0 = positive/agreement/none-found, 1 = negative/counterexample/
rejected, 2 = usage or input error. Output is deterministic for identical
invocations (fixed orderings, fixed default seeds).

``COMMANDS`` lists each subcommand once. A command line that starts with a
subcommand's name is read by that subcommand's parser alone. Everything
else (no arguments, ``-h``, ``--version``, an unknown command, an option
before the command, or arguments the subcommand leaves over) goes to
``build_parser()``, the parser with every subcommand, so help and usage
errors read the same either way.

A subcommand's parser is built once per process, on first use, and reused
by every later command line. Only a process that runs several command
lines gains by it (a Python caller of ``main``, the test suite, the
benchmark), where building the parser took about a third of a small
``member`` query; a one-shot ``rll`` still builds its one parser once, so
it runs no faster and frees nothing sooner. Reuse changes no answer. ``parse_known_args`` makes a
fresh namespace on each call and leaves the parser as it was; help and
usage widths are read when a formatter is made, at format time, not when
the parser is built; and no argument has a mutable default.
``build_parser()`` still builds its whole tree on each call.
"""

from __future__ import annotations

import argparse
import functools
import operator
import sys

from . import __version__, algebra, calculus, corpus
from .closure import check_printed, format_graph, graph_dot, occurrence_graph
from .game import equiv_bounded, inclusion_bounded, member_game
from .semantics import (lasso_normalize, member_oracle, parse_lasso,
                        print_lasso, quoted)
from .syntax import (Alphabet, RllError, parse_expr_file, parse_formula_file,
                     print_expr)


class CliError(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise CliError(f"{path}: {err.strerror}")
    except UnicodeDecodeError as err:
        raise CliError(f"{path}: not UTF-8 text ({err.reason} at byte "
                       f"{err.start})")


def _load(parse_file, path: str, args):
    """Read a self-contained expression or formula file with ``parse_file``."""
    try:
        ab, term = parse_file(_read(path), require_closed=True)
    except RllError as err:
        raise CliError(f"{path}: {err}")
    _check_alphabet_flags(path, ab, args)
    return ab, term


def _check_alphabet_flags(path: str, ab: Alphabet, args):
    """Expression files are self-contained; a flag must agree, not override."""
    if getattr(args, "alphabet", None):
        if ab.props is not None or ab.letters != tuple(args.alphabet.split()):
            raise CliError(f"{path}: alphabet flag does not match file header")
    if getattr(args, "props", None):
        if ab.props != tuple(args.props.split()):
            raise CliError(f"{path}: props flag does not match file header")


def _lasso(text: str, ab: Alphabet):
    try:
        return parse_lasso(text, ab)
    except RllError as err:
        raise CliError(f"lasso {quoted(text)}: {err}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_parse(args) -> int:
    parse_file = parse_formula_file if args.formula else parse_expr_file
    ab, term = _load(parse_file, args.file, args)
    print(ab.header())
    print(print_expr(term))
    return 0


def cmd_closure(args) -> int:
    ab, e = _load(parse_expr_file, args.file, args)
    print(format_graph(e, occurrence_graph(e, ab)))
    return 0


def cmd_apa_dot(args) -> int:
    ab, e = _load(parse_expr_file, args.file, args)
    sys.stdout.write(graph_dot(occurrence_graph(e, ab), ab))
    return 0


def cmd_member(args) -> int:
    ab, e = _load(parse_expr_file, args.file, args)
    w = _lasso(args.lasso, ab)
    # the game solves on the normal form, the oracle reads w as typed
    if args.via == "game":
        res = member_game(e, lasso_normalize(w))
        print("true" if res else "false")
    elif args.via == "oracle":
        res = member_oracle(e, w)
        print("true" if res else "false")
    else:
        g = member_game(e, lasso_normalize(w))
        o = member_oracle(e, w)
        if g != o:
            raise CliError(f"game and oracle disagree (game={g}, oracle={o})")
        res = g
        print(("true" if res else "false") + " (game=oracle)")
    return 0 if res else 1


def cmd_complement(args) -> int:
    ab, e = _load(parse_expr_file, args.file, args)
    print(ab.header())
    print(print_expr(algebra.complement(e, ab)))
    return 0


def cmd_translate(args) -> int:
    if args.to == "ltl":
        ab, e = _load(parse_expr_file, args.file, args)
        if ab.props is None:
            raise CliError(f"{args.file}: translation needs a props header")
        print(ab.header())
        print(print_expr(algebra.to_multl(e, ab)))
    else:
        ab, phi = _load(parse_formula_file, args.file, args)
        e = algebra.to_rll(phi, ab)  # O's body, shared, prints once a letter
        check_printed("translation", (e,))
        print(ab.header())
        print(print_expr(e))
    return 0


def _two_exprs(args):
    ab1, e = _load(parse_expr_file, args.left, args)
    ab2, f = _load(parse_expr_file, args.right, args)
    if ab1 != ab2:
        raise CliError("the two expression files declare different alphabets")
    return ab1, e, f


def _counterexample(e, f, w, separates) -> int:
    """Print the search's counterexample w once the fixpoint oracle agrees
    that its memberships in e and f satisfy ``separates``, as
    ``member --via both`` re-checks the game."""
    in_e, in_f = member_oracle(e, w), member_oracle(f, w)
    if not separates(in_e, in_f):
        raise CliError(f"game and oracle disagree on the counterexample "
                       f"{print_lasso(w)} (oracle: left={in_e}, "
                       f"right={in_f})")
    print(f"counterexample: {print_lasso(w)}")
    return 1


def cmd_equiv(args) -> int:
    ab, e, f = _two_exprs(args)
    w = equiv_bounded(e, f, ab, args.max_prefix, args.max_period)
    if w is None:
        print(f"no difference found up to bounds "
              f"(max-prefix={args.max_prefix}, max-period={args.max_period})")
        return 0
    return _counterexample(e, f, w, operator.ne)


def cmd_incl(args) -> int:
    ab, e, f = _two_exprs(args)
    w = inclusion_bounded(e, f, ab, args.max_prefix, args.max_period)
    if w is None:
        print(f"no inclusion counterexample up to bounds "
              f"(max-prefix={args.max_prefix}, max-period={args.max_period})")
        return 0
    return _counterexample(e, f, w, lambda a, b: a and not b)


def cmd_check(args) -> int:
    try:
        d = calculus.load_proof_file(args.file)
    except (OSError, ValueError, RllError) as err:
        raise CliError(f"{args.file}: {err}")
    verdict = calculus.check_derivation(d)
    if verdict.accepted:
        print("accepted")
        return 0
    print(f"rejected at step {verdict.step}: {verdict.reason}")
    return 1


CURATED = [
    # (expression text, lasso text, expected)
    ("nu X. mu Y. (a.X + b.Y)", "(ab)", True),
    ("nu X. mu Y. (a.X + b.Y)", "(ba)", True),
    ("nu X. mu Y. (a.X + b.Y)", "b(ab)", True),
    ("nu X. mu Y. (a.X + b.Y)", "a(b)", False),
    ("nu X. mu Y. (a.X + b.Y)", "(b)", False),
    ("mu X. (b.X + a.X + a.(nu Y. a.Y))", "(a)", True),
    ("mu X. (b.X + a.X + a.(nu Y. a.Y))", "ab(a)", True),
    ("mu X. (b.X + a.X + a.(nu Y. a.Y))", "(ab)", False),
    ("mu X. (b.X + a.X + a.(nu Y. a.Y))", "(b)", False),
    ("(nu X. mu Y. (a.X + b.Y)) & (mu X. (b.X + a.X + a.(nu Y. a.Y)))",
     "bb(a)", True),
    ("(nu X. mu Y. (a.X + b.Y)) & (mu X. (b.X + a.X + a.(nu Y. a.Y)))",
     "(ab)", False),
    ("(nu X. mu Y. (a.X + b.Y)) & (mu X. (b.X + a.X + a.(nu Y. a.Y)))",
     "(b)", False),
]


def cmd_selftest(args) -> int:
    from .syntax import parse_expr

    if args.pairs < 0:
        raise CliError(f"pairs must be at least 0, not {args.pairs}")
    ab = Alphabet.plain("a", "b")
    failures = 0

    for text, lasso_text, expected in CURATED:
        e = parse_expr(text, ab)
        w = parse_lasso(lasso_text, ab)
        got_g = member_game(e, w)
        got_o = member_oracle(e, w)
        ok = got_g == got_o == expected
        failures += 0 if ok else 1
        print(f"[{'ok' if ok else 'FAIL'}] curated {text!r} on {lasso_text}: "
              f"game={got_g} oracle={got_o} expected={expected}")

    rng_checked = 0
    agree = True
    xor_ok = True
    for e, w in corpus.agreement_pairs(args.seed, args.pairs):
        g = member_game(e, w)
        o = member_oracle(e, w)
        if g != o:
            agree = False
            print(f"[FAIL] oracle disagreement on {print_expr(e)} / "
                  f"{print_lasso(w)}: game={g} oracle={o}")
        if member_game(algebra.complement(e, w.alphabet), w) == g:
            xor_ok = False
            print(f"[FAIL] complement law broken on {print_expr(e)} / "
                  f"{print_lasso(w)}")
        rng_checked += 1
    print(f"[{'ok' if agree else 'FAIL'}] game/oracle agreement on "
          f"{rng_checked} seeded pairs (seed={args.seed})")
    print(f"[{'ok' if xor_ok else 'FAIL'}] complement law on "
          f"{rng_checked} seeded pairs")
    failures += (0 if agree else 1) + (0 if xor_ok else 1)

    print("selftest: " + ("all checks passed" if failures == 0
                          else f"{failures} check(s) failed"))
    return 0 if failures == 0 else 1


def _common(p):
    p.add_argument("--alphabet", help="expected plain alphabet, e.g. 'a b'")
    p.add_argument("--props", help="expected proposition basis, e.g. 'P Q'")


def _file_args(p):
    p.add_argument("file")
    _common(p)


def _parse_args(p):
    p.add_argument("file")
    p.add_argument("--formula", action="store_true",
                   help="parse a muLTL formula file instead")
    _common(p)


def _member_args(p):
    p.add_argument("file")
    p.add_argument("lasso")
    p.add_argument("--via", choices=["game", "oracle", "both"], default="both")
    _common(p)


def _oracle_member_args(p):
    p.add_argument("file")
    p.add_argument("lasso")
    _common(p)


def _translate_args(p):
    p.add_argument("--to", choices=["ltl", "rll"], required=True)
    _file_args(p)


def _search_args(p):
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--max-prefix", type=int, default=2)
    p.add_argument("--max-period", type=int, default=3)
    _common(p)


def _check_args(p):
    p.add_argument("file")


def _selftest_args(p):
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--pairs", type=int, default=300)


# name -> (help, argument adder, defaults); an adder adds its arguments in
# the order the usage line lists them
COMMANDS = {
    "parse": ("parse and reprint an expression file", _parse_args,
              {"fn": cmd_parse}),
    "closure": ("print the occurrence graph", _file_args,
                {"fn": cmd_closure}),
    "apa-dot": ("print the automaton in DOT format", _file_args,
                {"fn": cmd_apa_dot}),
    "member": ("lasso membership (game and/or oracle)", _member_args,
               {"fn": cmd_member}),
    "oracle-member": ("lasso membership via the fixpoint oracle",
                      _oracle_member_args, {"fn": cmd_member, "via": "oracle"}),
    "complement": ("print the complement expression", _file_args,
                   {"fn": cmd_complement}),
    "translate": ("translate between RLL and muLTL", _translate_args,
                  {"fn": cmd_translate}),
    "equiv": ("bounded equivalence search", _search_args, {"fn": cmd_equiv}),
    "incl": ("bounded inclusion search", _search_args, {"fn": cmd_incl}),
    "check": ("check a proof file", _check_args, {"fn": cmd_check}),
    "selftest": ("run the built-in example suites", _selftest_args,
                 {"fn": cmd_selftest}),
}


def _fill(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    _help, add_args, defaults = COMMANDS[name]
    add_args(p)
    p.set_defaults(**defaults)
    return p


def build_parser() -> argparse.ArgumentParser:
    """The full parser: ``rll`` with every subcommand."""
    ap = argparse.ArgumentParser(
        prog="rll",
        description="omega-regular languages as right-linear lattice "
                    "mu/nu-expressions")
    ap.add_argument("--version", action="version", version=f"rll {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_, _add_args, _defaults) in COMMANDS.items():
        _fill(sub.add_parser(name, help=help_), name)
    return ap


@functools.cache
def _subparser(name: str) -> argparse.ArgumentParser:
    """The parser of subcommand ``name``, built on first use."""
    return _fill(argparse.ArgumentParser(prog=f"rll {name}"), name)


def parse_args(argv) -> argparse.Namespace:
    """The namespace ``build_parser().parse_args(argv)`` gives, or its exit.

    When ``argv`` starts with a subcommand, only that subcommand's parser
    reads it, built once per process by ``_subparser``. Reusing it is safe:
    ``parse_known_args`` returns a new namespace and does not change the
    parser, the help and usage width is read when a message is formatted,
    and no default is mutable. Anything the subcommand does not consume
    goes to the full parser, which reports it with the top-level usage; so
    does ``--=...`` before ``--``, which the top level rejects as an
    ambiguous ``--help``/``--version``.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    name = argv[0] if argv else None
    if name in COMMANDS:
        rest = argv[1:]
        plain = rest[:rest.index("--")] if "--" in rest else rest
        if not any(a.startswith("--=") for a in plain):
            args, extra = _subparser(name).parse_known_args(rest)
            if not extra:
                args.command = name
                return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, RllError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        # parsing and evaluation recurse once per level of nesting
        print("error: expression nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
