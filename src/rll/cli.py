"""Command-line entry point.

Exit codes: 0 = positive/agreement/none-found, 1 = negative/counterexample/
rejected, 2 = usage or input error. Output is deterministic for identical
invocations (fixed orderings, fixed default seeds).
"""

from __future__ import annotations

import argparse
import sys

from . import __version__, algebra, calculus, corpus
from .automaton import build_apa, export_dot
from .closure import closure_with_priorities, format_closure
from .game import equiv_bounded, inclusion_bounded, member_game
from .semantics import member_oracle, parse_lasso, print_lasso
from .syntax import (Alphabet, RllError, parse_expr_file, parse_formula_file,
                     print_expr, print_formula)


class CliError(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise CliError(f"{path}: {err.strerror}")


def _load_expr(path: str, args=None):
    try:
        ab, e = parse_expr_file(_read(path), require_closed=True)
    except RllError as err:
        raise CliError(f"{path}: {err}")
    _check_alphabet_flags(path, ab, args)
    return ab, e


def _load_formula(path: str, args=None):
    try:
        ab, phi = parse_formula_file(_read(path), require_closed=True)
    except RllError as err:
        raise CliError(f"{path}: {err}")
    _check_alphabet_flags(path, ab, args)
    return ab, phi


def _check_alphabet_flags(path: str, ab: Alphabet, args):
    """Expression files are self-contained; a flag must agree, not override."""
    if args is None:
        return
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
        raise CliError(f"lasso {text!r}: {err}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_parse(args) -> int:
    if args.formula:
        ab, phi = _load_formula(args.file, args)
        print(ab.header())
        print(print_formula(phi))
    else:
        ab, e = _load_expr(args.file, args)
        print(ab.header())
        print(print_expr(e))
    return 0


def cmd_closure(args) -> int:
    ab, e = _load_expr(args.file, args)
    print(format_closure(closure_with_priorities(e, ab)))
    return 0


def cmd_apa_dot(args) -> int:
    ab, e = _load_expr(args.file, args)
    sys.stdout.write(export_dot(build_apa(closure_with_priorities(e, ab))))
    return 0


def cmd_member(args) -> int:
    ab, e = _load_expr(args.file, args)
    w = _lasso(args.lasso, ab)
    if args.via == "game":
        res = member_game(e, w)
        print("true" if res else "false")
    elif args.via == "oracle":
        res = member_oracle(e, w)
        print("true" if res else "false")
    else:
        g = member_game(e, w)
        o = member_oracle(e, w)
        if g != o:
            raise CliError(f"game and oracle disagree (game={g}, oracle={o})")
        res = g
        print(("true" if res else "false") + " (game=oracle)")
    return 0 if res else 1


def cmd_oracle_member(args) -> int:
    ab, e = _load_expr(args.file, args)
    res = member_oracle(e, _lasso(args.lasso, ab))
    print("true" if res else "false")
    return 0 if res else 1


def cmd_complement(args) -> int:
    ab, e = _load_expr(args.file, args)
    print(ab.header())
    print(print_expr(algebra.complement(e, ab)))
    return 0


def cmd_translate(args) -> int:
    if args.to == "ltl":
        ab, e = _load_expr(args.file, args)
        if ab.props is None:
            raise CliError(f"{args.file}: translation needs a props header")
        print(ab.header())
        print(print_formula(algebra.to_multl(e, ab)))
    else:
        ab, phi = _load_formula(args.file, args)
        print(ab.header())
        print(print_expr(algebra.to_rll(phi, ab)))
    return 0


def _two_exprs(args):
    ab1, e = _load_expr(args.left, args)
    ab2, f = _load_expr(args.right, args)
    if ab1 != ab2:
        raise CliError("the two expression files declare different alphabets")
    return ab1, e, f


def cmd_equiv(args) -> int:
    ab, e, f = _two_exprs(args)
    cex = equiv_bounded(e, f, ab, args.max_prefix, args.max_period)
    if cex is None:
        print(f"no difference found up to bounds "
              f"(max-prefix={args.max_prefix}, max-period={args.max_period})")
        return 0
    print(f"counterexample: {print_lasso(cex.lasso)}")
    return 1


def cmd_incl(args) -> int:
    ab, e, f = _two_exprs(args)
    cex = inclusion_bounded(e, f, ab, args.max_prefix, args.max_period)
    if cex is None:
        print(f"no inclusion counterexample up to bounds "
              f"(max-prefix={args.max_prefix}, max-period={args.max_period})")
        return 0
    print(f"counterexample: {print_lasso(cex.lasso)}")
    return 1


def cmd_check(args) -> int:
    try:
        d = calculus.load_proof_file(args.file)
    except (OSError, ValueError, KeyError, RllError) as err:
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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rll",
        description="omega-regular languages as right-linear lattice "
                    "mu/nu-expressions")
    ap.add_argument("--version", action="version", version=f"rll {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--alphabet", help="expected plain alphabet, e.g. 'a b'")
        p.add_argument("--props", help="expected proposition basis, e.g. 'P Q'")

    p = sub.add_parser("parse", help="parse and reprint an expression file")
    p.add_argument("file")
    p.add_argument("--formula", action="store_true",
                   help="parse a muLTL formula file instead")
    common(p)
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("closure", help="print the Fischer-Ladner closure")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=cmd_closure)

    p = sub.add_parser("apa-dot", help="print the automaton in DOT format")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=cmd_apa_dot)

    p = sub.add_parser("member", help="lasso membership (game and/or oracle)")
    p.add_argument("file")
    p.add_argument("lasso")
    p.add_argument("--via", choices=["game", "oracle", "both"], default="both")
    common(p)
    p.set_defaults(fn=cmd_member)

    p = sub.add_parser("oracle-member",
                       help="lasso membership via the fixpoint oracle")
    p.add_argument("file")
    p.add_argument("lasso")
    common(p)
    p.set_defaults(fn=cmd_oracle_member)

    p = sub.add_parser("complement", help="print the complement expression")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=cmd_complement)

    p = sub.add_parser("translate", help="translate between RLL and muLTL")
    p.add_argument("--to", choices=["ltl", "rll"], required=True)
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("equiv", help="bounded equivalence search")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--max-prefix", type=int, default=2)
    p.add_argument("--max-period", type=int, default=3)
    common(p)
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("incl", help="bounded inclusion search")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--max-prefix", type=int, default=2)
    p.add_argument("--max-period", type=int, default=3)
    common(p)
    p.set_defaults(fn=cmd_incl)

    p = sub.add_parser("check", help="check a proof file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("selftest", help="run the built-in example suites")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--pairs", type=int, default=300)
    p.set_defaults(fn=cmd_selftest)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RllError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        # parsing and evaluation recurse once per level of nesting
        print("error: expression nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
