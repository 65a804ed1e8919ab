"""Syntactic complementation and the translations to and from muLTL, each a
table of constructors over ``syntax.rebuild`` (only the letter, literal and O
cases, and to_multl's constants and binders, are functions). Complement
dualizes letters against the rest of the alphabet, sums against meets, mu
against nu, and fixes variables. The translations to and from the
linear-time mu-calculus require a powerset alphabet; sums over letters and
conjunctions over propositions are taken in declared order and
right-associated, so outputs print stably.
"""

from __future__ import annotations

from .syntax import (BINDERS, Act, Alphabet, AlphabetError, And, Bot, Expr,
                     FVar, Meet, Mu, MuF, MuLtlFormula, NegProp, Next, Nu, NuF,
                     Or, Prop, Sum, Top, TopF, Var, Zero, TOP, and_of,
                     free_vars, fresh_name, rebuild, subexpressions,
                     substitute, sum_of)


def complement(e: Expr, alphabet: Alphabet) -> Expr:
    """The complement expression e^c; on variables, X^c = X."""
    def act(letter: str, body: Expr) -> Expr:
        others = [Act(b, TOP) for b in alphabet.letters if b != letter]
        return Sum(Act(letter, body), sum_of(others))

    return rebuild(e, {Var: Var, Zero: Top, Top: Zero, Act: act, Sum: Meet,
                       Meet: Sum, Mu: Nu, Nu: Mu})


def to_multl(e: Expr, alphabet: Alphabet) -> MuLtlFormula:
    """The formula of an expression over a powerset alphabet: a letter action
    is the conjunction of its literals and O of the translated body. A bound
    variable named as a proposition is renamed, so the formula parses back."""
    if alphabet.props is None:
        raise AlphabetError("translation to muLTL needs a powerset alphabet")

    def act(letter: str, body: MuLtlFormula) -> MuLtlFormula:
        present = alphabet.letter_props(letter)
        return and_of([Prop(p) if p in present else NegProp(p)
                       for p in alphabet.props] + [Next(body)])

    x, i = "X", 0  # 0 and top bind a variable no proposition is named
    while x in alphabet.props:
        x, i = f"X{i}", i + 1
    # a bound variable named as a proposition takes a name outside the basis
    # and the term's variables, the same one at each of its binders
    bound = {s.var for s in subexpressions(e) if isinstance(s, BINDERS)}
    taken = {x, *alphabet.props, *bound, *free_vars(e)}
    fresh: dict[str, str] = {}
    for var in sorted(bound.intersection(alphabet.props)):
        fresh[var] = fresh_name(var, taken)
        taken.add(fresh[var])

    def binder(make):
        def bind(var: str, body: MuLtlFormula) -> MuLtlFormula:
            if var not in fresh:
                return make(var, body)
            return make(fresh[var], substitute(body, var, FVar(fresh[var])))
        return bind

    return rebuild(e, {Var: FVar, Zero: lambda: MuF(x, FVar(x)),
                       Top: lambda: NuF(x, FVar(x)), Act: act, Sum: Or,
                       Meet: And, Mu: binder(MuF), Nu: binder(NuF)})


def to_rll(phi: MuLtlFormula, alphabet: Alphabet) -> Expr:
    """The expression of a formula over a powerset alphabet: a literal is the
    sum of its letters' actions into top, O the sum over all letters."""
    if alphabet.props is None:
        raise AlphabetError("translation from muLTL needs a powerset alphabet")
    letters = alphabet.letters

    def literal(holds: bool):
        return lambda name: sum_of([
            Act(a, TOP) for a in letters
            if (name in alphabet.letter_props(a)) is holds])

    return rebuild(phi, {Bot: Zero, TopF: Top, Prop: literal(True),
                         NegProp: literal(False), FVar: Var, Or: Sum,
                         And: Meet, MuF: Mu, NuF: Nu,
                         Next: lambda body: sum_of([Act(a, body)
                                                    for a in letters])})
