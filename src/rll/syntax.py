"""Abstract syntax, parsing and printing for RLL expressions and muLTL formulas.

Everything here is immutable and pure: expressions and formulas are frozen
dataclasses that memoise only their free variables and alpha key, operations
return fresh values, and comparison up to renaming (``alpha_eq``) tries
structural equality before ``alpha_key``. Expressions and formulas are binder terms of one shape, so
free variables, substitution, alpha keys, size, printing, parsing and
constructor maps (``rebuild``) are written once and serve both. The lexer
is one regular-expression pass that returns each token as its text, with
``""`` for the end of the input (an earlier ``""`` marks an illegal
character); a token's position is found again, by rescanning the text, only
when an error message needs it. The parser is one grammar frame (binders,
then infix operators by precedence, then operands); a syntax differs only in
its table of infix operators and in its prefix/atom level. Each text is
tokenized and parsed on its own: proofs that repeat their terms name them
by index instead (``calculus``).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field, replace
from functools import wraps
from typing import Iterator, Optional, Union


class RllError(Exception):
    """Base class for user-facing errors raised by the toolkit."""


class ParseError(RllError):
    """Lexical or syntax error, with a character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.message, self.pos = message, pos


class AlphabetError(RllError):
    """Bad alphabet declaration or use of an undeclared letter/proposition."""


KEYWORDS = {"mu", "nu", "top", "ff", "tt", "O", "alphabet", "props"}

MAX_PROPS = 16  # propositions of a powerset alphabet, like truth tables' atoms


# ---------------------------------------------------------------------------
# Alphabets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Alphabet:
    """A finite ordered alphabet, optionally generated from a proposition basis.

    In powerset mode (``props`` not None) the letters are exactly the subsets
    of the basis, named ``{P,Q}`` with propositions in basis order, ordered by
    bitmask over the basis.
    """

    letters: tuple[str, ...]
    props: Optional[tuple[str, ...]] = None
    # the letters again, for membership tests in constant time
    letter_set: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.props is not None:
            _check_basis(self.props)
        self._index()
        if self.props is None:  # an expression reads mu and nu as binders
            _check_names(self.letters, "letter", ("mu", "nu"))
        elif self.letters != _powerset_letters(self.props):
            raise AlphabetError("powerset alphabet letters must be all "
                                "subsets of the basis, in bitmask order")

    def _index(self):
        if not self.letters:
            raise AlphabetError("alphabet must be nonempty")
        object.__setattr__(self, "letter_set", frozenset(self.letters))
        if len(self.letter_set) != len(self.letters):
            raise AlphabetError("letter names must be unique")

    @staticmethod
    def plain(*letters: str) -> "Alphabet":
        return Alphabet(tuple(letters))

    @staticmethod
    def powerset(*props: str) -> "Alphabet":
        _check_basis(props)  # before its 2^n letters are built
        # the letters are built once, here: not compared with a second
        # build, as a directly constructed alphabet's are
        ab = object.__new__(Alphabet)
        object.__setattr__(ab, "letters", _powerset_letters(props))
        object.__setattr__(ab, "props", props)
        ab._index()
        return ab

    def letter_props(self, letter: str) -> frozenset[str]:
        """Propositions contained in a powerset letter."""
        if self.props is None:
            raise AlphabetError("alphabet has no proposition basis")
        if letter not in self.letter_set:
            raise AlphabetError(f"undeclared letter {letter!r}")
        body = letter[1:-1]
        return frozenset(body.split(",")) if body else frozenset()

    def header(self) -> str:
        """The declaration header line used in expression/formula files."""
        if self.props is not None:
            return "props " + " ".join(self.props) + " ;"
        return "alphabet " + " ".join(self.letters) + " ;"


def _check_names(names: tuple[str, ...], kind: str, reserved) -> None:
    """Each name must read back as itself in a text: an identifier, and
    not one of the reserved words."""
    for x in names:
        if IDENT.fullmatch(x) is None or x in reserved:
            raise AlphabetError(f"{x!r} cannot be a {kind} name")


def _check_basis(props: tuple[str, ...]) -> None:
    if len(props) > MAX_PROPS:  # 2^n letters are built eagerly
        raise AlphabetError(f"{len(props)} propositions exceed the cap "
                            f"of {MAX_PROPS}")
    _check_names(props, "proposition", KEYWORDS)


def _powerset_letters(basis: tuple[str, ...]) -> tuple[str, ...]:
    """The names of the subsets of basis, in bitmask order, as
    ``subset_letter_name`` writes them.

    The subsets with basis[k] follow those without it in the same order, so
    each proposition doubles the list; a name's body is kept with a leading
    comma."""
    bodies = [""]
    for p in basis:
        bodies += [f"{body},{p}" for body in bodies]
    return tuple(f"{{{body[1:]}}}" for body in bodies)


def subset_letter_name(subset: tuple[str, ...]) -> str:
    return "{" + ",".join(subset) + "}"


# ---------------------------------------------------------------------------
# RLL expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Act(Expr):
    letter: str
    body: Expr


@dataclass(frozen=True)
class Sum(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Meet(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mu(Expr):
    var: str
    body: Expr


@dataclass(frozen=True)
class Nu(Expr):
    var: str
    body: Expr


@dataclass(frozen=True)
class Zero(Expr):
    pass


@dataclass(frozen=True)
class Top(Expr):
    pass


ZERO = Zero()
TOP = Top()


def sum_of(terms: list[Expr]) -> Expr:
    """Right-associated sum; empty sum is 0, singleton is the term itself."""
    if not terms:
        return ZERO
    acc = terms[-1]
    for t in reversed(terms[:-1]):
        acc = Sum(t, acc)
    return acc


# ---------------------------------------------------------------------------
# muLTL formulas (negation normal form)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MuLtlFormula:
    pass


@dataclass(frozen=True)
class Bot(MuLtlFormula):
    pass


@dataclass(frozen=True)
class TopF(MuLtlFormula):
    pass


@dataclass(frozen=True)
class Prop(MuLtlFormula):
    name: str


@dataclass(frozen=True)
class NegProp(MuLtlFormula):
    name: str


@dataclass(frozen=True)
class FVar(MuLtlFormula):
    name: str


@dataclass(frozen=True)
class Or(MuLtlFormula):
    left: MuLtlFormula
    right: MuLtlFormula


@dataclass(frozen=True)
class And(MuLtlFormula):
    left: MuLtlFormula
    right: MuLtlFormula


@dataclass(frozen=True)
class Next(MuLtlFormula):
    body: MuLtlFormula


@dataclass(frozen=True)
class MuF(MuLtlFormula):
    var: str
    body: MuLtlFormula


@dataclass(frozen=True)
class NuF(MuLtlFormula):
    var: str
    body: MuLtlFormula


BOT = Bot()
TT = TopF()


def and_of(parts: list[MuLtlFormula]) -> MuLtlFormula:
    """Right-associated conjunction of a nonempty list."""
    acc = parts[-1]
    for p in reversed(parts[:-1]):
        acc = And(p, acc)
    return acc


def negate_formula(phi: MuLtlFormula) -> MuLtlFormula:
    """De Morgan dual with self-dual O; an involution, total on open formulas."""
    return rebuild(phi, _DUAL)


_DUAL = {Bot: TopF, TopF: Bot, Prop: NegProp, NegProp: Prop, FVar: FVar,
         Or: And, And: Or, Next: Next, MuF: NuF, NuF: MuF}


def implies(a: MuLtlFormula, b: MuLtlFormula) -> MuLtlFormula:
    """The implication macro a -> b, i.e. negate(a) | b in NNF."""
    return Or(negate_formula(a), b)


def iff(a: MuLtlFormula, b: MuLtlFormula) -> MuLtlFormula:
    return And(implies(a, b), implies(b, a))


# ---------------------------------------------------------------------------
# Operations shared by both syntaxes
# ---------------------------------------------------------------------------

# Expressions and formulas are binder terms of one shape: variables, mu/nu
# binders, a join, a meet, a bottom, a top and one prefix operator (a.e or
# O phi); formulas add literals as leaves. The operations below branch on a
# node's shape, never on its family. Negation, complement and the muLTL
# translations send each constructor to a constructor, so each is a table
# of images over ``rebuild``.

Term = Union[Expr, MuLtlFormula]

VARS = (Var, FVar)
BINDERS = (Mu, Nu, MuF, NuF)
MUS = (Mu, MuF)
JOINS = (Sum, Or)
MEETS = (Meet, And)
LATTICE = JOINS + MEETS
PREFIXES = (Act, Next)
BOTTOMS = (Zero, Bot)
TOPS = (Top, TopF)

# printed symbol of each operator and constant, the precedence of the infix
# ones (binder 0 < join 1 < meet 2 < prefix 3 < atom 4), and the alpha-key
# tag where it differs from the symbol
_SYMBOL = {Sum: "+", Or: "|", Meet: "&", And: "&", Mu: "mu", MuF: "mu",
           Nu: "nu", NuF: "nu", Zero: "0", Bot: "ff", Top: "top", TopF: "tt"}
_PREC = {Sum: 1, Or: 1, Meet: 2, And: 2}
_TAG = {**_SYMBOL, Top: "T"}


def _memo_on_node(fn):
    """fn, memoised in each node's instance dict, which a frozen dataclass's
    ==, hash and repr ignore: freed with the term, found without hashing."""
    name = fn.__name__

    @wraps(fn)
    def memoised(t: Term):
        memo = t.__dict__
        if name not in memo:
            memo[name] = fn(t)
        return memo[name]
    return memoised


@_memo_on_node
def free_vars(t: Term) -> frozenset[str]:
    if isinstance(t, VARS):
        return frozenset({t.name})
    if isinstance(t, PREFIXES):
        return free_vars(t.body)
    if isinstance(t, LATTICE):
        return free_vars(t.left) | free_vars(t.right)
    if isinstance(t, BINDERS):
        return free_vars(t.body) - {t.var}
    return frozenset()


def expr_size(t: Term) -> int:
    """Number of AST nodes."""
    if isinstance(t, (PREFIXES, BINDERS)):
        return 1 + expr_size(t.body)
    if isinstance(t, LATTICE):
        return 1 + expr_size(t.left) + expr_size(t.right)
    return 1


def subexpressions(t: Term) -> Iterator[Term]:
    """All subterms of t, including t itself (with repetitions)."""
    yield t
    if isinstance(t, (PREFIXES, BINDERS)):
        yield from subexpressions(t.body)
    elif isinstance(t, LATTICE):
        yield from subexpressions(t.left)
        yield from subexpressions(t.right)


def fresh_name(base: str, avoid: frozenset[str]) -> str:
    if base not in avoid:
        return base
    for i in itertools.count(1):
        cand = f"{base}_{i}"
        if cand not in avoid:
            return cand


def substitute(t: Term, var: str, replacement: Term) -> Term:
    """Capture-avoiding substitution of replacement for free occurrences of var."""
    if isinstance(t, VARS):
        return replacement if t.name == var else t
    if isinstance(t, PREFIXES):
        return replace(t, body=substitute(t.body, var, replacement))
    if isinstance(t, LATTICE):
        return type(t)(substitute(t.left, var, replacement),
                       substitute(t.right, var, replacement))
    if isinstance(t, BINDERS):
        cls = type(t)
        if t.var == var or var not in free_vars(t.body):
            return t
        if t.var in free_vars(replacement):
            # rename the binder to dodge capture, with a variable of its family
            new = fresh_name(t.var,
                             free_vars(replacement) | free_vars(t.body) | {var})
            fresh = Var(new) if isinstance(t, (Mu, Nu)) else FVar(new)
            body = substitute(t.body, t.var, fresh)
            return cls(new, substitute(body, var, replacement))
        return cls(t.var, substitute(t.body, var, replacement))
    return t


def rebuild(t: Term, image: dict) -> Term:
    """The image of t under a constructor map: each node ``C(x, ...)``
    becomes ``image[C](x, ...)``, fields in declaration order and subterms
    rebuilt first. A node whose type has no image is a TypeError."""
    make = image.get(type(t))
    if make is None:
        raise TypeError(f"no image for {t!r}")
    if isinstance(t, LATTICE):
        return make(rebuild(t.left, image), rebuild(t.right, image))
    if isinstance(t, Act):
        return make(t.letter, rebuild(t.body, image))
    if isinstance(t, BINDERS):
        return make(t.var, rebuild(t.body, image))
    if isinstance(t, Next):
        return make(rebuild(t.body, image))
    return make(t.name) if isinstance(t, (VARS, Prop, NegProp)) else make()


@_memo_on_node
def alpha_key(t: Term) -> str:
    """Canonical serialization: alpha-equivalent terms get equal keys."""
    out: list[str] = []
    counter = itertools.count()

    def go(t: Term, env: dict[str, int]):
        if isinstance(t, VARS):
            out.append(f"b{env[t.name]}" if t.name in env else f"f:{t.name};")
        elif isinstance(t, PREFIXES):
            out.append(f"a[{t.letter}](" if isinstance(t, Act) else "O(")
            go(t.body, env)
            out.append(")")
        elif isinstance(t, LATTICE):
            out.append(_TAG[type(t)] + "(")
            go(t.left, env)
            out.append(",")
            go(t.right, env)
            out.append(")")
        elif isinstance(t, BINDERS):
            n = next(counter)
            out.append(f"{_TAG[type(t)]}{n}(")
            go(t.body, {**env, t.var: n})
            out.append(")")
        elif isinstance(t, Prop):
            out.append(f"p:{t.name};")
        elif isinstance(t, NegProp):
            out.append(f"n:{t.name};")
        else:
            out.append(_TAG[type(t)])

    # go refers to itself; unbinding it frees each key's working state on
    # return rather than by the cyclic collector
    try:
        go(t, {})
    finally:
        del go
    return "".join(out)


def alpha_eq(a: Term, b: Term) -> bool:
    # equal fields imply alpha-equivalence, and cost no key
    return a is b or a == b or alpha_key(a) == alpha_key(b)


def print_expr(t: Term, _prec: int = 0) -> str:
    """Concrete syntax of an expression or formula, parenthesized so that
    its parser reads it back."""
    if isinstance(t, (VARS, Prop)):
        return t.name
    if isinstance(t, NegProp):
        return f"~{t.name}"
    if isinstance(t, PREFIXES):
        head = f"{t.letter}." if isinstance(t, Act) else "O "
        return head + print_expr(t.body, 3)
    if isinstance(t, LATTICE):
        p = _PREC[type(t)]
        s = (f"{print_expr(t.left, p)} {_SYMBOL[type(t)]} "
             f"{print_expr(t.right, p + 1)}")
        return f"({s})" if _prec > p else s
    if isinstance(t, BINDERS):
        s = f"{_SYMBOL[type(t)]} {t.var}. {print_expr(t.body, 0)}"
        return f"({s})" if _prec > 0 else s
    if type(t) in _SYMBOL:
        return _SYMBOL[type(t)]
    raise TypeError(f"not an expression or formula: {t!r}")


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

# A token is its text, and "" marks the end of the input. Its kind is its
# text for a symbol, "ident" for an identifier and "eof" for the end. No
# position is kept: ``token_positions`` rescans the text when an error
# message needs one.
_SYMBOLS = frozenset(["<->", "->", "+", "&", "|", "~", "!", ".", "(", ")",
                      "{", "}", ",", ";", "0"])
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")  # an identifier token
_TOKEN = rf"{IDENT.pattern}|<->|->|[+&|~!.(){{}},;0]"
# whitespace and comments; a comment is anchored to its line's end, so that
# no backtracking can read its tail as tokens
_SKIP = r"(?:\s|#[^\n]*(?![^\n]))*"
_SKIP_RE = re.compile(_SKIP)
# a token, or the empty string, with the whitespace and comments after it:
# searched from the first token, each match ends where the next begins, the
# text's end gives one "", and so does each illegal character before it
_TOKEN_RE = re.compile(rf"({_TOKEN}|){_SKIP}")


def tokenize(text: str) -> list[str]:
    """The tokens of text, ending with the sentinel "", in one pass."""
    tokens = _TOKEN_RE.findall(text, _SKIP_RE.match(text).end())
    k = tokens.index("")
    if k < len(tokens) - 1:  # the first illegal character
        i = token_positions(text)[k]
        raise ParseError(f"unexpected character {text[i]!r}", i)
    return tokens


def token_positions(text: str) -> list[int]:
    """Where each token of ``tokenize(text)`` begins; the sentinel's
    position is ``len(text)``."""
    lead = _SKIP_RE.match(text).end()
    return [m.start() for m in _TOKEN_RE.finditer(text, lead)]


def token_kind(tok: str) -> str:
    return tok if tok in _SYMBOLS else "ident" if tok else "eof"


# ---------------------------------------------------------------------------
# Parser: one grammar frame; each syntax brings its operator table and its
# prefix/atom level
# ---------------------------------------------------------------------------

def _infix_table(levels: list) -> dict:
    """Token kind -> (level, builder, least level of the right operand),
    from (kind, builder, right-associative) triples listed weakest first."""
    return {kind: (lvl, build, lvl if right else lvl + 1)
            for lvl, (kind, build, right) in enumerate(levels)}


_BINDER, _INFIX, _GROUP = range(3)  # what a term waits on in _Parser.term


class _Parser:
    """A term is a binder ``(mu|nu) X. term``, which extends as far right as
    it can, or operands joined by the syntax's infix operators, where the
    right operand of an operator may be such a binder. Precedence climbing
    (Pratt 1973) reads the operators in one loop, where the binders,
    operators and parentheses still open wait on an explicit stack, so no
    nesting deepens the recursion. Each syntax reads an operand as a chain
    of prefixes, then a group or an atom (``operand``), and applies the
    prefixes to a group (``wrap``). ``tokens`` and ``first``, if given, are
    a whole file's tokens and the index of the term's first token."""

    noun: str  # what the error messages call a term
    reserved: tuple  # names that no bound variable may take
    binders: dict  # keyword -> binder constructor
    infix: dict  # from _infix_table

    def __init__(self, text: str, alphabet: Alphabet,
                 tokens: Optional[list[str]] = None, first: int = 0):
        self.text = text
        self.ab = alphabet
        self.tokens = tokenize(text) if tokens is None else tokens
        self.i = self.first = first  # the term's first token
        self.held: list = []  # the prefixes of a group, from operand

    def pos(self, i: int) -> int:
        """Where token i begins in the text."""
        return token_positions(self.text)[i]

    def parse(self, require_closed: bool) -> Term:
        t = self.term(0)
        tok = self.tokens[self.i]
        if tok:
            raise ParseError(f"trailing input {tok!r}", self.pos(self.i))
        if require_closed and free_vars(t):
            names = ", ".join(sorted(free_vars(t)))
            # the term's text begins after the one-character ';' before it
            start = self.pos(self.first - 1) + 1 if self.first else 0
            raise ParseError(f"{self.noun} is not closed (free: {names})",
                             start)
        return t

    def term(self, level: int) -> Term:
        """A binder, or operands joined by infix operators of level >= level,
        read in one loop; what is still open waits in ``waiting``."""
        tokens, infix, binders = self.tokens, self.infix, self.binders
        waiting: list[tuple] = []
        while True:
            tok = tokens[self.i]
            if tok in binders:  # its body is a term of level 0
                self.i += 1
                at = self.i
                var = self.var_name()
                if var in self.reserved:
                    raise ParseError(f"variable {var!r} clashes with a "
                                     "proposition", self.pos(at))
                self.expect(".")
                waiting.append((_BINDER, binders[tok], var))
                level = 0
                continue
            t = self.operand()
            if t is None:  # a group, after the prefixes in self.held
                self.i += 1  # its inside is a term of level 0
                waiting.append((_GROUP, self.held, level))
                level = 0
                continue
            while True:  # t ends a term of this level, or an operator's left
                op = infix.get(tokens[self.i])
                if op is not None and op[0] >= level:
                    self.i += 1
                    waiting.append((_INFIX, op[1], t, level))
                    level = op[2]  # of its right operand
                    break
                if not waiting:
                    return t
                frame = waiting.pop()
                if frame[0] == _INFIX:
                    _, build, left, level = frame
                    t = build(left, t)
                elif frame[0] == _BINDER:
                    t = frame[1](frame[2], t)
                else:
                    _, prefixes, level = frame
                    self.expect(")")
                    if prefixes:
                        t = self.wrap(prefixes, t)

    def expect(self, kind: str) -> str:
        tok = self.tokens[self.i]
        if token_kind(tok) != kind:
            raise ParseError(f"expected {kind!r}, found {tok!r}",
                             self.pos(self.i))
        self.i += 1
        return tok

    def var_name(self) -> str:
        tok = self.expect("ident")
        if tok in KEYWORDS:
            raise ParseError(f"keyword {tok!r} cannot be a variable",
                             self.pos(self.i - 1))
        return tok


class _ExprParser(_Parser):
    noun, binders = "expression", {"mu": Mu, "nu": Nu}
    reserved = ()
    infix = _infix_table([("+", Sum, False), ("&", Meet, False)])

    def operand(self) -> Optional[Expr]:
        """``LETTER.`` prefixes, then 0, top or a variable; or None at a
        ``(``, with the prefixes' letters left in ``held``."""
        tokens, letters = self.tokens, []
        tok = tokens[self.i]
        while tok == "{" or (token_kind(tok) == "ident"
                             and tokens[self.i + 1] == "."
                             and tok not in self.binders):
            at = self.i
            letter = self.letter()
            if letter not in self.ab.letter_set:
                raise AlphabetError(f"undeclared letter {letter!r} "
                                    f"at position {self.pos(at)}")
            self.expect(".")
            letters.append(letter)
            tok = tokens[self.i]
        if tok == "0":
            self.i += 1
            e = ZERO
        elif tok == "(":
            self.held = letters
            return None
        elif tok == "top":
            self.i += 1
            e = TOP
        elif token_kind(tok) == "ident":
            e = Var(self.var_name())
        else:
            raise ParseError(f"expected an expression, found {tok!r}",
                             self.pos(self.i))
        return self.wrap(letters, e) if letters else e

    @staticmethod
    def wrap(letters: list[str], e: Expr) -> Expr:
        for letter in reversed(letters):
            e = Act(letter, e)
        return e

    def letter(self) -> str:
        """An identifier, or {P,Q} in powerset mode."""
        tok = self.tokens[self.i]
        self.i += 1
        return self.braced() if tok == "{" else tok

    def braced(self) -> str:
        """The rest of a powerset letter ``{P,Q}``, after its ``{``: the set
        of the named propositions, in any order and with repeats, named in
        basis order."""
        names = []
        if self.tokens[self.i] != "}":
            names.append(self.expect("ident"))
            while self.tokens[self.i] == ",":
                self.i += 1
                names.append(self.expect("ident"))
        self.expect("}")
        props = self.ab.props
        if props is None:
            raise AlphabetError("powerset letter used with a plain alphabet")
        for p in names:
            if p not in props:
                raise AlphabetError(f"undeclared proposition {p!r}")
        return subset_letter_name(tuple(p for p in props if p in names))


class _FormulaParser(_Parser):
    """muLTL formulas, with ->, <-> and ! desugared into NNF."""

    noun, binders = "formula", {"mu": MuF, "nu": NuF}
    infix = _infix_table([("<->", iff, False), ("->", implies, True),
                          ("|", Or, False), ("&", And, False)])

    @property
    def reserved(self) -> tuple:
        return self.ab.props

    def operand(self) -> Optional[MuLtlFormula]:
        """``O`` and ``!`` prefixes, then ~P, ff, tt, a proposition or a
        variable; or None at a ``(``, with the prefixes, as functions, left
        in ``held``."""
        tokens, prefixes = self.tokens, []
        tok = tokens[self.i]
        while tok == "!" or tok == "O":
            prefixes.append(negate_formula if tok == "!" else Next)
            self.i += 1
            tok = tokens[self.i]
        if tok == "~":
            self.i += 1
            name = self.expect("ident")
            if name not in self.ab.props:
                raise AlphabetError(f"undeclared proposition {name!r}")
            phi = NegProp(name)
        elif tok == "(":
            self.held = prefixes
            return None
        elif tok == "ff":
            self.i += 1
            phi = BOT
        elif tok == "tt":
            self.i += 1
            phi = TT
        elif token_kind(tok) == "ident":
            name = self.var_name()
            phi = Prop(name) if name in self.ab.props else FVar(name)
        else:
            raise ParseError(f"expected a formula, found {tok!r}",
                             self.pos(self.i))
        return self.wrap(prefixes, phi) if prefixes else phi

    @staticmethod
    def wrap(prefixes: list, phi: MuLtlFormula) -> MuLtlFormula:
        for prefix in reversed(prefixes):
            phi = prefix(phi)
        return phi


def parse_expr(text: str, alphabet: Alphabet,
               require_closed: bool = False) -> Expr:
    """Parse an RLL expression.

    Grammar (binders weakest and maximally right, & tighter than +, a.e
    tightest): ``0 | top | IDENT | LETTER.e | e+e | e&e | (mu|nu) X. e | (e)``.
    """
    return _ExprParser(text, alphabet).parse(require_closed)


def parse_formula(text: str, alphabet: Alphabet,
                  require_closed: bool = False) -> MuLtlFormula:
    """Parse a muLTL formula over a powerset alphabet into NNF.

    Grammar, weakest first: binders, <->, -> (to the right), |, &, then the
    prefixes O and !: ``ff | tt | P | ~P | X | O phi | !phi | (phi)``.
    """
    _need_props(alphabet)
    return _FormulaParser(text, alphabet).parse(require_closed)


def parse_braced_letter(text: str, alphabet: Alphabet, at: int) -> str:
    """The powerset letter written ``{P,Q}``, read as an expression reads
    it: whitespace and comments may surround the names. Error positions
    count from ``at``, where text begins in the input it was cut from."""
    try:
        p = _ExprParser(text, alphabet)
        p.expect("{")
        letter = p.braced()
        p.expect("eof")
    except ParseError as err:
        raise ParseError(err.message, at + err.pos) from None
    return letter


def _need_props(alphabet: Alphabet):
    if alphabet.props is None:
        raise AlphabetError("formulas need an alphabet with a proposition basis")


# ---------------------------------------------------------------------------
# Alphabet headers and self-contained files
# ---------------------------------------------------------------------------

def _header(text: str) -> tuple[Alphabet, list[str], int]:
    """Tokenize a whole file and read its leading ``alphabet a b ;`` or
    ``props P Q ;`` declaration. Returns the alphabet, the file's tokens and
    the index of the first token after the ``;``."""
    tokens = tokenize(text)
    if tokens[0] not in ("alphabet", "props"):
        raise ParseError("expected 'alphabet ... ;' or 'props ... ;' header", 0)
    mode = tokens[0]
    names: list[str] = []
    i = 1
    while token_kind(tokens[i]) == "ident":
        names.append(tokens[i])
        i += 1
    if tokens[i] != ";":
        raise ParseError("alphabet header must end with ';'",
                         token_positions(text)[i])
    if mode == "alphabet":
        if not names:
            raise AlphabetError("alphabet declaration needs at least one letter")
        ab = Alphabet.plain(*names)
    else:
        ab = Alphabet.powerset(*names)
    return ab, tokens, i + 1


def parse_expr_file(text: str, require_closed: bool = False) -> tuple[Alphabet, Expr]:
    """A header, then an expression; error positions count from the file's
    start."""
    ab, tokens, first = _header(text)
    return ab, _ExprParser(text, ab, tokens=tokens,
                           first=first).parse(require_closed)


def parse_formula_file(text: str,
                       require_closed: bool = False) -> tuple[Alphabet, MuLtlFormula]:
    """A ``props`` header, then a formula; error positions count from the
    file's start."""
    ab, tokens, first = _header(text)
    _need_props(ab)
    return ab, _FormulaParser(text, ab, tokens=tokens,
                              first=first).parse(require_closed)
