"""Lasso words and the finite-lattice fixpoint evaluator.

A lasso u(v) denotes the ultimately periodic word u v^omega. Its distinct
tails are indexed by the positions 0..|u|+|v|-1, with the successor of the
last position wrapping to |u|. Expression and formula semantics restricted to
these tails are computed by Kleene iteration in the finite lattice of position
sets, each set held as an integer bit mask with bit i for position i; on a
lattice of n positions every fixpoint converges within n+1 rounds, so the
iterates realize the ordinal approximants exactly.

Every step on a lasso before the fixpoints is a linear pass of C-level
string, set and int operations: ``parse_lasso`` reads the prefix and the
period each with one regex findall and checks the tokens with one set test,
and walks the same pattern again token by token only for a braced letter
spelled otherwise and for errors; ``Lasso`` checks its letters with set
tests; ``lasso_normalize`` counts its folds by index and rotates the period
once; and ``_letter_masks`` reads each letter's mask of a long word of few
distinct letters from a translated byte code of it.

Each evaluation first compiles its term, in one walk, into a flat program:
one slot per node, holding that node's current mask, and for each binder
the steps that recompute the nodes whose innermost free binder it is. A
variable reads its binder's slot, where the current approximant is. A round
of a binder thus recomputes only the nodes that can change in it, a closed
node is computed once, and nothing is hashed: the working memory is one
mask per node, however many rounds run.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate, chain, compress, count, product
from typing import Callable, Iterable, Iterator, Mapping, Optional

from .syntax import (BINDERS, BOTTOMS, JOINS, MEETS, MUS, PREFIXES, TOPS, VARS,
                     Act, Alphabet, Expr, MuLtlFormula, NegProp, Next,
                     ParseError, Prop, RllError, Term, free_vars,
                     parse_braced_letter)


class SemanticsError(RllError):
    pass


PositionSet = frozenset


@dataclass(frozen=True)
class Lasso:
    """An ultimately periodic word u v^omega with nonempty period v."""

    prefix: tuple[str, ...]
    period: tuple[str, ...]
    alphabet: Alphabet

    def __post_init__(self):
        if not self.period:
            raise SemanticsError("lasso period must be nonempty")
        letter_set = self.alphabet.letter_set
        if not (letter_set.issuperset(self.prefix)
                and letter_set.issuperset(self.period)):
            bad = next(letter for letter in self.prefix + self.period
                       if letter not in letter_set)
            raise SemanticsError(f"letter {bad!r} is not in the alphabet")

    @property
    def length(self) -> int:
        return len(self.prefix) + len(self.period)

    def letter_at(self, i: int) -> str:
        if i < len(self.prefix):
            return self.prefix[i]
        return self.period[i - len(self.prefix)]

    def succ(self, i: int) -> int:
        return i + 1 if i < self.length - 1 else len(self.prefix)

    def unroll(self, n: int) -> tuple[str, ...]:
        """The first n letters of the denoted omega-word."""
        out = []
        i = 0
        for _ in range(n):
            out.append(self.letter_at(i))
            i = self.succ(i)
        return tuple(out)


def _lasso(prefix: tuple[str, ...], period: tuple[str, ...],
           alphabet: Alphabet) -> Lasso:
    """The lasso u(v) without ``Lasso``'s checks, which cost as much as the
    rest of its construction: for a nonempty period and letters taken from
    the alphabet's own, as ``enumerate_lassos`` builds them. Its fields are
    set one by one, as ``Lasso.__init__`` sets them; reading ``__dict__``
    would give each lasso a dict of its own, twice the memory."""
    w = object.__new__(Lasso)
    object.__setattr__(w, "prefix", prefix)
    object.__setattr__(w, "period", period)
    object.__setattr__(w, "alphabet", alphabet)
    return w


QUOTE_CAP = 40  # characters of an input that an error message quotes


def quoted(text: str) -> str:
    """The repr of text, cut after QUOTE_CAP characters and then ended with
    ``...``, so that an error about a long input stays short."""
    if len(text) <= QUOTE_CAP:
        return repr(text)
    return f"{text[:QUOTE_CAP]!r}..."


# a lasso's tokens other than plain letters: a braced letter, or any other
# character but whitespace
_BRACED_TOKENS = re.compile(r"\{[^}]*\}|\S")


def _reader(alphabet: Alphabet) -> tuple[re.Pattern, frozenset]:
    """The token pattern of lassos over alphabet, and the letters that its
    tokens may be.

    No token begins with whitespace, so a findall steps over it. A plain
    alphabet's letters stand first in the pattern, longest first, so each
    match takes the longest letter there, and ``\\S`` takes a character
    where no letter or braced token matches. A plain letter that is empty
    or begins with whitespace or ``{`` is left out, as none is ever read:
    whitespace is stepped over, a ``{`` begins a braced token, and an empty
    letter reads nothing. Powerset letters are never listed: there are 2^n
    of them, and a braced token runs from a ``{`` to the next ``}``.
    """
    if alphabet.props is not None:
        return _BRACED_TOKENS, alphabet.letter_set
    letters = sorted((letter for letter in alphabet.letters
                      if letter and not letter[0].isspace()
                      and letter[0] != "{"), key=len, reverse=True)
    pattern = re.compile("|".join([*map(re.escape, letters),
                                   _BRACED_TOKENS.pattern]))
    if len(letters) == len(alphabet.letters):
        return pattern, alphabet.letter_set
    return pattern, frozenset(letters)


def parse_lasso(text: str, alphabet: Alphabet) -> Lasso:
    """Parse the lasso format u(v), letters juxtaposed, e.g. ab(ba) or {P}({}).

    The grammar: the text, stripped of surrounding whitespace, is a prefix,
    a ``(``, a nonempty period and a closing ``)``; the prefix is what comes
    before the first ``(``. Whitespace may stand anywhere between letters.
    At each position the longest letter of a plain alphabet that matches is
    taken, and never given back for a shorter one: over the letters ``a``,
    ``ab`` and ``bc``, ``aab`` reads ``a ab``, and ``abc`` is an error at
    ``c``, though ``a bc`` would read. A powerset letter is written in
    braces, its propositions in any order, repeated and spaced, as in an
    expression: ``{Q, P}`` and ``{P,Q,P}`` both read ``{P,Q}``.

    Errors are ParseErrors, their positions counted from the text as given,
    leading whitespace included: position 0 for a text not of the form
    u(v), the first character that no letter matches, the ``{`` of a
    powerset letter that is never closed, the token of a malformed braced
    letter, and the ``(`` of an empty period. A braced letter over a plain
    alphabet, or one naming an undeclared proposition, is an AlphabetError.

    Each chunk is read into tokens by one findall of the pattern of
    ``_reader``; where the tokens are all letters, they are the chunk's
    letters. Otherwise the same pattern walks the chunk again, keeping each
    letter, reading each other braced token with ``parse_braced_letter``,
    and raising an error at the first token that is neither.
    """
    lead = len(text) - len(text.lstrip())  # positions count from text
    text = text.strip()
    open_i = text.find("(")
    if open_i < 0 or not text.endswith(")"):
        raise ParseError("lasso must have the form u(v)", 0)
    pattern, letters = _reader(alphabet)

    def read(chunk: str, offset: int) -> list[str]:
        tokens = pattern.findall(chunk)
        if letters.issuperset(tokens):
            return tokens
        out = []
        for m in pattern.finditer(chunk):
            token, at = m.group(), offset + m.start()
            if token in letters:
                out.append(token)
            elif token == "{":  # no "}" follows it
                raise ParseError("unterminated powerset letter", at)
            elif token[0] == "{":
                out.append(parse_braced_letter(token, alphabet, at))
            else:
                raise ParseError("no letter matches here: "
                                 f"{quoted(chunk[m.start():])}", at)
        return out

    prefix = read(text[:open_i], lead)
    period = read(text[open_i + 1:-1], lead + open_i + 1)
    if not period:
        raise ParseError("lasso period must be nonempty", lead + open_i)
    return Lasso(tuple(prefix), tuple(period), alphabet)


def print_lasso(w: Lasso) -> str:
    return "".join(w.prefix) + "(" + "".join(w.period) + ")"


def lasso_normalize(w: Lasso) -> Lasso:
    """Canonical form: fold the prefix into the period, then take the
    primitive root of the period. Two lassos denote the same omega-word iff
    their normal forms are equal.

    A fold moves the prefix's last letter to the front of the period when it
    equals the period's last letter. The folds are counted by index, with
    ``last`` the index in the period of the rotated period's last letter,
    and the period is rotated once at the end."""
    prefix, period = w.prefix, w.period
    n = len(period)
    kept, last = len(prefix), n - 1
    while kept and prefix[kept - 1] == period[last]:
        kept -= 1
        last = (last - 1) % n
    period = period[last + 1:] + period[:last + 1]
    for d in range(1, n):
        if n % d == 0 and period == period[:d] * (n // d):
            period = period[:d]
            break
    return Lasso(tuple(prefix[:kept]), tuple(period), w.alphabet)


MAX_LASSOS = 2**20  # candidate words (u, v) that enumerate_lassos may try


def _words(k: int, least: int, most: int) -> int:
    """The sum of k^n for least <= n <= most, exact up to MAX_LASSOS."""
    if k == 1:
        return most - least + 1
    most = min(most, MAX_LASSOS.bit_length())  # k^n > MAX_LASSOS from here
    return (k ** (most + 1) - k ** least) // (k - 1)


def _primitive(k: int, n: int) -> bytearray:
    """One flag per word of n letters over k >= 2 letters, in ``product``
    order: 1 iff the word is primitive. A word's code is its letters'
    indices read as base-k digits, the first letter highest, so the code of
    the power of a d-letter word p is p's code times (k^n - 1) / (k^d - 1);
    for a proper divisor d of n, those are the k^d multiples of that step
    below k^n, and one slice assignment clears them."""
    size = k ** n
    flags = bytearray(b"\1") * size
    for d in range(1, n):
        if n % d == 0:
            flags[::(size - 1) // (k ** d - 1)] = bytes(k ** d)
    return flags


def _rotation_tails(k: int, flags: bytearray, start: int) -> Iterator[int]:
    """For each primitive word, in ``product`` order, the number of its
    rotation (v[1:] v[0]), where the primitive words with these flags are
    numbered from start in that order. The rotation of the word of code
    a k^(n-1) + b has code b k + a, so the codes of the rotations run
    through each residue a mod k in turn."""
    from array import array  # an extension module: loaded when first used

    rank = array("i", accumulate(flags, initial=start))
    return compress(map(rank.__getitem__, chain.from_iterable(
        range(a, len(flags), k) for a in range(k))), flags)


def enumerate_lassos(alphabet: Alphabet, max_prefix: int, max_period: int,
                     tails=None) -> Iterator[Lasso]:
    """All normalized lassos with |u| <= max_prefix, 1 <= |v| <= max_period,
    in length-lexicographic order: ascending |u|+|v|, then ascending |u|, then
    lexicographic by alphabet order. A bound that admits no lasso, or
    bounds that would try over MAX_LASSOS words, is a SemanticsError.

    u(v) is normal iff v is primitive and u is empty or ends in another
    letter than v. Primitivity is tested once per period length
    (``_primitive``), and each u's periods are its block's ``product``
    through those flags, with the words that end in u's last letter
    cleared; in ``product`` order, the word of code x ends in letter x % k.

    ``tails``, a list or an array of ints, if given, is extended with the
    number in this enumeration of each lasso's tail, by the time the lasso
    is yielded or earlier. The tail of a normal u(v) is the normal lasso
    u[1:](v) if u is not empty, else the rotation (v[1:] v[0]); so the
    lassos are closed under tails, and each tail's number follows from the
    numbers of the blocks of one prefix and one period length."""
    for name, bound, least in (("max-prefix", max_prefix, 0),
                               ("max-period", max_period, 1)):
        if bound < least:
            raise SemanticsError(
                f"{name} must be at least {least}, not {bound}")
    letters = alphabet.letters
    k = len(letters)
    if _words(k, 0, max_prefix) * _words(k, 1, max_period) > MAX_LASSOS:
        raise SemanticsError(f"max-prefix {max_prefix} and max-period "
                             f"{max_period} would try over {MAX_LASSOS} lassos")
    if k == 1:  # a^n is primitive only for n = 1, and every u ends in a
        if tails is not None:
            tails.append(0)
        yield Lasso((), letters, alphabet)
        return
    primitive: dict[int, bytearray] = {}  # period length -> its flags
    unlike: dict[int, list[bytearray]] = {}  # and per last letter c, those
    # flags with the words that end in c cleared: as many for every c
    first: dict[tuple[int, int], int] = {}  # (|u|, |v|) -> its first number
    number = 0
    for total in range(1, max_prefix + max_period + 1):
        for plen in range(max(0, total - max_period),
                          min(max_prefix, total - 1) + 1):
            vlen = total - plen
            if vlen not in primitive:
                primitive[vlen] = _primitive(k, vlen)
            flags = primitive[vlen]
            first[plen, vlen] = number
            if plen == 0:
                if tails is not None:
                    tails.extend(_rotation_tails(k, flags, number))
                number += flags.count(1)
                for v in compress(product(letters, repeat=vlen), flags):
                    yield _lasso((), v, alphabet)
                continue
            if vlen not in unlike:
                unlike[vlen] = [bytearray(flags) for _ in range(k)]
                for c, cleared in enumerate(unlike[vlen]):
                    cleared[c::k] = bytes(len(range(c, len(flags), k)))
            ends = unlike[vlen]
            periods = ends[0].count(1)
            shorter, below = first[plen - 1, vlen], k ** (plen - 1)
            for i, u in enumerate(product(letters, repeat=plen)):
                if tails is not None and plen == 1:  # (v), numbered
                    # among all primitive v
                    tails.extend(compress(count(shorter),
                                          compress(ends[i % k], flags)))
                elif tails is not None:  # u[1:], number i % below of its
                    # block, ends in u's last letter too: the same periods
                    tail = shorter + i % below * periods
                    tails.extend(range(tail, tail + periods))
                number += periods
                for v in compress(product(letters, repeat=vlen), ends[i % k]):
                    yield _lasso(u, v, alphabet)


Env = Mapping[str, PositionSet]


def _mask(positions: Iterable[int]) -> int:
    """The bit mask of a set of positions: bit i set iff i is in it."""
    return sum(1 << i for i in positions)


_ZERO_ONE = bytes.maketrans(b"01", b"\0\1")


def _positions(mask: int) -> PositionSet:
    """The set of positions whose bits are set in mask."""
    return frozenset(compress(count(),
                              bin(mask)[:1:-1].encode().translate(_ZERO_ONE)))


# the coded masks pay off on words of more than this many positions and at
# most this many distinct letters; elsewhere one Python step per position
# costs less than a fixed set-up and a C-level pass per letter
_CODED_LETTERS = 32
# the translation of letter code c to the digit 1 and of every other to 0
_DIGITS = [b"0" * c + b"1" + b"0" * (255 - c) for c in range(_CODED_LETTERS)]


def _letter_masks(w: Lasso) -> dict[str, int]:
    """The mask of the positions holding each letter of w.

    The word is coded one byte per position, last position first; for each
    letter, ``bytes.translate`` turns the code into the binary digits of its
    mask, which ``int(..., 2)`` reads. Both are linear C-level passes, so a
    mask costs O(n), not an OR into a growing n-bit mask at each of its
    positions. A short word, or one of more than ``_CODED_LETTERS``
    distinct letters (a powerset alphabet's), takes those per-position ORs,
    which cost less there."""
    word = w.prefix + w.period
    if len(word) > _CODED_LETTERS:
        letters = set(word)
        if len(letters) <= _CODED_LETTERS:
            code = dict(zip(letters, range(_CODED_LETTERS)))
            coded = bytes(map(code.__getitem__, reversed(word)))
            return {letter: int(coded.translate(_DIGITS[c]), 2)
                    for letter, c in code.items()}
    masks: dict[str, int] = {}
    for i, letter in enumerate(word):
        masks[letter] = masks.get(letter, 0) | 1 << i
    return masks


# opcodes of a compiled node: those below _VAR become steps of the program
_PREFIX, _JOIN, _MEET, _MU, _NU, _VAR, _BOTTOM, _TOP, _LEAF = range(9)
_OPCODE = {cls: op for op, classes in enumerate((
    PREFIXES, JOINS, MEETS, MUS, tuple(b for b in BINDERS if b not in MUS),
    VARS, BOTTOMS, TOPS)) for cls in classes}


def _compile(term: Term, full: int, masks: dict[str, int],
             local: Callable[[Term], int]) -> tuple[list[int], dict, int]:
    """The program of term: its slots, its steps and the root's slot.

    Slot 0 holds bottom, slot 1 top, then one slot per free variable with
    its mask from ``masks``, then one slot per other node; a literal's
    holds its local mask. A variable takes no slot of its own: it reads its
    binder's slot, which holds the current approximant, or its free
    variable's. The binders free in a node are a bit set of their slots.
    Each step ``(op, slot, a, b)`` computes a node into its slot from slots
    a and b; a prefix node's b is its local mask, a binder's a is its body
    and b its first approximant. ``steps`` maps each binder's slot, or -1
    for the whole term, to the steps of the nodes whose innermost free
    binder it is, in post-order, so children come before their parents.
    The walk keeps its own stack.
    """
    slots = [0, full]
    bound = {}  # variable -> the slot it reads, innermost binder first
    for v, m in masks.items():
        bound[v] = len(slots)
        slots.append(m)
    first = len(slots)  # the lowest slot of a node
    steps: dict[int, list[tuple]] = {-1: []}
    done: list[tuple[int, int]] = []  # per finished node: slot, free binders
    todo: list = [term]
    while todo:
        t = todo.pop()
        if t.__class__ is tuple:  # leaving a node
            op, i, x, y = t
            if op == _PREFIX:
                a, free = done.pop()
                step = (op, i, a, x)
            elif op >= _MU:  # x is the variable, y its outer slot or None
                a, free = done.pop()
                free &= ~(1 << i)
                if y is None:
                    del bound[x]
                else:
                    bound[x] = y
                step = (op, i, a, 0 if op == _MU else full)
            else:
                b, free = done.pop()
                a, left = done.pop()
                free |= left
                step = (op, i, a, b)
            steps[free.bit_length() - 1].append(step)
            done.append((i, free))
            continue
        op = _OPCODE.get(t.__class__, _LEAF)
        if op < _VAR:
            i = len(slots)
            slots.append(0)
            if op == _PREFIX:
                todo += ((op, i, local(t), None), t.body)
            elif op >= _MU:
                todo += ((op, i, t.var, bound.get(t.var)), t.body)
                bound[t.var] = i
                steps[i] = []
            else:
                todo += ((op, i, None, None), t.right, t.left)
        elif op == _VAR:
            i = bound[t.name]
            done.append((i, 1 << i if i >= first else 0))
        elif op == _LEAF:
            done.append((len(slots), 0))
            slots.append(local(t))
        else:
            done.append((0 if op == _BOTTOM else 1, 0))
    return slots, steps, done[0][0]


def _run(program: list[tuple], steps: dict, slots: list[int], start: int,
         last: int) -> None:
    """Run the steps of program over slots. A binder's step iterates from
    its first approximant, running the binder's own steps each round, until
    its body's slot equals the approximant it was computed from."""
    for op, i, a, b in program:
        if op == _PREFIX:
            x = slots[a]
            slots[i] = b & ((x >> 1) | ((x >> start & 1) << last))
        elif op == _JOIN:
            slots[i] = slots[a] | slots[b]
        elif op == _MEET:
            slots[i] = slots[a] & slots[b]
        else:  # a binder
            body, cur = steps[i], b
            while True:
                slots[i] = cur
                _run(body, steps, slots, start, last)
                nxt = slots[a]
                if nxt == cur:
                    break
                cur = nxt


def _kleene(term: Term, w: Lasso, env: Optional[Env],
            local: Callable[[Term], int]) -> int:
    """The mask of the positions of w where the expression or formula
    ``term`` holds.

    Position sets are bit masks: bit i stands for position i, so bottom is 0,
    top is all n bits, and join and meet are ``|`` and ``&``. ``local`` gives
    the mask of what a node's own test admits: for a prefix node the
    positions it may step from, for a literal the positions where it holds.
    A prefix node's body mask is moved one position back, and the bit of the
    period's first position also lands on the last position, whose successor
    it is. Fixpoints are computed by Kleene iteration: mu from the empty set,
    nu from the full set of positions.

    The term is compiled into a flat program (``_compile``) whose slots
    cache one mask per node, for the current round only. A node is
    recomputed once per round of the innermost binder free in it: the
    binders outside that one stay fixed while its rounds run, so a new round
    is exactly when a mask the node reads may have moved. A closed node is
    computed once, and no mask is ever hashed.
    """
    n, start = w.length, len(w.prefix)
    full = (1 << n) - 1
    env = env or {}
    names = free_vars(term)
    missing = names - env.keys()
    if missing:
        raise SemanticsError(f"unbound variables: {', '.join(sorted(missing))}")
    slots, steps, root = _compile(
        term, full, {v: _mask(env[v]) & full for v in names}, local)
    _run(steps[-1], steps, slots, start, n - 1)
    return slots[root]


def _rll_mask(e: Expr, w: Lasso, env: Optional[Env]) -> int:
    """The mask of the positions of w whose tails lie in L(e)."""
    with_letter = _letter_masks(w)

    def local(t: Term) -> int:
        if isinstance(t, Act):
            return with_letter.get(t.letter, 0)
        raise TypeError(f"not an expression: {t!r}")

    return _kleene(e, w, env, local)


def eval_rll(e: Expr, w: Lasso, env: Optional[Env] = None) -> PositionSet:
    """Positions i such that the i-th tail of w lies in the language of e."""
    return _positions(_rll_mask(e, w, env))


def member_oracle(e: Expr, w: Lasso) -> bool:
    """Membership of the lasso word in L(e), via the fixpoint evaluator:
    bit 0 of the mask, position 0 being the word itself."""
    if free_vars(e):
        raise SemanticsError("membership needs a closed expression")
    return bool(_rll_mask(e, w, None) & 1)


def eval_multl(phi: MuLtlFormula, w: Lasso,
               env: Optional[Env] = None) -> PositionSet:
    """Positions of w satisfying phi, for powerset alphabets."""
    if w.alphabet.props is None:
        raise SemanticsError("muLTL semantics needs a powerset alphabet")
    full = (1 << w.length) - 1
    with_letter = _letter_masks(w)
    props = [(w.alphabet.letter_props(letter), m)
             for letter, m in with_letter.items()]

    def local(t: Term) -> int:
        if isinstance(t, Next):
            return full
        if isinstance(t, (Prop, NegProp)):
            holds = sum(m for p, m in props if t.name in p)
            return holds if isinstance(t, Prop) else full ^ holds
        raise TypeError(f"not a formula: {t!r}")

    return _positions(_kleene(phi, w, env, local))


def models(phi: MuLtlFormula, w: Lasso) -> bool:
    """w satisfies phi, i.e. position 0 does."""
    if free_vars(phi):
        raise SemanticsError("satisfaction needs a closed formula")
    return 0 in eval_multl(phi, w)
