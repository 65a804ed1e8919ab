"""Syntax: parsing, printing, substitution, negation, alphabets."""

import pytest
from hypothesis import given, settings, strategies as st

import rll.syntax
from rll import algebra
from rll.syntax import (BINDERS, LATTICE, PREFIXES, Act, Alphabet,
                        AlphabetError, And, FVar, Meet, Mu, MuF, NegProp,
                        Next, Nu, NuF, Or, ParseError, Prop, Sum, TOP, Top,
                        Var, ZERO, Zero, alpha_eq, alpha_key, free_vars,
                        negate_formula, parse_alphabet_header, RllError,
                        parse_expr, parse_expr_file, parse_formula,
                        parse_formula_file, print_expr, subexpressions,
                        subset_letter_name, substitute, token_kind,
                        token_positions, tokenize)
from rll.calculus import (Verdict, check_rll, derivation_from_json,
                          derivation_to_json, derive_complement)
from rll.closure import ClosureError, occurrence_graph
from rll.semantics import Lasso, SemanticsError, parse_lasso
from rll.corpus import gen_expr
from helpers import (reference_parse_expr, reference_parse_formula,
                     reference_tokenize)
import json
import random
import re
import time
from dataclasses import fields, replace
from typing import Iterator

AB = Alphabet.plain("a", "b")
PQ = Alphabet.powerset("P", "Q")


def gen_formula(rng, size, bound):
    """A random formula: the muLTL translation of a random expression."""
    return algebra.to_multl(gen_expr(rng, PQ, size, bound), PQ)


# both syntaxes, each as its variable, least binder, join and term generator
FAMILIES = [
    (Var, Mu, Sum, lambda rng, size, bound: gen_expr(rng, AB, size, bound)),
    (FVar, MuF, Or, gen_formula),
]


class TestAlphabet:
    def test_plain(self):
        assert AB.letters == ("a", "b")
        assert not AB.is_powerset

    def test_powerset_letters_are_all_subsets(self):
        assert PQ.letters == ("{}", "{P}", "{Q}", "{P,Q}")
        assert PQ.letter_props("{P,Q}") == {"P", "Q"}
        assert PQ.letter_props("{}") == frozenset()

    def test_single_prop(self):
        ab = Alphabet.powerset("P")
        assert ab.letters == ("{}", "{P}")

    def test_proposition_cap(self):
        with pytest.raises(AlphabetError, match="17 propositions"):
            Alphabet.powerset(*(f"P{i}" for i in range(17)))

    def test_duplicates_rejected(self):
        with pytest.raises(AlphabetError):
            Alphabet.plain("a", "a")

    def test_empty_rejected(self):
        with pytest.raises(AlphabetError):
            Alphabet(())

    def test_header_roundtrip(self):
        for ab in (AB, PQ):
            parsed, rest = parse_alphabet_header(ab.header() + " 0")
            assert parsed == ab and rest.strip() == "0"

    def test_letter_set_is_not_compared(self):
        """The letters' frozenset is derived: ==, hash and repr read only
        the letters and the basis."""
        assert AB.letter_set == frozenset("ab")
        assert PQ.letter_set == frozenset(PQ.letters)
        assert repr(AB) == "Alphabet(letters=('a', 'b'), props=None)"
        assert hash(AB) == hash(Alphabet.plain("a", "b"))
        assert replace(AB, letters=("c",)).letter_set == {"c"}

    def test_powerset_letters_built_once(self, monkeypatch):
        """``powerset`` builds each name once, in bitmask order as
        ``subset_letter_name`` writes it; a directly constructed powerset
        alphabet is still checked against those names."""
        for basis in ((), ("P",), ("P", "Q"), ("Q1", "P", "x_2"),
                      tuple(f"P{i}" for i in range(6))):
            names = tuple(
                subset_letter_name(tuple(p for i, p in enumerate(basis)
                                         if mask >> i & 1))
                for mask in range(1 << len(basis)))
            ab = Alphabet.powerset(*basis)
            assert (ab.letters, ab.props) == (names, basis)
            assert ab == Alphabet(names, basis)
            assert ab.letter_set == frozenset(names)
        calls = []
        build = rll.syntax._powerset_letters
        monkeypatch.setattr(rll.syntax, "_powerset_letters",
                            lambda basis: calls.append(basis) or build(basis))
        Alphabet.powerset("P", "Q", "R")
        assert calls == [("P", "Q", "R")]
        message = ("powerset alphabet letters must be all subsets of the "
                   "basis, in bitmask order")
        for letters in (("{}", "{Q}", "{P}", "{P,Q}"), ("{}", "{P}", "{Q}"),
                        ("{}", "{P}", "{Q}", "{Q,P}"),
                        ("{}", "{P}", "{Q}", "{P,Q}", "{R}")):
            with pytest.raises(AlphabetError, match=f"^{message}$"):
                Alphabet(letters, ("P", "Q"))
        with pytest.raises(AlphabetError, match="^letter names must be unique$"):
            Alphabet.powerset("P", "P")

    def test_long_lasso_over_sixteen_propositions(self):
        """Checking a letter is a set lookup, not a scan of the 65,536
        letters: a 2,000-letter lasso took 1.4 s with the scan on a 2-CPU
        host."""
        ab = Alphabet.powerset(*(f"P{i}" for i in range(16)))
        rng = random.Random(16)
        letters = [rng.choice(ab.letters) for _ in range(2000)]
        text = "".join(letters[:1000]) + "(" + "".join(letters[1000:]) + ")"
        start = time.perf_counter()
        w = parse_lasso(text, ab)
        assert time.perf_counter() - start < 1.0
        assert w.prefix + w.period == tuple(letters)

    def test_undeclared_letter_messages(self):
        """Each check of a letter against the alphabet words its refusal as
        before."""
        with pytest.raises(AlphabetError,
                           match=r"^undeclared letter 'c' at position 0$"):
            parse_expr("c.top", AB)
        with pytest.raises(AlphabetError,
                           match=r"^undeclared letter '\{R\}'$"):
            PQ.letter_props("{R}")
        with pytest.raises(SemanticsError,
                           match=r"^letter 'c' is not in the alphabet$"):
            Lasso(("a",), ("c",), AB)
        foreign = Act("c", TOP)
        with pytest.raises(ClosureError, match=r"^undeclared letter 'c'$"):
            occurrence_graph(foreign, AB)
        d = derivation_from_json({
            "system": "rll", "tier": "strict", "alphabet": ["a", "b"],
            "steps": [{"id": "s1", "claim": {"rel": "eq", "lhs": "b.0",
                                             "rhs": "0"},
                       "rule": "act_zero", "subst": {"a": "c"}}]})
        assert check_rll(d) == Verdict.rejected(
            "s1", "undeclared letter in subst['a']")


class TestParseExpr:
    def test_nested_binders(self):
        e = parse_expr("nu X. mu Y. (a.X + b.Y)", AB)
        assert e == Nu("X", Mu("Y", Sum(Act("a", Var("X")),
                                        Act("b", Var("Y")))))

    def test_zero_constant(self):
        assert parse_expr("0", AB) == ZERO

    def test_mu_x_x_stays_unnormalized(self):
        assert parse_expr("mu X. X", AB) == Mu("X", Var("X"))

    def test_binder_extends_right(self):
        e = parse_expr("mu X. X + a.X", AB)
        assert e == Mu("X", Sum(Var("X"), Act("a", Var("X"))))

    def test_meet_binds_tighter_than_sum(self):
        e = parse_expr("top + 0 & top", AB)
        assert e == Sum(TOP, Meet(ZERO, TOP))

    def test_act_binds_tightest(self):
        e = parse_expr("a.X + b.Y", AB)
        assert e == Sum(Act("a", Var("X")), Act("b", Var("Y")))

    def test_trailing_binder_in_sum(self):
        e = parse_expr("a.top + mu X. X + X", AB)
        assert e == Sum(Act("a", TOP), Mu("X", Sum(Var("X"), Var("X"))))

    def test_undeclared_letter(self):
        with pytest.raises(AlphabetError):
            parse_expr("c.0", AB)

    def test_open_expression_with_closed_flag(self):
        with pytest.raises(ParseError):
            parse_expr("a.X", AB, require_closed=True)

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_expr("a. + b", AB)
        assert "position" in str(err.value)

    def test_powerset_letters_in_expressions(self):
        e = parse_expr("{P}.top + {}.0", PQ)
        assert e == Sum(Act("{P}", TOP), Act("{}", ZERO))

    def test_expr_file(self):
        ab, e = parse_expr_file("alphabet a b ;\n# comment\nnu X. a.X\n")
        assert ab == AB and e == Nu("X", Act("a", Var("X")))


class TestFiles:
    """A file is tokenized once, header and body together, so every position
    in a file error counts from the file's start."""

    @pytest.mark.parametrize("parse_file,text,message", [
        (parse_expr_file, "alphabet a b ;\nnu X. a.$",
         "unexpected character '$' (at position 23)"),
        (parse_expr_file, "alphabet a b ;\n(a.top",
         "expected ')', found '' (at position 21)"),
        (parse_formula_file, "props P ;\n(P | ",
         "expected a formula, found '' (at position 15)"),
        (parse_expr_file, "alphabet a b ;\nc.top",
         "undeclared letter 'c' at position 15"),
        (parse_expr_file, "alphabet a b ;\na.X",
         "expression is not closed (free: X) (at position 14)"),
    ], ids=["lexical", "syntax", "formula-syntax", "undeclared-letter",
            "not-closed"])
    def test_error_positions_count_from_file_start(self, parse_file, text,
                                                   message):
        with pytest.raises(RllError) as err:
            parse_file(text, require_closed=True)
        assert str(err.value) == message

    @pytest.mark.parametrize("text", [
        "alphabet a b ;\n# comment\nnu X. mu Y. (a.X + b.Y)\n",
        "props P Q ;\n{P}.top + {}.0", "alphabet a ;0"],
        ids=["comment", "powerset", "no-space"])
    def test_tokenized_once(self, text, monkeypatch):
        calls = []

        def counting(t):
            calls.append(t)
            return tokenize(t)

        monkeypatch.setattr(rll.syntax, "tokenize", counting)
        ab, e = parse_expr_file(text)
        assert calls == [text]
        _ab, rest = parse_alphabet_header(text)
        assert e == parse_expr(rest, ab)


class TestParseFormula:
    def test_example_formula(self):
        phi = parse_formula("nu X. (Q | (P & O X))", PQ)
        assert phi == NuF("X", Or(Prop("Q"), And(Prop("P"), Next(FVar("X")))))

    def test_negated_prop(self):
        assert parse_formula("~P", PQ) == NegProp("P")

    def test_ill_formed_rejected(self):
        with pytest.raises(ParseError):
            parse_formula("mu X. (P | X X)", PQ)

    def test_requires_powerset(self):
        with pytest.raises(AlphabetError):
            parse_formula("tt", AB)

    def test_implication_sugar_desugars_to_nnf(self):
        phi = parse_formula("P -> Q", PQ)
        assert phi == Or(NegProp("P"), Prop("Q"))

    def test_negation_sugar(self):
        phi = parse_formula("!(P & O Q)", PQ)
        assert phi == Or(NegProp("P"), Next(NegProp("Q")))

    def test_clash_reports_the_variable_position(self):
        with pytest.raises(ParseError, match=r"^variable 'P' clashes with a "
                                             r"proposition \(at position 8\)$"):
            parse_formula("tt | mu P. P", Alphabet.powerset("P"))


class TestSubstitute:
    def test_basic(self):
        assert substitute(Act("a", Var("X")), "X", ZERO) == Act("a", ZERO)

    def test_bound_occurrence_untouched(self):
        e = Mu("X", Var("X"))
        assert substitute(e, "X", TOP) == e

    def test_no_capture_closed_replacement(self):
        e = Sum(Var("X"), Var("Y"))
        r = substitute(e, "X", Mu("Y", Var("Y")))
        assert alpha_eq(r.left, Mu("Y", Var("Y")))
        assert r.right == Var("Y")
        assert free_vars(r) == {"Y"}

    def test_capture_avoided_by_renaming(self):
        for var, mu, join, _gen in FAMILIES:
            e = mu("Y", join(var("X"), var("Y")))
            r = substitute(e, "X", var("Y"))
            assert free_vars(r) == {"Y"}
            assert r.var != "Y"  # binder renamed away from the free Y
            # the renamed binder binds a variable of its own family
            assert r.body == join(var("Y"), var(r.var))

    def test_renamed_formula_binder_introduces_an_fvar(self):
        r = substitute(NuF("Y", And(FVar("X"), Next(FVar("Y")))), "X",
                       FVar("Y"))
        assert r.var != "Y"
        assert r.body.right == Next(FVar(r.var))  # an FVar, not a Var

    def test_identity_substitution(self):
        rng = random.Random(5)
        for _ in range(50):
            e = gen_expr(rng, AB, rng.randint(1, 10), bound=("Z",))
            assert substitute(e, "Z", Var("Z")) == e


class TestFreeVars:
    def test_examples(self):
        assert free_vars(Mu("X", Act("a", Var("X")))) == frozenset()
        assert free_vars(Sum(Var("X"), Nu("Y", Var("Y")))) == {"X"}
        assert free_vars(Mu("X", Sum(Var("X"), Var("Y")))) == {"Y"}

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_substitution_law(self, seed):
        for _var, _mu, _join, gen in FAMILIES:
            rng = random.Random(seed)
            e = gen(rng, rng.randint(1, 9), ("X", "W"))
            c = gen(rng, rng.randint(1, 6), ("W",))
            got = free_vars(substitute(e, "X", c))
            want = free_vars(e) - {"X"}
            if "X" in free_vars(e):
                want |= free_vars(c)
            assert got == want


class TestNodeMemo:
    def test_memo_is_invisible_to_equality_hash_and_repr(self):
        e, fresh = (parse_expr("mu X. a.X + Y", AB) for _ in range(2))
        assert free_vars(e) == {"Y"} and alpha_key(e) == "mu0(+(a[a](b0),f:Y;))"
        assert set(vars(e)) == {"var", "body", "free_vars", "alpha_key"}
        assert set(vars(fresh)) == {"var", "body"}
        assert e == fresh and hash(e) == hash(fresh) and repr(e) == repr(fresh)
        assert [f.name for f in fields(e)] == ["var", "body"]


def _rename_binders(t, rng):
    """An alpha-variant of t: each binder keeps its name or takes one drawn
    from a small pool, unless that would capture a free variable."""
    if isinstance(t, BINDERS):
        new = rng.choice([t.var, "X0", "X1", "V", "W"])
        if new in free_vars(t.body) - {t.var}:
            new = t.var
        var = Var if isinstance(t, (Mu, Nu)) else FVar
        body = substitute(t.body, t.var, var(new))
        return type(t)(new, _rename_binders(body, rng))
    if isinstance(t, PREFIXES):
        return replace(t, body=_rename_binders(t.body, rng))
    if isinstance(t, LATTICE):
        return type(t)(_rename_binders(t.left, rng),
                       _rename_binders(t.right, rng))
    return t


class TestAlphaEq:
    """alpha_eq tries structural equality before alpha keys: it must agree
    with comparing the keys alone."""

    def test_matches_alpha_keys(self):
        rng = random.Random(41)
        seen = {"equal": 0, "renamed": 0, "different": 0}
        for _ in range(600):
            for _var, _mu, _join, gen in FAMILIES:
                a = gen(rng, rng.randint(1, 9), ("W",))
                for b in (gen(rng, rng.randint(1, 9), ("W",)),
                          _rename_binders(a, rng),
                          _rename_binders(_rename_binders(a, rng), rng)):
                    same = alpha_key(a) == alpha_key(b)
                    assert alpha_eq(a, b) == same
                    assert alpha_eq(b, a) == same
                    seen["equal" if a == b else "renamed" if same
                         else "different"] += 1
        assert min(seen.values()) >= 100, seen


# pieces of tokenizer input: identifiers, every symbol, symbol fragments,
# comments, newlines, Unicode whitespace, non-ASCII letters and digits
TOKEN_PIECES = [
    "a", "mu", "X_1", "_x", "top", "Ab9", "+", "&", "|", "~", "!", ".", "(",
    ")", "{", "}", ",", ";", "0", "->", "<->", "-", "<", ">", "# note", "#",
    "\n", " ", "\t", "\r", "\x85", "\x1c", "\u3000", "\xa0", "\u2028", "é",
    "λ", "ß", "Ω", "1", "9", "*", "=", "[", "\x00"]


def _outcome(lex, text):
    """lex(text), or the type and message of the error it raises."""
    try:
        return lex(text)
    except Exception as err:
        return type(err), str(err)


def _lex(text):
    """tokenize's tokens as (kind, value, position) triples, the positions
    found by rescanning the text."""
    tokens = tokenize(text)
    return list(zip(map(token_kind, tokens), tokens, token_positions(text),
                    strict=True))


def _ref_lex(text):
    return [(t.kind, t.value, t.pos) for t in reference_tokenize(text)]


class TestTokenize:
    """The one-regex tokenizer against the symbol-loop tokenizer it
    replaced."""

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from(TOKEN_PIECES) | st.text(max_size=2),
                    max_size=12).map("".join))
    def test_matches_reference(self, text):
        assert _outcome(_lex, text) == _outcome(_ref_lex, text)

    def test_pieces_alone_and_in_pairs(self):
        for a in TOKEN_PIECES:
            for b in [""] + TOKEN_PIECES:
                text = a + b
                assert _outcome(_lex, text) == _outcome(_ref_lex, text)

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match=r"unexpected character '-' "
                                             r"\(at position 2\)"):
            tokenize("a -b")


# pieces of parser input: identifiers, every symbol, binder heads, prefixes,
# literals, powerset letters, comments and parentheses
PARSE_PIECES = [
    "a", "b", "c", "X", "Y", "P", "Q", "R", "mu", "nu", "top", "ff", "tt", "O",
    "props", "+", "&", "|", "~", "!", ".", "(", ")", "{", "}", ",", ";", "0",
    "->", "<->", "mu X.", "nu Y.", "mu P.", "a.", "b.", "{P}.", "~P", "{P,Q}",
    "{}", "# note\n", "(", ")"]
# operands of both syntaxes, for chains of infix operators
OPERANDS = ["P", "~Q", "O P", "! Q", "X", "tt", "ff", "(P | Q)", "a.X", "top",
            "0", "{P}.X", "(b.0 + a.top)", "mu X. X", "nu Y. O Y"]
INFIX = ["+", "&", "|", "->", "<->"]


def _chain(pairs):
    """The operands of (operand, operator) pairs joined by the operators
    between them."""
    return " ".join(f"{x} {op}" for x, op in pairs[:-1]) + " " + pairs[-1][0]


def _printed(seed):
    """A printed random expression over a b or P Q, or muLTL formula."""
    rng = random.Random(seed)
    kind = seed % 3
    e = gen_expr(rng, PQ if kind else AB, rng.randint(1, 14))
    return print_expr(algebra.to_multl(e, PQ) if kind == 2 else e)


def _parse(parse, text, ab, closed):
    try:
        return parse(text, ab, require_closed=closed)
    except Exception as err:
        return type(err), str(err)


class TestAgainstReferenceParser:
    """The precedence-climbing parser against the recursive-descent parsers
    it replaced: an equal term, or an equal exception type and message."""

    @settings(max_examples=1500, deadline=None, derandomize=True)
    @given(st.sampled_from(["", " "]).flatmap(
        lambda sep: st.lists(st.sampled_from(PARSE_PIECES), min_size=1,
                             max_size=14).map(sep.join))
        | st.lists(st.tuples(st.sampled_from(OPERANDS), st.sampled_from(INFIX)),
                   min_size=1, max_size=6).map(_chain)
        | st.integers(0, 10**6).map(_printed))
    def test_matches_reference(self, text):
        for parse, reference in [(parse_expr, reference_parse_expr),
                                 (parse_formula, reference_parse_formula)]:
            for ab in (AB, PQ):
                for closed in (False, True):
                    assert _parse(parse, text, ab, closed) == \
                        _parse(reference, text, ab, closed)


# operands for texts that share groups: each syntax and alphabet's own, and
# faulty ones: undeclared letters and propositions, a binder named as a
# proposition, the other syntax's pieces and malformed fragments
MEMO_SYNTAXES = [
    (parse_expr, reference_parse_expr, AB, ["+", "&"],
     ["a.X", "b.0", "top", "0", "X", "mu X. a.X", "nu Y. b.Y + X", "a.b.top"]),
    (parse_expr, reference_parse_expr, PQ, ["+", "&"],
     ["{P}.X", "{Q,P}.top", "{}.0", "top", "X", "mu X. {P}.X", "{ Q }.Y"]),
    (parse_formula, reference_parse_formula, PQ, ["|", "&", "->", "<->"],
     ["P", "~Q", "O P", "! Q", "X", "tt", "ff", "mu X. X", "nu Y. O Y & P"]),
]
MEMO_FAULTS = ["c.X", "{R}.top", "~R", "mu P. P", "a b", "(", "+ P", "mu X.",
               "", "{P,}.0", "a.X", "P", "{P}.X", "->", "|", "+"]
SPACES = ["", " ", "  ", "\n", " # note\n", "\t"]


def _memo_texts(seed, infix, operands):
    """Forty texts over a few operands, nested in parentheses and joined by
    infix operators with varied whitespace, so that many parenthesised
    groups recur, valid or not, across texts."""
    rng = random.Random(seed)
    pool = rng.sample(operands, 5) + [_printed(rng.randrange(10**6))]

    def piece(depth):
        if depth and rng.random() < 0.6:
            return "(" + chain(depth - 1) + ")"
        return rng.choice(MEMO_FAULTS if rng.random() < 0.04 else pool)

    def chain(depth):
        parts = [piece(depth) for _ in range(rng.randint(1, 3))]
        ops = [rng.choice(SPACES) + rng.choice(infix) + rng.choice(SPACES)
               for _ in parts[1:]]
        return parts[0] + "".join(op + p for op, p in zip(ops, parts[1:]))

    return [chain(3) for _ in range(40)]


class _CountingMemo(dict):
    """A group memo that counts its hits."""
    hits = 0

    def get(self, key, default=None):
        t = super().get(key, default)
        self.hits += t is not None
        return t


class TestGroupMemo:
    """Parsing through one memo shared by a sequence of texts gives what
    parsing each text alone, without a memo, gives: an equal term, or an
    equal exception type and message."""

    @pytest.mark.parametrize("seed", range(40))
    def test_shared_memo_matches_parses_one_at_a_time(self, seed):
        outcomes, hits = [], 0
        for parse, reference, ab, infix, operands in MEMO_SYNTAXES:
            texts = _memo_texts(seed, infix, operands)
            for closed in (False, True):
                memo = _CountingMemo()

                def shared(text, ab, require_closed):
                    return parse(text, ab, require_closed, memo=memo)

                for text in texts:
                    got = _parse(shared, text, ab, closed)
                    assert got == _parse(parse, text, ab, closed), text
                    assert got == _parse(reference, text, ab, closed), text
                    outcomes.append(got)
                hits += memo.hits
        # the texts reach the memo, and both parse and fail
        assert hits >= 40
        errors = sum(isinstance(o, tuple) for o in outcomes)
        assert 0.1 < errors / len(outcomes) < 0.9

    def test_failed_group_fails_again(self):
        memo = {}
        for text in ["(c.X) + a.X", "a.X & (c.X)"]:
            with pytest.raises(AlphabetError, match="undeclared letter 'c'"):
                parse_expr(text, AB, memo=memo)
        assert memo == {}

    def test_unbalanced_group_is_not_a_hit(self):
        memo = {}
        assert parse_expr("(a.X)", AB, memo=memo) == Act("a", Var("X"))
        for text, message in [("(a.X", "expected ')', found ''"),
                              ("((a.X)", "expected ')', found ''")]:
            with pytest.raises(ParseError, match=re.escape(message)):
                parse_expr(text, AB, memo=memo)

    def test_groups_of_a_derivation_are_shared(self):
        """The text of a parenthesised subterm of several claims of a loaded
        generated derivation maps to one object, found in all of them."""
        e = gen_expr(random.Random(11), AB, 24)
        for d in derive_complement(e, AB):
            data = json.loads(json.dumps(derivation_to_json(d)))
            d = derivation_from_json(data)
            claims = set(_claim_texts(data["steps"]))
            most = 0
            for key, g in d.terms.items():
                if key in claims:
                    continue
                inside = [text for text in claims if f"({key})" in text]
                for text in inside:
                    assert any(s is g for s in subexpressions(d.terms[text]))
                most = max(most, len(inside))
            assert most >= 5

    def test_memo_keys_are_texts(self):
        """Loading and checking a derivation keys its memo on texts alone."""
        e = gen_expr(random.Random(11), AB, 24)
        for d in derive_complement(e, AB):
            d = derivation_from_json(json.loads(json.dumps(
                derivation_to_json(d))))
            assert check_rll(d) == Verdict.ok()
            assert d.terms and all(type(key) is str for key in d.terms)


def _claim_texts(steps: list) -> Iterator[str]:
    """The lhs and rhs texts of each claim of JSON steps, hypotheses' too."""
    for s in steps:
        yield s["claim"]["lhs"]
        yield s["claim"]["rhs"]
        yield from _claim_texts(s.get("hyp", {}).get("steps", []))


class TestGroupsFoundByText:
    """A memo that holds a group's text: the parse lexes around the group,
    and gives what a parse without a memo gives, error positions included,
    also where the error is at the group's bracket."""

    @pytest.mark.parametrize("text", [
        "a.X (b.0)", "mu (b.0). X", "a.X + (b.0) (b.0)", "((b.0)", "(b.0))",
        "(b.0) $", "c.(b.0)", "(b.0) + (b.0 # )\n)", "# (b.0)\n(b.0) + (",
        "a.(b.0) & (b.0)"])
    def test_outcome_as_without_memo(self, text):
        memo = _CountingMemo({"b.0": parse_expr("b.0", AB)})

        def shared(text, ab, require_closed):
            return parse_expr(text, ab, require_closed, memo=memo)

        assert _parse(shared, text, AB, False) == \
            _parse(parse_expr, text, AB, False)
        assert memo.hits


class TestPrintParse:
    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_expr_roundtrip(self, seed):
        rng = random.Random(seed)
        e = gen_expr(rng, AB, rng.randint(1, 14))
        assert alpha_eq(parse_expr(print_expr(e), AB), e)

    def test_formula_roundtrip(self):
        texts = ["nu X. (Q | (P & O X))", "~P | O O Q", "ff & tt",
                 "mu X. P | O X", "O (P & (Q | ~Q))"]
        phis = [parse_formula(text, PQ) for text in texts]
        rng = random.Random(3)
        phis += [gen_formula(rng, rng.randint(1, 14), ()) for _ in range(100)]
        for phi in phis:
            assert alpha_eq(parse_formula(print_expr(phi), PQ), phi)

    def test_printer_parenthesizes_right_nesting(self):
        e = Sum(Var("X"), Sum(Var("Y"), Var("Z")))
        assert print_expr(e) == "X + (Y + Z)"
        assert parse_expr(print_expr(e), AB) == e


class TestNegation:
    def test_examples(self):
        assert negate_formula(Prop("P")) == NegProp("P")
        assert negate_formula(Next(Prop("P"))) == Next(NegProp("P"))
        assert negate_formula(MuF("X", FVar("X"))) == NuF("X", FVar("X"))

    def test_involution(self):
        texts = ["nu X. (Q | (P & O X))", "P -> Q", "mu Y. O Y & ~P",
                 "ff | (tt & P)"]
        for text in texts:
            phi = parse_formula(text, PQ)
            assert negate_formula(negate_formula(phi)) == phi

    def test_alpha_keys_distinguish_binders(self):
        assert not alpha_eq(MuF("X", FVar("X")), NuF("X", FVar("X")))
        assert alpha_eq(MuF("X", FVar("X")), MuF("Y", FVar("Y")))
