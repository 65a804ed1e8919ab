"""Lassos and the fixpoint evaluator (the membership oracle)."""

import gc
import random
import signal
import time
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (desk_lassos, reference_enumerate_lassos,
                     reference_eval_multl, reference_eval_rll,
                     reference_lasso_normalize, reference_letter_masks,
                     reference_mask_eval_multl, reference_mask_eval_rll,
                     reference_parse_lasso)
from rll.algebra import complement, to_multl
from rll.corpus import agreement_pairs, gen_alphabet, gen_expr, gen_lasso
from rll.game import member_game
from rll import semantics
from rll.semantics import (MAX_LASSOS, QUOTE_CAP, Lasso, LassoColumns,
                           SemanticsError, _letter_masks, enumerate_lassos,
                           eval_multl, eval_rll, lasso_normalize,
                           member_oracle, models, parse_lasso, print_lasso)
from rll.syntax import (Act, Alphabet, AlphabetError, And, FVar, Meet, MuF,
                        Mu, Next, Nu, NuF, Or, ParseError, Prop, RllError,
                        Sum, Var, parse_expr, parse_formula, sum_of)

AB = Alphabet.plain("a", "b")
P1 = Alphabet.powerset("P")


def lasso(text, ab=AB):
    return parse_lasso(text, ab)


class TestLasso:
    def test_empty_period_refused(self):
        with pytest.raises(SemanticsError,
                           match="lasso period must be nonempty"):
            Lasso((), (), AB)

    def test_positions_and_wrap(self):
        w = lasso("ab(ba)")
        assert w.length == 4
        assert [w.letter_at(i) for i in range(4)] == ["a", "b", "b", "a"]
        assert w.succ(3) == 2  # wraps to the period start

    def test_parse_print_roundtrip(self):
        for text in ["(a)", "ab(ba)", "b(ab)", "(abab)"]:
            assert print_lasso(lasso(text)) == text

    def test_powerset_format(self):
        ab = Alphabet.powerset("P", "Q")
        w = parse_lasso("{P}{P,Q}({})", ab)
        assert w.prefix == ("{P}", "{P,Q}")
        assert w.period == ("{}",)

    def test_powerset_letter_spellings(self):
        """A braced letter reads as the set it names, as in expressions:
        propositions in any order, repeated, spaced."""
        ab = Alphabet.powerset("P", "Q")
        w = parse_lasso("{Q,P}({P,P,Q}{ Q })", ab)
        assert w == parse_lasso("{P,Q}({P,Q}{Q})", ab)
        assert w.prefix[0] == parse_expr("{Q,P}.top", ab).letter
        for text, err in (("({R})", AlphabetError), ("({P,})", ParseError),
                          ("({P}", ParseError), ("{P}(a)", ParseError)):
            with pytest.raises(err):
                parse_lasso(text, ab)
        with pytest.raises(AlphabetError):
            lasso("({a})")

    @pytest.mark.parametrize("text,pos", [
        ("ac(b)", 1), (" ac(b)", 2), ("a(bc)", 3), (" a(bc)", 4),
        ("\t a()", 3)])
    def test_error_positions_count_from_the_text_as_given(self, text, pos):
        """Leading whitespace counts, in the prefix and in the period."""
        with pytest.raises(ParseError) as err:
            lasso(text)
        assert err.value.pos == pos
        assert str(err.value).endswith(f"(at position {pos})")

    @pytest.mark.parametrize("text", [
        "({Q,\tP})", "({Q,\nP})", "( {\tQ ,P } )", "({Q, # note\n P})"])
    def test_braced_letter_whitespace(self, text):
        """Whitespace and comments between a braced letter's names read as
        in an expression, where {P,\tQ}.X parses."""
        pq = Alphabet.powerset("P", "Q")
        assert lasso(text, pq) == lasso("({P,Q})", pq)

    @pytest.mark.parametrize("text,expr,message", [
        ("({Q,})", "{Q,}.X", "expected 'ident', found '}'"),
        ("{P}({P Q})", "{P Q}.X", "expected '}', found 'Q'"),
        ("({,P})", "{,P}.X", "expected 'ident', found ','"),
        ("( {P;} )", "{P;}.X", "expected '}', found ';'")])
    def test_braced_letter_errors_as_in_expressions(self, text, expr,
                                                    message):
        """A malformed braced letter is the expression parser's ParseError,
        at its position in the lasso."""
        pq = Alphabet.powerset("P", "Q")
        with pytest.raises(ParseError) as in_expr:
            parse_expr(expr, pq)
        with pytest.raises(ParseError) as err:
            lasso(text, pq)
        assert in_expr.value.message == err.value.message == message
        # the same token, counted from the lasso's text
        shift = text.rindex("{") - expr.index("{")
        assert err.value.pos == in_expr.value.pos + shift

    def test_empty_period_rejected(self):
        with pytest.raises(Exception):
            lasso("ab()")

    def test_empty_letter_is_never_read(self):
        """An empty plain letter would read nothing: the alphabet refuses
        it, as no expression text can name it."""
        with pytest.raises(AlphabetError,
                           match="^'' cannot be a letter name$"):
            Alphabet.plain("a", "")

    def test_foreign_letter_rejected(self):
        with pytest.raises(Exception):
            lasso("c(a)")


def outcome(parse, text, ab):
    """What parse makes of text: its lasso, or its error's type, message
    and position."""
    try:
        return parse(text, ab)
    except RllError as err:
        return type(err), str(err), getattr(err, "pos", None)


WHITESPACE = [" ", "\t", "\n", "\x1c", "\x1f", "\u00a0", "\u2003"]
STRAY = ["{", "}", "(", ")", "c", "#", ",", "\u00e9", "x y", "{a}"]
OVERLAPPING = Alphabet.plain("a", "ab", "ba", "b")
PLAIN_ALPHABETS = [AB, OVERLAPPING, Alphabet.plain("a", "aa", "aab", "b"),
                   Alphabet.plain("ab", "bc", "a")]
PQ = Alphabet.powerset("P", "Q")
SPELLINGS = ["{Q,P}", "{P,P,Q}", "{ Q }", "{\tP ,Q}", "{P, # c\n Q}", "{R}",
             "{P,}", "{,P}", "{P Q}", "{P", "P", "{}{}", "{ }"]
PROPS16 = Alphabet.powerset(*(f"P{i}" for i in range(16)))


def random_lasso_text(rng: random.Random, ab: Alphabet) -> str:
    """A lasso text over ab, mostly well formed: letters, whitespace, and
    now and then a stray character, a non-canonical braced letter, an empty
    prefix or period, or a missing bracket."""
    def chunk(most: int) -> str:
        pieces = []
        for _ in range(rng.randint(0, most)):
            roll = rng.random()
            if roll < 0.15:
                pieces.append(rng.choice(WHITESPACE))
            elif roll < 0.17:
                pieces.append(rng.choice(STRAY))
            elif roll < 0.3 and ab.props is not None:
                pieces.append(rng.choice(SPELLINGS))
            else:
                pieces.append(rng.choice(ab.letters))
        return "".join(pieces)

    most = rng.choice([3, 8, 40])
    text = chunk(most) + "(" + chunk(most) + ")"
    roll = rng.random()
    if roll < 0.05:
        text = text[:-1]
    elif roll < 0.1:
        text = text.replace("(", "", 1)
    elif roll < 0.25:
        text = rng.choice(WHITESPACE) + text + rng.choice(WHITESPACE)
    return text


class TestLassoMatchesReference:
    """The findall reader, the counted folds and the translated masks agree
    with the scanner, the rebuilding fold and the per-position ORs they
    replaced (kept in ``helpers``)."""

    @given(st.integers(0, 10**9))
    @settings(max_examples=1500, deadline=None)
    def test_parse(self, seed):
        rng = random.Random(seed)
        ab = rng.choice(PLAIN_ALPHABETS + [PQ, P1])
        text = random_lasso_text(rng, ab)
        assert (outcome(parse_lasso, text, ab)
                == outcome(reference_parse_lasso, text, ab)), text

    @pytest.mark.parametrize("text", [
        "(a)", "ab(ba)", " ab ( ba ) ", "aab\t(\x1cbab)", "a(bc)", "()",
        "a{(b)", "a}(b)", "((a))", "a(b", "ab(ba))", "{a}(b)", "abc(ab)"])
    def test_parse_cases(self, text):
        """Fixed cases over each plain alphabet, overlapping letters among
        them, where the longest letter wins at each position."""
        for ab in PLAIN_ALPHABETS:
            assert (outcome(parse_lasso, text, ab)
                    == outcome(reference_parse_lasso, text, ab)), (text, ab)

    def test_letters_the_scanner_reads_alone(self):
        """A plain letter that begins with whitespace or a brace, or holds
        a space, is no identifier: the alphabet refuses it, so the scanner
        never meets one."""
        for letter in ("{a}", " a", "{", "a b"):
            with pytest.raises(AlphabetError,
                               match=f"^{letter!r} cannot be a letter name$"):
                Alphabet.plain(letter, "b")

    def test_letters_alone_are_never_scanned(self, monkeypatch):
        """Text that reads into letters alone, braced letters in their
        canonical spelling among them, is read by one findall of the token
        pattern per chunk: it is never walked token by token, and no braced
        letter is parsed."""
        texts = [("ab(ba)", OVERLAPPING), (" a \t b(\x1cab )", AB),
                 ("{P}{P,Q}({} {Q})", PQ), ("{}\t{Q}({P,Q} )", PQ)]
        expected = [parse_lasso(text, ab) for text, ab in texts]
        reader = semantics._reader

        def findall_alone(ab):
            return SimpleNamespace(findall=reader(ab).findall)

        def refuse(*args):
            raise AssertionError("braced letter parsed")

        monkeypatch.setattr(semantics, "_reader", findall_alone)
        monkeypatch.setattr(semantics, "parse_braced_letter", refuse)
        assert [parse_lasso(text, ab) for text, ab in texts] == expected

    def test_errors_quote_a_bounded_text(self):
        """An error quotes at most ``QUOTE_CAP`` characters of the unread
        text, then ``...``; a shorter rest is quoted whole."""
        with pytest.raises(ParseError) as err:
            lasso("ac" + "a" * 50_000 + "(b)")
        assert err.value.message == (
            f"no letter matches here: {'c' + 'a' * (QUOTE_CAP - 1)!r}...")
        with pytest.raises(ParseError) as err:
            lasso("a" * 50_000 + "c" + "a" * (QUOTE_CAP - 1) + "(b)")
        assert err.value.pos == 50_000
        assert err.value.message == (
            f"no letter matches here: {'c' + 'a' * (QUOTE_CAP - 1)!r}")

    @given(st.integers(0, 10**9))
    @settings(max_examples=400, deadline=None)
    def test_normalize(self, seed):
        """Random prefixes and periods, with periods that are powers and
        prefixes ending in a suffix of the period's powers, so that folds run
        past a whole period."""
        rng = random.Random(seed)
        ab = rng.choice([AB, Alphabet.plain("a"), OVERLAPPING])
        root = [rng.choice(ab.letters) for _ in range(rng.randint(1, 4))]
        period = root * rng.randint(1, 4)
        turn = rng.randrange(len(period))
        period = period[turn:] + period[:turn]
        tail = (period * 4)[len(period) * 4 - rng.randint(0, 3 * len(period)):]
        prefix = [rng.choice(ab.letters) for _ in range(rng.randint(0, 5))]
        w = Lasso(tuple(prefix + tail), tuple(period), ab)
        assert lasso_normalize(w) == reference_lasso_normalize(w)

    @given(st.integers(0, 10**9))
    @settings(max_examples=120, deadline=None)
    def test_letter_masks(self, seed):
        """Lassos of up to 5,000 letters over plain alphabets and over 16
        propositions, with few distinct letters or with many: on both sides
        of ``_CODED_LETTERS`` in length and in distinct letters."""
        rng = random.Random(seed)
        if seed % 2:
            ab = rng.choice(PLAIN_ALPHABETS + [Alphabet.plain("a")])
            pool = ab.letters
        else:
            ab = PROPS16
            pool = rng.sample(ab.letters, rng.choice([1, 2, 31, 32, 33, 300,
                                                      5000]))
        n = rng.choice([1, 2, 7, 64, 1000, 5000])
        word = [rng.choice(pool) for _ in range(n)]
        cut = rng.randrange(n)
        w = Lasso(tuple(word[:cut]), tuple(word[cut:]), ab)
        assert _letter_masks(w) == reference_letter_masks(w)


class TestNormalize:
    def test_examples(self):
        assert print_lasso(lasso_normalize(lasso("aa(a)"))) == "(a)"
        assert print_lasso(lasso_normalize(lasso("ab(ab)"))) == "(ab)"
        assert print_lasso(lasso_normalize(lasso("(abab)"))) == "(ab)"

    @given(st.integers(0, 100_000))
    @settings(max_examples=150, deadline=None)
    def test_normal_form_denotes_same_word(self, seed):
        rng = random.Random(seed)
        w = gen_lasso(rng, AB, 3, 4)
        n = lasso_normalize(w)
        span = 2 * (w.length + n.length)
        assert w.unroll(span) == n.unroll(span)

    @given(st.integers(0, 100_000))
    @settings(max_examples=150, deadline=None)
    def test_pumped_variants_share_normal_form(self, seed):
        rng = random.Random(seed)
        w = gen_lasso(rng, AB, 2, 3)
        rotated = Lasso(w.prefix + (w.period[0],),
                        w.period[1:] + (w.period[0],), AB)
        doubled = Lasso(w.prefix, w.period * 2, AB)
        assert lasso_normalize(w) == lasso_normalize(rotated)
        assert lasso_normalize(w) == lasso_normalize(doubled)

    def test_membership_invariant_under_normalization(self):
        rng = random.Random(3)
        for _ in range(150):
            e = gen_expr(rng, AB, rng.randint(1, 10))
            w = gen_lasso(rng, AB, 3, 4)
            assert member_oracle(e, w) == member_oracle(e, lasso_normalize(w))


class TestEnumerate:
    def test_order_starts_with_unit_periods(self):
        got = [print_lasso(w) for w in desk_lassos(AB, 1, 2)]
        assert got[:2] == ["(a)", "(b)"]
        assert len(got) == len(set(got))
        # all listed lassos are in normal form
        for w in desk_lassos(AB, 1, 2):
            assert lasso_normalize(w) == w

    def test_empty_bounds_rejected(self):
        for max_prefix, max_period, name in ((-1, 2, "max-prefix"),
                                             (1, 0, "max-period")):
            with pytest.raises(SemanticsError, match=name):
                desk_lassos(AB, max_prefix, max_period)

    def test_candidate_cap(self):
        """The words tried are the sum of |alphabet|^(|u|+|v|) over the
        lengths; past MAX_LASSOS of them nothing is yielded."""
        assert MAX_LASSOS == 2**20
        one = Alphabet.plain("a")
        assert next(enumerate_lassos(one, MAX_LASSOS - 1, 1,
                                     LassoColumns(one))) == 1
        abc = Alphabet.plain("a", "b", "c")
        # (1 + 3 + ... + 3^6) * (3 + ... + 3^5) = 1093 * 363 = 396,759 words
        assert next(enumerate_lassos(abc, 6, 5, LassoColumns(abc))) == 1
        for alphabet, max_prefix, max_period in [
                (one, MAX_LASSOS, 1), (one, 2**10, 2**10), (abc, 6, 6),
                (abc, 7, 5), (AB, 40, 3), (AB, 0, 10**12), (AB, 10**12, 1)]:
            with pytest.raises(SemanticsError, match="would try over 1048576"):
                next(enumerate_lassos(alphabet, max_prefix, max_period,
                                      LassoColumns(alphabet)))


class TestEnumerateOneLetter:
    """Over one letter no nonempty prefix is normal and no period longer
    than 1 is primitive, so (a) is the only lasso at any bounds. The calls
    run under an alarm: scanning the bounds' candidates instead took
    seconds at a prefix bound of a few thousand."""

    def test_only_unit_period(self):
        one = Alphabet.plain("a")

        def stop(signum, frame):
            raise TimeoutError("enumerate_lassos did not return")

        handler = signal.signal(signal.SIGALRM, stop)
        signal.alarm(2)
        try:
            got = [desk_lassos(one, max_prefix, max_period)
                   for max_prefix, max_period in ((1048000, 1),
                                                  (0, MAX_LASSOS))]
            columns = LassoColumns(one)
            lengths = list(enumerate_lassos(one, 1023, 1023, columns))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, handler)
        assert got == [[Lasso((), ("a",), one)]] * 2
        assert lengths == [1]
        assert [list(columns.heads), list(columns.tails),
                list(columns.lengths)] == [[0], [0], [1]]
        assert columns.lasso(0) == Lasso((), ("a",), one)


class TestEnumerateMatchesReference:
    """The tuple test of normality against normalising every candidate
    (``tests/helpers.py``)."""

    @pytest.mark.parametrize("letters", ["a", "ab", "abc"])
    def test_same_lassos_in_same_order(self, letters):
        """Over ``a b`` up to period length 6, which has two proper
        divisors above 1, 2 and 3, each clearing its own powers."""
        ab = Alphabet.plain(*letters)
        for max_prefix in range(5):
            for max_period in range(1, 7 if letters == "ab" else 5):
                assert desk_lassos(ab, max_prefix, max_period) \
                    == list(reference_enumerate_lassos(ab, max_prefix,
                                                       max_period))

    @pytest.mark.parametrize("letters", ["ab", "abc"])
    def test_tails_are_the_tails_indices(self, letters):
        """Each lasso's entry in ``tails`` is its tail's index in the
        enumeration, u[1:](v) for a nonempty u, else (v[1:] v[0]), and it
        is there when the lasso's length is yielded, as are its tails'
        entries, its first letter and its length."""
        ab = Alphabet.plain(*letters)
        for max_prefix in range(4):
            for max_period in range(1, 7 - len(letters)):
                columns = LassoColumns(ab)
                heads, tails = columns.heads, columns.tails
                lengths = columns.lengths
                yielded = []
                for n in enumerate_lassos(ab, max_prefix, max_period,
                                          columns):
                    yielded.append(n)  # every tail reached is known by now
                    assert max(tails) < len(tails) >= len(yielded)
                    assert len(heads) == len(lengths) == len(tails)
                lassos = list(reference_enumerate_lassos(ab, max_prefix,
                                                         max_period))
                index = {(w.prefix, w.period): i
                         for i, w in enumerate(lassos)}
                assert len(tails) == len(lassos)
                assert yielded == list(lengths) == [w.length for w in lassos]
                for w, head, t in zip(lassos, heads, tails):
                    u, v = w.prefix, w.period
                    assert ab.letters[head] == (u + v)[0]
                    assert t == index[(u[1:], v) if u
                                      else ((), v[1:] + v[:1])]

    @pytest.mark.parametrize("letters", ["a", "ab", "abc"])
    def test_columns_read_back_the_lassos(self, letters):
        """Lasso i read back from the columns is the reference's i-th, at
        every bound up to (4, 4) and at (8, 1)."""
        ab = Alphabet.plain(*letters)
        bounds = [(p, q) for p in range(5) for q in range(1, 5)] + [(8, 1)]
        for max_prefix, max_period in bounds:
            columns = LassoColumns(ab)
            n = len(list(enumerate_lassos(ab, max_prefix, max_period,
                                          columns)))
            assert [*map(columns.lasso, range(n))] == \
                list(reference_enumerate_lassos(ab, max_prefix, max_period))

    def test_normalises_no_candidate(self, monkeypatch):
        """Normality is tested on the tuples, not by lasso_normalize."""
        monkeypatch.setattr("rll.semantics.lasso_normalize", None)
        assert len(desk_lassos(AB, 3, 4)) == 176


class TestEvalRll:
    def test_nu_ax_on_pure_a(self):
        e = parse_expr("nu X. a.X", AB)
        assert eval_rll(e, lasso("(a)")) == {0}

    def test_nu_ax_on_ab(self):
        e = parse_expr("nu X. a.X", AB)
        assert eval_rll(e, lasso("(ab)")) == frozenset()

    def test_formula_is_no_expression(self):
        with pytest.raises(TypeError,
                           match=r"not an expression: Prop\(name='P'\)"):
            eval_rll(Prop("P"), parse_lasso("({P})", P1))

    def test_mu_x_x_is_empty(self):
        e = parse_expr("mu X. X", AB)
        for w in ["(a)", "ab(ba)"]:
            assert eval_rll(e, lasso(w)) == frozenset()

    def test_nu_x_x_is_full(self):
        e = parse_expr("nu X. X", AB)
        w = lasso("ab(ba)")
        assert eval_rll(e, w) == frozenset(range(4))

    def test_constants(self):
        w = lasso("a(b)")
        assert eval_rll(parse_expr("0", AB), w) == frozenset()
        assert eval_rll(parse_expr("top", AB), w) == frozenset(range(2))

    def test_unbound_variable(self):
        with pytest.raises(SemanticsError):
            eval_rll(Var("X"), lasso("(a)"))

    def test_member_examples(self):
        ia = parse_expr("nu X. mu Y. (a.X + b.Y)", AB)
        fb = parse_expr("mu X. (b.X + a.X + a.(nu Y. a.Y))", AB)
        assert member_oracle(ia, lasso("(ab)"))
        assert not member_oracle(ia, lasso("a(b)"))
        assert member_oracle(fb, lasso("(a)"))
        assert not member_oracle(fb, lasso("(ab)"))

    def test_member_needs_closed(self):
        with pytest.raises(SemanticsError):
            member_oracle(Var("X"), lasso("(a)"))


class TestSemanticLaws:
    def test_monotonicity(self):
        rng = random.Random(17)
        for _ in range(80):
            e = gen_expr(rng, AB, rng.randint(1, 9), bound=("Z",))
            w = gen_lasso(rng, AB, 2, 3)
            positions = list(range(w.length))
            small = frozenset(p for p in positions if rng.random() < 0.4)
            extra = frozenset(p for p in positions if rng.random() < 0.4)
            big = small | extra
            assert eval_rll(e, w, {"Z": small}) <= eval_rll(e, w, {"Z": big})

    def test_lattice_clauses(self):
        rng = random.Random(23)
        for _ in range(60):
            f = gen_expr(rng, AB, rng.randint(1, 7))
            g = gen_expr(rng, AB, rng.randint(1, 7))
            w = gen_lasso(rng, AB, 2, 3)
            ef, eg = eval_rll(f, w), eval_rll(g, w)
            assert eval_rll(Sum(f, g), w) == ef | eg
            assert eval_rll(Meet(f, g), w) == ef & eg

    def test_fixpoints_are_extremal_by_enumeration(self):
        # brute force over all candidate sets on words with <= 4 positions
        rng = random.Random(31)
        from itertools import chain, combinations
        for _ in range(60):
            body = gen_expr(rng, AB, rng.randint(1, 6), bound=("X",))
            w = gen_lasso(rng, AB, 2, 2)
            n = w.length
            universe = list(range(n))
            subsets = [frozenset(c) for c in chain.from_iterable(
                combinations(universe, k) for k in range(n + 1))]
            op = {s: eval_rll(body, w, {"X": s}) for s in subsets}
            prefixed = [s for s in subsets if op[s] <= s]
            postfixed = [s for s in subsets if s <= op[s]]
            lfp = frozenset.intersection(*prefixed)
            gfp = frozenset.union(*postfixed) if postfixed else frozenset()
            assert eval_rll(Mu("X", body), w) == lfp
            assert eval_rll(Nu("X", body), w) == gfp
            assert lfp in prefixed  # the least prefixed point is prefixed
            assert gfp in postfixed or not postfixed

    def test_fixpoint_equations_hold(self):
        rng = random.Random(37)
        from rll.syntax import substitute
        for _ in range(60):
            body = gen_expr(rng, AB, rng.randint(1, 7), bound=("X",))
            w = gen_lasso(rng, AB, 2, 3)
            for fix in (Mu("X", body), Nu("X", body)):
                s = eval_rll(fix, w)
                assert eval_rll(body, w, {"X": s}) == s


class TestBitMasks:
    """The compiled evaluators give the same position sets as the frozenset
    ones and the memoised bit-mask ones they replaced (kept in
    ``helpers``)."""

    @given(st.integers(0, 10**9))
    @settings(max_examples=600, deadline=None)
    def test_matches_frozenset_reference(self, seed):
        rng = random.Random(seed)
        kind, names = seed % 4, ()
        evaluate = eval_rll
        references = (reference_eval_rll, reference_mask_eval_rll)
        if kind == 0:  # the oracle-agreement corpus
            term, w = next(agreement_pairs(seed, 1))
        elif kind in (1, 2):  # long prefixes; open terms for kind 2
            ab = gen_alphabet(rng)
            names = ("X", "Y")[:rng.randint(1, 2)] if kind == 2 else ()
            term = gen_expr(rng, ab, rng.randint(1, 14), bound=names)
            w = gen_lasso(rng, ab, 40, 8)
        else:  # muLTL formulas, open or closed, over a powerset alphabet
            ab = Alphabet.powerset("P", "Q")
            names = ("X", "Y")[:rng.randint(0, 2)]
            term = to_multl(gen_expr(rng, ab, rng.randint(1, 12), names), ab)
            w = gen_lasso(rng, ab, 20, 6)
            evaluate = eval_multl
            references = (reference_eval_multl, reference_mask_eval_multl)
        env = {v: frozenset(i for i in range(w.length) if rng.random() < 0.5)
               for v in names}
        got = evaluate(term, w, env)
        assert type(got) is frozenset
        for reference in references:
            assert got == reference(term, w, env)

    def test_nested_binders_on_long_lassos(self):
        """Two nested binders, of one kind or alternating, over a body that
        mostly steps to each of them and may read a free variable, on lassos
        of 200 to 240 letters with long one-letter runs."""
        pq = Alphabet.powerset("P", "Q")
        nests = set()
        for seed in range(120):
            rng = random.Random(seed)
            ab = pq if seed % 2 else AB
            kinds = [rng.choice((Mu, Nu)) for _ in range(2)]
            nests.add(len(set(kinds)))
            names = tuple(f"V{k}" for k in range(len(kinds)))
            term = gen_expr(rng, ab, rng.randint(3, 10), bound=names + ("Z",))
            if rng.random() < 0.7:
                term = Sum(term, sum_of([Act(rng.choice(ab.letters), Var(v))
                                         for v in names]))
            for kind, name in zip(reversed(kinds), reversed(names)):
                term = kind(name, term)
            n = rng.randint(200, 240)
            letters = []
            while len(letters) < n:
                letters += [rng.choice(ab.letters)] * rng.choice((1, 2, 5, 30))
            cut = rng.randrange(n)
            w = Lasso(tuple(letters[:cut]), tuple(letters[cut:n]), ab)
            env = {"Z": frozenset(i for i in range(n) if rng.random() < 0.5)}
            evaluate = eval_rll
            references = (reference_eval_rll, reference_mask_eval_rll)
            if ab is pq:
                term = to_multl(term, ab)
                evaluate = eval_multl
                references = (reference_eval_multl, reference_mask_eval_multl)
            got = evaluate(term, w, env)
            for reference in references:
                assert got == reference(term, w, env), seed
        assert nests == {1, 2}  # same-kind and alternating nests both ran

    @pytest.mark.parametrize("text", [
        "mu X. (a.X + nu X. (b.X + a.Z))",
        "nu X. (b.X & mu X. (a.X + b.top)) + a.X",
        "nu Z. mu X. (a.Z + b.X) + Z",
        "(mu X. a.X + b.Z) + (nu X. b.X) + X"])
    def test_shadowed_names(self, text):
        """A variable reads its innermost binder, and its free variable
        again once that binder's scope ends."""
        e = parse_expr(text, AB)
        w = Lasso(tuple("ab" * 5), tuple("aab" * 3 + "b" * 4), AB)
        env = {"X": frozenset(range(0, 23, 3)),
               "Z": frozenset(range(0, 23, 2))}
        got = eval_rll(e, w, env)
        assert got == reference_eval_rll(e, w, env)
        assert got == reference_mask_eval_rll(e, w, env)

    def test_long_prefix(self):
        """A 700-letter prefix before a 700-letter one-letter period: the
        frozenset evaluator took 1.2-1.8 s here and 450 MB of memory."""
        rng = random.Random(13)
        ia = parse_expr("nu X. mu Y. (a.X + b.Y)", AB)
        w = Lasso(tuple(rng.choice("ab") for _ in range(700)), ("b",) * 700,
                  AB)
        start = time.perf_counter()
        got = eval_rll(complement(ia, AB), w)
        assert time.perf_counter() - start < 1.0
        assert got == frozenset(range(1400))

    def test_memory_stays_bounded(self):
        """On the oracle-scaling probe at n = 1,600 the oracle keeps one mask
        per node, not one per node and round: a memo of every round's masks
        peaked at 21.9 MB here. The answer is the game's."""
        e = parse_expr("nu V. mu W. nu X. mu Y. (a.V + b.W + a.b.X + b.a.Y)",
                       AB)
        n = 1600
        w = Lasso(("b",) * (n // 4), ("b",) * (n - 1) + ("a",), AB)
        gc.collect()
        tracemalloc.start()
        try:
            got = member_oracle(e, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert got == member_game(e, w)


class TestEvalMultl:
    def test_prop_clause(self):
        w = parse_lasso("({}{P})", P1)
        assert eval_multl(Prop("P"), w) == {1}

    def test_always_p(self):
        phi = parse_formula("nu X. (P & O X)", P1)
        assert models(phi, parse_lasso("({P})", P1))
        assert not models(phi, parse_lasso("({P}{})", P1))

    def test_eventually_p_positions(self):
        phi = MuF("X", Or(Prop("P"), Next(FVar("X"))))
        w = parse_lasso("{}{}({P})", P1)
        assert eval_multl(phi, w) == {0, 1, 2}

    def test_needs_powerset(self):
        with pytest.raises(SemanticsError):
            eval_multl(Prop("P"), lasso("(a)"))

    def test_expression_is_no_formula(self):
        with pytest.raises(TypeError, match=r"not a formula: Act\("):
            eval_multl(parse_expr("{P}.top", P1), parse_lasso("({P})", P1))

    def test_models_needs_a_closed_formula(self):
        with pytest.raises(SemanticsError,
                           match="satisfaction needs a closed formula"):
            models(parse_formula("P & O X", P1), parse_lasso("({P})", P1))

    def test_negprop_is_complementary(self):
        w = parse_lasso("{P}{}({P}{})", P1)
        pos = eval_multl(Prop("P"), w)
        neg = eval_multl(parse_formula("~P", P1), w)
        assert pos | neg == frozenset(range(w.length))
        assert pos & neg == frozenset()


class TestMemoRelease:
    """The evaluators leave no cyclic garbage behind for the collector."""

    def _garbage_after(self, run) -> int:
        gc.collect()
        gc.disable()
        try:
            run()
            return gc.collect()
        finally:
            gc.enable()

    def test_eval_rll(self):
        e = complement(parse_expr("nu X. mu Y. (a.X + b.Y)", AB), AB)
        w = Lasso(tuple("ab" * 48), tuple("b" * 400), AB)
        assert self._garbage_after(lambda: eval_rll(e, w)) < 50

    def test_eval_multl(self):
        phi = parse_formula("nu X. mu Y. ((P & O X) | O Y)", P1)
        w = Lasso(("{P}", "{}") * 48, ("{}",) * 400, P1)
        assert self._garbage_after(lambda: eval_multl(phi, w)) < 50
