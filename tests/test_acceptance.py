"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
come. Every tolerance and bound is pinned here, not configurable.
"""

import itertools
import random
import time

import pytest

from helpers import mutants, proof_paths
from rll import algebra
from rll.calculus import check_derivation, derive_complement, load_proof_file
from rll.corpus import agreement_pairs, gen_expr
from rll.game import equiv_bounded, member_game
from rll.semantics import (eval_rll, member_oracle, models, parse_lasso,
                           print_lasso)
from rll.syntax import (Alphabet, Mu, Nu, alpha_eq, parse_expr)

AB = Alphabet.plain("a", "b")

IA = "nu X. mu Y. (a.X + b.Y)"
FB = "mu X. (b.X + a.X + a.(nu Y. a.Y))"
BOTH = f"({IA}) & ({FB})"


def report(n, ok, detail):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_example_language_fidelity():
    """Curated membership table for the three example languages, via both
    the game and the oracle, in under a second."""
    table = [
        (IA, "(ab)", True), (IA, "(ba)", True), (IA, "b(ab)", True),
        (IA, "a(b)", False), (IA, "(b)", False),
        (FB, "(a)", True), (FB, "ab(a)", True),
        (FB, "(ab)", False), (FB, "(b)", False),
        (BOTH, "bb(a)", True), (BOTH, "(ab)", False), (BOTH, "(b)", False),
    ]
    t0 = time.time()
    bad = []
    for text, wtext, expected in table:
        e = parse_expr(text, AB)
        w = parse_lasso(wtext, AB)
        if not (member_game(e, w) == member_oracle(e, w) == expected):
            bad.append((text, wtext))
    elapsed = time.time() - t0
    report(1, not bad and elapsed < 1.0,
           f"curated table {len(table)} rows, {len(bad)} failures, "
           f"{elapsed:.2f}s (< 1s)")


SUITE_SEED = 20_240_817


def _agreement_suite():
    return agreement_pairs(SUITE_SEED, 1000, max_size=12, max_prefix=3,
                           max_period=4)


def test_criterion_2_oracle_agreement():
    """1000 seeded pairs: the parity game and the fixpoint oracle agree."""
    t0 = time.time()
    checked = disagreements = 0
    for e, w in _agreement_suite():
        checked += 1
        if member_game(e, w) != member_oracle(e, w):
            disagreements += 1
    elapsed = time.time() - t0
    report(2, checked >= 1000 and disagreements == 0 and elapsed < 60,
           f"{checked} pairs, {disagreements} disagreements, "
           f"{elapsed:.1f}s (< 60s)")


def test_criterion_3_complement_law():
    """Membership of e and of its complement are exclusive and exhaustive on
    the criterion-2 suite; the two-letter complement example is syntactic."""
    syntactic = alpha_eq(
        algebra.complement(parse_expr("nu X. a.X", AB), AB),
        parse_expr("mu X. (a.X + b.top)", AB))
    violations = checked = 0
    for e, w in _agreement_suite():
        checked += 1
        if member_game(e, w) == member_game(
                algebra.complement(e, w.alphabet), w):
            violations += 1
    report(3, syntactic and violations == 0 and checked >= 1000,
           f"XOR on {checked} pairs, {violations} violations; "
           f"syntactic example {'ok' if syntactic else 'BROKEN'}")


def test_criterion_4_translation_adequacy():
    """Over powerset alphabets with 1-2 propositions: membership transfers to
    the formula translation, and the round trip preserves membership."""
    t0 = time.time()
    checked = adequacy_bad = roundtrip_bad = 0
    for seed, ab in ((91, Alphabet.powerset("P")),
                     (92, Alphabet.powerset("P", "Q"))):
        for e, w in agreement_pairs(seed, 200, alphabet=ab):
            checked += 1
            if member_oracle(e, w) and not models(algebra.to_multl(e, ab), w):
                adequacy_bad += 1
            rt = algebra.to_rll(algebra.to_multl(e, ab), ab)
            if member_oracle(rt, w) != member_oracle(e, w):
                roundtrip_bad += 1
    elapsed = time.time() - t0
    report(4, checked >= 300 and adequacy_bad == roundtrip_bad == 0
           and elapsed < 30,
           f"{checked} pairs, adequacy failures={adequacy_bad}, "
           f"round-trip failures={roundtrip_bad}, {elapsed:.1f}s (< 30s)")


def test_criterion_5_proof_corpus():
    """At least six shipped machine-checked derivations, all accepted, and
    every mutant in the mutation suite rejected."""
    paths = proof_paths()
    accepted = []
    for path in paths:
        accepted.append(check_derivation(load_proof_file(path)).accepted)
    mutant_total = mutant_accepted = 0
    for path in paths:
        d = load_proof_file(path)
        for _label, m in mutants(d):
            mutant_total += 1
            if check_derivation(m).accepted:
                mutant_accepted += 1
    report(5, len(paths) >= 6 and all(accepted) and mutant_total > 0
           and mutant_accepted == 0,
           f"{len(paths)} derivations accepted={sum(accepted)}, "
           f"{mutant_total} mutants rejected={mutant_total - mutant_accepted}")


def test_criterion_6_complement_derivation_generator():
    """100 seeded closed expressions of size <= 8: both generated derivations
    are accepted in the extended tier, within a minute."""
    t0 = time.time()
    rng = random.Random(4096)
    total = failures = 0
    for _ in range(100):
        ab = Alphabet.plain(*("a", "b", "c")[:rng.randint(1, 3)])
        e = gen_expr(rng, ab, rng.randint(1, 8))
        total += 1
        dp, dm = derive_complement(e, ab)
        if not (check_derivation(dp).accepted
                and check_derivation(dm).accepted):
            failures += 1
    elapsed = time.time() - t0
    report(6, total == 100 and failures == 0 and elapsed < 60,
           f"{total} expressions, {failures} rejected derivation pairs, "
           f"{elapsed:.1f}s (< 60s)")


def test_criterion_7_fixpoint_extremality():
    """On words with at most 4 positions and one-binder expressions, the
    evaluator's fixpoints equal the extremal pre/postfixed points found by
    enumerating all candidate position sets."""
    rng = random.Random(777)
    from itertools import chain, combinations
    from rll.corpus import gen_lasso
    checked = bad = 0
    for _ in range(120):
        body = gen_expr(rng, AB, rng.randint(1, 6), bound=("X",))
        w = gen_lasso(rng, AB, 2, 2)  # at most 4 positions
        n = w.length
        subsets = [frozenset(c) for c in chain.from_iterable(
            combinations(range(n), k) for k in range(n + 1))]
        op = {s: eval_rll(body, w, {"X": s}) for s in subsets}
        prefixed = [s for s in subsets if op[s] <= s]
        postfixed = [s for s in subsets if s <= op[s]]
        least_prefixed = frozenset.intersection(*prefixed)
        greatest_postfixed = frozenset.union(*postfixed) \
            if postfixed else frozenset()
        checked += 1
        if eval_rll(Mu("X", body), w) != least_prefixed:
            bad += 1
        elif eval_rll(Nu("X", body), w) != greatest_postfixed:
            bad += 1
        elif least_prefixed not in prefixed:
            bad += 1
    report(7, checked >= 100 and bad == 0,
           f"{checked} one-binder expressions vs 2^n enumeration, {bad} bad")


def test_criterion_8_counterexample_search():
    """The bounded search returns the expected first witness, and returns
    none where equality holds over the two-letter alphabet."""
    t0 = time.time()
    cex = equiv_bounded(parse_expr("nu X. a.X", AB), parse_expr("top", AB),
                        AB, 1, 2)
    first = cex is not None and print_lasso(cex) == "(b)"
    none = equiv_bounded(parse_expr(FB, AB), parse_expr(BOTH, AB),
                         AB, 2, 3) is None
    elapsed = time.time() - t0
    report(8, first and none and elapsed < 5,
           f"first witness {'(b) ok' if first else 'WRONG'}, "
           f"bounded-equal pair none={'ok' if none else 'WRONG'}, "
           f"{elapsed:.2f}s (< 5s)")
