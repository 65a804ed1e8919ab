"""The four workloads. Each turns a seed into rounds of operations.

An operation is one ``rll`` command line that returns a verdict, together
with a check of its exit code and output against an answer the benchmark
computed apart from the program (``reference.py``, or a property the
answer must have). Inputs are written to files under the run's work
directory when a round is made, outside the timed region.

Expression shapes (the tree with its variable references, but without
letters, binder kinds or constants) come from pools drawn once from fixed
seeds: closure cost depends mostly on shape and has a heavy tail, so shapes
redrawn per seed made throughput differ by 14-17 % from seed to seed. The
run's seed draws everything else: letters, alphabet, mu or nu at each binder,
0 or top at each leaf, lassos and the order of operations.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys

import reference as ref

HERE = os.path.dirname(os.path.abspath(__file__))

# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


class Op:
    __slots__ = ("argv", "rc", "out", "what")

    def __init__(self, argv, rc, out, what):
        self.argv = argv    # arguments to rll.cli.main
        self.rc = rc        # expected exit code
        self.out = out      # expected first line of output; "..." ends a prefix
        self.what = what    # the input, for messages

    def problem(self, rc, out: str):
        """None when the command answered as expected, else a message."""
        first = out.strip().splitlines()[0] if out.strip() else ""
        if self.out.endswith("..."):
            matches = first.startswith(self.out[:-3])
        else:
            matches = first == self.out
        if rc == self.rc and matches:
            return None
        return (f"{self.what}: expected exit {self.rc} {self.out!r}, "
                f"got exit {rc} {first!r}")


def _write(path: str, letters: str, expr) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"alphabet {' '.join(letters)} ;\n{ref.show(expr)}\n")
    return path


# ---------------------------------------------------------------------------
# expression shapes
# ---------------------------------------------------------------------------

def gen_shape(rng: random.Random, size: int, depth: int = 0):
    """A closed shape of exactly ``size`` nodes, constructors drawn uniformly
    from those that fit the remaining size (as ``rll.corpus.gen_expr``
    does): leaves, letter actions, binders, sums and meets. Variables occur
    only under binders and are named by binder depth."""
    if size <= 1:
        if depth and rng.random() < 0.5:
            return ("var", f"X{rng.randrange(depth)}")
        return ("leaf",)
    kinds = ["act", "fix", "fix"] + (["sum", "meet"] if size >= 3 else [])
    kind = rng.choice(kinds)
    if kind == "act":
        return ("act", None, gen_shape(rng, size - 1, depth))
    if kind == "fix":
        return ("fix", f"X{depth}", gen_shape(rng, size - 1, depth + 1))
    left = rng.randint(1, size - 2)
    return (kind, gen_shape(rng, left, depth),
            gen_shape(rng, size - 1 - left, depth))


def instantiate(shape, rng: random.Random, letters: str):
    """Fill a shape with seeded letters, binder kinds and constants."""
    kind = shape[0]
    if kind == "leaf":
        return rng.choice((ref.ZERO, ref.TOP))
    if kind == "var":
        return shape
    if kind == "act":
        return ("act", rng.choice(letters), instantiate(shape[2], rng, letters))
    if kind == "fix":
        return (rng.choice(("mu", "nu")), shape[1],
                instantiate(shape[2], rng, letters))
    return (kind, instantiate(shape[1], rng, letters),
            instantiate(shape[2], rng, letters))


def shape_pool(pool_seed: int, sizes) -> list:
    rng = random.Random(pool_seed)
    return [gen_shape(rng, n) for n in sizes]


def random_lasso(rng: random.Random, letters: str, max_prefix: int,
                 max_period: int):
    u = "".join(rng.choice(letters) for _ in range(rng.randint(0, max_prefix)))
    v = "".join(rng.choice(letters) for _ in range(rng.randint(1, max_period)))
    return u, v


# ---------------------------------------------------------------------------
# member-random
# ---------------------------------------------------------------------------

MEMBER_SIZES = [n for n in range(12, 51, 2) for _ in range(2)]


def member_random(seed: int, work: str, ctx):
    """``rll member FILE LASSO`` (``--via both``) on random closed
    expressions of 12 to 50 nodes over 2 or 3 letters, with lassos of
    prefix <= 3 and period <= 4. The verdict is checked with the reference
    evaluator."""
    rng = random.Random(seed)
    pool = shape_pool(1001, MEMBER_SIZES)
    seen = set()
    while True:
        ops = []
        for k in rng.sample(range(len(pool)), len(pool)):
            while True:
                letters = "abc"[:rng.choice((2, 3))]
                e = instantiate(pool[k], rng, letters)
                w = random_lasso(rng, letters, 3, 4)
                key = (letters, ref.show(e), w)
                if key not in seen:
                    seen.add(key)
                    break
            path = _write(os.path.join(work, f"m{len(ops)}.rll"), letters, e)
            yes = ref.member(e, w)
            ops.append(Op(["member", path, ref.show_lasso(w)], 0 if yes else 1,
                          ("true" if yes else "false") + " (game=oracle)",
                          f"member {ref.show(e)} {ref.show_lasso(w)}"))
        yield ops


# ---------------------------------------------------------------------------
# long-lasso
# ---------------------------------------------------------------------------

def _period_rule(name: str, period: str) -> bool:
    """The paper's languages decided from the lasso's period alone:
    infinitely many a iff a occurs in the period; finitely many b, and the
    meet of the two, iff the period holds only a."""
    if name == "IA":
        return "a" in period
    return set(period) == {"a"}


LENGTHS = [100, 200, 400, 800, 1600]
CONSTANT_PREFIX = 16   # prefix bound for periods of one letter (see README)
LONG_PREFIX = (128, 100)  # prefix and period of the eval_rll probes (see README)


def long_lasso(seed: int, work: str, ctx):
    """``rll member`` on the paper's three example languages and their
    complements (the benchmark's own syntactic dual), on lassos of 100 to
    1600 letters. A round runs every language on every period kind (only
    a, only b, both) at every length; the seed draws the letters and, for
    one-letter periods, the prefix length. Each round also runs every
    language on a 128-letter prefix with a 100-letter period of one letter,
    where the oracle ``eval_rll`` is slow. Verdicts come from the period
    rule."""
    rng = random.Random(seed)
    langs = []
    for name, text in (("IA", ref.IA), ("FB", ref.FB),
                       ("IA&FB", ref.IA_AND_FB)):
        e = ref.parse(text)
        for negated, expr in ((False, e), (True, ref.complement(e, "ab"))):
            path = _write(os.path.join(work, f"l{len(langs)}.rll"), "ab", expr)
            langs.append((name, negated, path))
    while True:
        # (length, period kind, prefix length or None to draw it)
        cases = [(n, kind, n // 4 if kind == "ab" else None)
                 for n in LENGTHS for kind in ("a", "b", "ab")]
        cases += [(sum(LONG_PREFIX), kind, LONG_PREFIX[0]) for kind in "ab"]
        ops = []
        for n, kind, prefix in cases:
            for name, negated, path in langs:
                p = prefix
                if p is None:
                    p = rng.randrange(0, CONSTANT_PREFIX + 1)
                if kind == "ab":
                    v = list("ab") + [rng.choice("ab")
                                      for _ in range(n - p - 2)]
                    rng.shuffle(v)
                    v = "".join(v)
                else:
                    v = kind * (n - p)
                u = "".join(rng.choice("ab") for _ in range(p))
                yes = _period_rule(name, v) != negated
                ops.append(Op(["member", path, f"{u}({v})"],
                              0 if yes else 1,
                              ("true" if yes else "false") + " (game=oracle)",
                              f"member {'~' if negated else ''}{name} on "
                              f"a lasso of {p} + {n - p} letters"))
        rng.shuffle(ops)
        yield ops


# ---------------------------------------------------------------------------
# bounded-search
# ---------------------------------------------------------------------------

SEARCH_SHAPES = [6, 8, 10, 7, 9, 11] * 3


def _search_ops(e, f, g):
    """Pairs equal or included by lattice laws, then two that usually
    differ: (command, left, right)."""
    return [
        ("equiv", e, ("sum", e, e)),                      # idempotence
        ("equiv", ("meet", e, f), ("meet", f, e)),        # commutativity
        ("equiv", e, ("meet", e, ("sum", e, f))),         # absorption
        ("equiv", ("sum", ("sum", e, f), g),
         ("sum", e, ("sum", f, g))),                      # associativity
        ("incl", ("meet", e, f), e),
        ("incl", e, ("sum", e, f)),
        ("equiv", e, f),
        ("incl", ("sum", e, f), e),
    ]


BOUNDS = {"equiv": (3, 4), "incl": (4, 3)}


def bounded_search(seed: int, work: str, ctx):
    """``rll equiv`` at bounds (3, 4), 176 lassos, and ``rll incl`` at
    (4, 3), 160 lassos, over ``a b``. Each answer is recomputed with the
    reference evaluator over the benchmark's own enumeration: a
    counterexample must be the first separating lasso, and "no difference"
    must hold on every lasso."""
    rng = random.Random(seed)
    pool = shape_pool(2002, SEARCH_SHAPES)
    enum = {cmd: list(ref.lassos("ab", *b)) for cmd, b in BOUNDS.items()}
    while True:
        ops = []
        for t in range(0, len(pool), 3):
            e, f, g = (instantiate(s, rng, "ab") for s in pool[t:t + 3])
            for cmd, left, right in _search_ops(e, f, g):
                i = len(ops)
                lp = _write(os.path.join(work, f"b{i}l.rll"), "ab", left)
                rp = _write(os.path.join(work, f"b{i}r.rll"), "ab", right)
                mp, mq = BOUNDS[cmd]
                w = ref.first_difference(left, right, enum[cmd],
                                         include_only=(cmd == "incl"))
                if w is not None:
                    rc, out = 1, f"counterexample: {ref.show_lasso(w)}"
                elif cmd == "equiv":
                    rc, out = 0, ("no difference found up to bounds "
                                  f"(max-prefix={mp}, max-period={mq})")
                else:
                    rc, out = 0, ("no inclusion counterexample up to bounds "
                                  f"(max-prefix={mp}, max-period={mq})")
                ops.append(Op([cmd, lp, rp, "--max-prefix", str(mp),
                               "--max-period", str(mq)], rc, out,
                              f"{cmd} {ref.show(left)} {ref.show(right)}"))
        rng.shuffle(ops)
        yield ops


# ---------------------------------------------------------------------------
# proof-check
# ---------------------------------------------------------------------------

PROOF_SIZES = list(range(10, 31, 2))
SAMPLE_LASSOS = list(ref.lassos("ab", 2, 2))


def _claim_problem(lhs, rhs, rel):
    """Check an rll claim on the sampled lassos, for every valuation of its
    free variables as a set of positions; None when it holds."""
    names = sorted(ref.free_vars(lhs) | ref.free_vars(rhs))
    cl, cr = ref.Compiled(lhs), ref.Compiled(rhs)
    for w in SAMPLE_LASSOS:
        n = len(w[0]) + len(w[1])
        for masks in itertools.product(range(1 << n), repeat=len(names)):
            env = dict(zip(names, masks))
            a, b = cl.positions(w, env), cr.positions(w, env)
            if (a != b) if rel == "eq" else (a & ~b):
                return f"fails on {ref.show_lasso(w)} with {env}"
    return None


def shipped_proofs(root: str):
    """The shipped proofs, each with its semantic check: rll conclusions
    are evaluated; muLTL conclusions are left to the checker's verdict."""
    folder = os.path.join(root, "proofs")
    out = []
    for name in sorted(os.listdir(folder)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(folder, name)
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        claim = data["steps"][-1]["claim"]
        problem = None
        if data["system"] == "rll":
            problem = _claim_problem(ref.parse(claim["lhs"]),
                                     ref.parse(claim["rhs"]), claim["rel"])
        out.append((path, problem))
    return out


def _sides(claim):
    return ref.parse(claim["lhs"]), ref.parse(claim["rhs"])


def complement_problem(e, plus: dict, meet: dict):
    """Check the two generated conclusions: ``top <= e' + f`` and
    ``e' & f <= 0``, where e' agrees with e and f with the complement of e
    on every sampled lasso. Returns (problem, (e', f))."""
    lhs, rhs = _sides(plus["steps"][-1]["claim"])
    if plus["steps"][-1]["claim"]["rel"] != "leq" or lhs != ref.TOP \
            or rhs[0] != "sum":
        return "plus conclusion is not top <= e + f", None
    e1, f1 = rhs[1], rhs[2]
    mlhs, mrhs = _sides(meet["steps"][-1]["claim"])
    if meet["steps"][-1]["claim"]["rel"] != "leq" or mrhs != ref.ZERO \
            or mlhs[0] != "meet":
        return "meet conclusion is not e & f <= 0", None
    ce, cf = ref.Compiled(e), ref.Compiled(f1)
    for side in (e1, mlhs[1]):
        cs = ref.Compiled(side)
        if any(cs.positions(w) != ce.positions(w) for w in SAMPLE_LASSOS):
            return f"conclusion side {ref.show(side)} is not e", None
    cm = ref.Compiled(mlhs[2])
    for w in SAMPLE_LASSOS:
        full = (1 << (len(w[0]) + len(w[1]))) - 1
        want = full & ~ce.positions(w)
        if cf.positions(w) != want or cm.positions(w) != want:
            return f"f is not the complement of e on {ref.show_lasso(w)}", None
    return None, (e1, f1)


def _mutant(data: dict, side: str, expr) -> dict:
    """The derivation with its conclusion's ``side`` replaced."""
    steps = list(data["steps"])
    last = dict(steps[-1])
    last["claim"] = {**last["claim"], side: ref.show(expr)}
    steps[-1] = last
    return {**data, "steps": steps}


def _witness(expr, want: bool):
    c = ref.Compiled(expr)
    for w in SAMPLE_LASSOS:
        if c.member(w) == want:
            return w
    return None


def proof_check(seed: int, work: str, ctx):
    """``rll check FILE`` on the 8 shipped proofs and on the complement
    derivations of seeded expressions of 10 to 30 nodes, plus one mutant of
    each derivation whose conclusion is made false. Derivations must be
    accepted with a conclusion the reference evaluator confirms; mutants
    must be rejected, with their falsity shown by a witness lasso. The
    derivations are made by ``derive.py`` in a child process."""
    rng = random.Random(seed)
    pool = shape_pool(3003, PROOF_SIZES)
    shipped = shipped_proofs(ctx.root)
    for path, problem in shipped:
        if problem:
            ctx.problems.append(f"{path}: conclusion {problem}")
    seen = set()
    while True:
        ops = [Op(["check", path], 0, "accepted", f"check {path}")
               for path, _ in shipped]
        exprs = []
        for shape in pool:
            while True:
                e = instantiate(shape, rng, "ab")
                if ref.show(e) not in seen:
                    seen.add(ref.show(e))
                    break
            exprs.append(e)
        stems = [os.path.join(work, f"p{k}") for k in range(len(exprs))]
        subprocess.run([sys.executable, os.path.join(HERE, "derive.py"),
                        ctx.src], check=True, timeout=120, text=True,
                       input=json.dumps([[stem, ref.show(e)] for stem, e
                                         in zip(stems, exprs)]))
        for stem, e in zip(stems, exprs):
            plus, meet = (_load(f"{stem}{tag}.json") for tag in ("plus", "meet"))
            problem, parts = complement_problem(e, plus, meet)
            if problem:
                ctx.problems.append(f"derivation for {ref.show(e)}: {problem}")
                continue
            e1, f1 = parts
            mutants = [
                # top <= e & f and e + f <= 0 are false on every lasso
                ("plus", _mutant(plus, "rhs", ("meet", e1, f1)),
                 _witness(("meet", e1, f1), False)),
                ("meet", _mutant(meet, "lhs", ("sum", e1, f1)),
                 _witness(("sum", e1, f1), True)),
            ]
            for tag in ("plus", "meet"):
                ops.append(Op(["check", f"{stem}{tag}.json"], 0, "accepted",
                              f"check {tag} derivation of {ref.show(e)}"))
            for tag, data, witness in mutants:
                if witness is None:
                    ctx.problems.append(f"no witness for the {tag} mutant of "
                                        f"{ref.show(e)}")
                    continue
                path = f"{stem}{tag}-mutant.json"
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(data, fh)
                ops.append(Op(["check", path], 1, "rejected at step ...",
                              f"check {tag} mutant of {ref.show(e)}"))
        rng.shuffle(ops)
        yield ops


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# Normalised seconds one round takes on the reference host (README). A run
# makes round(--seconds / ROUND_S) rounds, a number fixed before it starts.
ROUND_S = {
    "member-random": 1.0,
    "long-lasso": 5.3,
    "bounded-search": 1.9,
    "proof-check": 4.1,
}

WORKLOADS = {
    "member-random": member_random,
    "long-lasso": long_lasso,
    "bounded-search": bounded_search,
    "proof-check": proof_check,
}
