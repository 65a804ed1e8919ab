"""Toolkit for omega-regular languages as right-linear lattice expressions."""

from .syntax import (Alphabet, Expr, MuLtlFormula, ParseError, RllError,
                     alpha_eq, free_vars, negate_formula, parse_expr,
                     parse_expr_file, parse_formula, parse_formula_file,
                     print_expr, substitute)
from .closure import OccurrenceGraph, occurrence_graph
from .semantics import (Lasso, LassoColumns, enumerate_lassos, eval_multl,
                        eval_rll, lasso_normalize, member_oracle, models,
                        parse_lasso, print_lasso)
from .game import (ParityGame, Solution, build_arena, equiv_bounded,
                   inclusion_bounded, member_game, solve_parity)
from .algebra import complement, to_multl, to_rll
from .calculus import (Claim, Derivation, Verdict, bool_taut, check_derivation,
                       derivation_from_json, derivation_to_json,
                       derive_complement, load_proof_file)

__version__ = "0.1.0"
