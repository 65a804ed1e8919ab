"""Toolkit for omega-regular languages as right-linear lattice expressions."""

from .syntax import (Alphabet, Expr, MuLtlFormula, ParseError, RllError,
                     alpha_eq, alpha_eq_formula, free_vars, negate_formula,
                     parse_expr, parse_expr_file, parse_formula,
                     parse_formula_file, print_expr, print_formula,
                     substitute)
from .closure import (FlClosure, OccurrenceGraph, assign_priorities,
                      closure_with_priorities, fl_closure, occurrence_graph)
from .automaton import Apa, build_apa, export_dot
from .semantics import (Lasso, enumerate_lassos, eval_multl, eval_rll,
                        lasso_normalize, member_oracle, models, parse_lasso,
                        print_lasso)
from .game import (ParityGame, Solution, build_arena, equiv_bounded,
                   inclusion_bounded, member_game, solve_parity)
from .algebra import binary_encoding, complement, encode_expr, to_multl, to_rll
from .calculus import (Claim, Derivation, Verdict, bool_taut, check_multl,
                       check_rll, check_derivation, derivation_from_json,
                       derivation_to_json, derive_complement, load_proof_file)

__version__ = "0.1.0"
