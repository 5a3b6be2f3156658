"""Proof-term toolkit for IPC, System F and System Fat.

Three fully annotated typed lambda calculi with their reduction systems
(including atomization and commuting conversions over the sum/empty
encodings), the two proof translations from IPC into the polymorphic
systems, and checkers for the simulation and comparison properties
relating them.
"""

from .syntax import (Abort, And, App, AppHole, AbortHole, Bot, Case, CaseHole,
                     ElimContext, Forall, Formula, FVar, Imp, Inj, Lam, Or,
                     Pair, Proj, ProjHole, Term, TyApp, TyAppHole, TyLam, Var,
                     alpha_eq, canonical_key, encode_bot, encode_or, fill,
                     formula_size, free_type_vars, free_type_vars_term, free_vars,
                     fresh_name, hole_result, match_encoded_or, replace_at,
                     split, subst_term, subst_type_in_formula,
                     subst_type_in_term, subterm_at)
from .surface import parse_formula, parse_term, print_formula, print_term
from .typecheck import (Env, SystemId, is_fine_redex, system_of_formula,
                        typecheck, typecheck_elim_context)
from .rules import RuleId, apply_rule, match_rule, rules_of_system
from .rewriting import (Redex, ReductionTrace, TraceStep, apply_script,
                        env_at, find_redexes, normalize, replay, step)
from .translate import (RP_CHILD, at_term, mk_abort, mk_abort_at, mk_case,
                        mk_case_at, mk_in, rp_env, rp_formula, rp_term)
from .analysis import (WeightReport, atomic_nf, check_local_confluence,
                       decompose_delta, decompose_eps, expand_rho,
                       search_beta_eta, simulate_step, weight)
from .diagram import Diagram, at_copy_positions, bridge_script, build_diagram

__version__ = "0.1.0"
