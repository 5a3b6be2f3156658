"""The reduction-rule catalogue for all three systems.

Each rule has a shape matcher (returning a payload dict, or None) and an
applier producing the contractum with deterministic fresh names: the
smallest primed variant of the rule's suggested name not free in scope.
Appliers are pure functions of the redex up to alpha-equivalence.

The commuting conversions are one rule per principal term (case, abort,
encoded case, encoded abort) over the elimination context around it: the
context is pushed into the principal when it eliminates the connective of
the principal's result formula, and the rule id names the context kind.

ASCII ids (used in CLI and traces): beta_imp, beta_and, beta_or, beta_all,
eta_imp, eta_and, eta_or, eta_all, pi_imp, pi_and, pi_or, pi_bot,
varpi_imp, varpi_and, varpi_or, varpi_bot, rho_case, rho_abort, delta,
eps_case, eps_abort.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Callable, NamedTuple

from .errors import AtomicInstantiation, ShapeMismatch
from .syntax import (Abort, And, App, AppHole, Case, Forall, Formula,
                     FVar, Imp, Inj, Lam, Or, Pair, Proj, ProjHole, Term,
                     TyApp, TyAppHole, TyLam, Var, fill, free_type_vars,
                     free_vars, fresh_name, hole_result, split, subst_term,
                     subst_type, term_children)


class RuleId(str, Enum):
    beta_imp = "beta_imp"
    beta_and = "beta_and"
    beta_or = "beta_or"
    beta_all = "beta_all"
    eta_imp = "eta_imp"
    eta_and = "eta_and"
    eta_or = "eta_or"
    eta_all = "eta_all"
    pi_imp = "pi_imp"
    pi_and = "pi_and"
    pi_or = "pi_or"
    pi_bot = "pi_bot"
    varpi_imp = "varpi_imp"
    varpi_and = "varpi_and"
    varpi_or = "varpi_or"
    varpi_bot = "varpi_bot"
    rho_case = "rho_case"
    rho_abort = "rho_abort"
    delta = "delta"
    eps_case = "eps_case"
    eps_abort = "eps_abort"


_IPC_ONLY = frozenset({RuleId.beta_or, RuleId.eta_or, RuleId.pi_imp,
                       RuleId.pi_and, RuleId.pi_or, RuleId.pi_bot,
                       RuleId.varpi_imp, RuleId.varpi_and, RuleId.varpi_or,
                       RuleId.varpi_bot})
_POLY_ONLY = frozenset({RuleId.beta_all, RuleId.eta_all})
_F_ONLY = frozenset({RuleId.rho_case, RuleId.rho_abort, RuleId.delta,
                     RuleId.eps_case, RuleId.eps_abort})
_SHARED = frozenset({RuleId.beta_imp, RuleId.beta_and,
                     RuleId.eta_imp, RuleId.eta_and})

#: beta/eta rules available in F (the steps analysis.search_beta_eta tries)
F_BETA_ETA = _SHARED | _POLY_ONLY


def rules_of_system(sys) -> frozenset:
    """RuleIds valid in the given SystemId (by .value to avoid an import cycle)."""
    name = getattr(sys, "value", sys)
    if name == "ipc":
        return _SHARED | _IPC_ONLY
    if name in ("f", "fat"):
        base = _SHARED | _POLY_ONLY
        return base | _F_ONLY if name == "f" else base
    raise ValueError(f"unknown system {sys!r}")


def fineness_kind(rule: RuleId) -> str:
    """'sum' / 'bot' for head-typed fineness, 'always' otherwise."""
    if rule in (RuleId.rho_case, RuleId.delta, RuleId.eps_case):
        return "sum"
    if rule in (RuleId.rho_abort, RuleId.eps_abort):
        return "bot"
    return "always"


# Node classes at which each rule's left-hand side can be rooted.
_ROOTS = {
    RuleId.beta_imp: (App,), RuleId.beta_and: (Proj,),
    RuleId.beta_or: (Case,), RuleId.beta_all: (TyApp,),
    RuleId.eta_imp: (Lam,), RuleId.eta_and: (Pair,),
    RuleId.eta_or: (Case,), RuleId.eta_all: (TyLam,),
    RuleId.pi_imp: (App,), RuleId.pi_and: (Proj,),
    RuleId.pi_or: (Case,), RuleId.pi_bot: (Abort,),
    RuleId.varpi_imp: (App,), RuleId.varpi_and: (Proj,),
    RuleId.varpi_or: (Case,), RuleId.varpi_bot: (Abort,),
    RuleId.rho_case: (App,), RuleId.rho_abort: (TyApp,), RuleId.delta: (App,),
    RuleId.eps_case: (App, Proj, TyApp), RuleId.eps_abort: (App, Proj, TyApp),
}


def _case_spine(t):
    """Match M C <fun x:A => P, fun y:B => Q>; return its parts or None."""
    if (isinstance(t, App) and isinstance(t.fun, TyApp)
            and isinstance(t.arg, Pair)
            and isinstance(t.arg.fst, Lam) and isinstance(t.arg.snd, Lam)):
        return (t.fun.fun, t.fun.arg, t.arg.fst, t.arg.snd)
    return None


# ------------------------------------------------------------- matchers
# Each matcher returns a payload dict (possibly with "head"/"lann"/"rann"
# for the fineness predicate) or None.

def _m_beta_imp(t):
    if isinstance(t, App) and isinstance(t.fun, Lam):
        return {}
    return None


def _m_beta_and(t):
    if isinstance(t, Proj) and isinstance(t.body, Pair):
        return {}
    return None


def _m_beta_or(t):
    if isinstance(t, Case) and isinstance(t.scrut, Inj):
        return {}
    return None


def _m_beta_all(t):
    if isinstance(t, TyApp) and isinstance(t.fun, TyLam):
        return {}
    return None


def _m_eta_imp(t):
    if (isinstance(t, Lam) and isinstance(t.body, App)
            and isinstance(t.body.arg, Var) and t.body.arg.name == t.var
            and t.var not in free_vars(t.body.fun)):
        return {}
    return None


def _m_eta_and(t):
    if (isinstance(t, Pair)
            and isinstance(t.fst, Proj) and t.fst.index == 1
            and isinstance(t.snd, Proj) and t.snd.index == 2
            and t.fst.body == t.snd.body):
        return {}
    return None


def _m_eta_or(t):
    if not isinstance(t, Case):
        return None
    l, r = t.lbody, t.rbody
    ok = (isinstance(l, Inj) and l.index == 1
          and isinstance(l.body, Var) and l.body.name == t.lvar
          and isinstance(r, Inj) and r.index == 2
          and isinstance(r.body, Var) and r.body.name == t.rvar
          and l.left == r.left and l.right == r.right
          and t.lann == l.left and t.rann == l.right
          and t.ann == Or(l.left, l.right))
    return {} if ok else None


def _m_eta_all(t):
    if (isinstance(t, TyLam) and isinstance(t.body, TyApp)
            and isinstance(t.body.arg, FVar) and t.body.arg.name == t.var
            and t.var not in free_type_vars(t.body.fun)):
        return {}
    return None


def _m_rho_case(t):
    spine = _case_spine(t)
    if spine is None or spine[1].__class__ not in CONNECTIVES:
        return None
    head, c, bl, br = spine
    return {"head": head, "lann": bl.ann, "rann": br.ann}


def _m_rho_abort(t):
    if isinstance(t, TyApp) and t.arg.__class__ in CONNECTIVES:
        return {"head": t.fun}
    return None


def _m_delta(t):
    """rho_case's match, where each branch is an introduction of C."""
    found = _m_rho_case(t)
    if found is not None:
        c, pair = t.fun.arg, t.arg
        introduces = CONNECTIVES[c.__class__].introduces
        if introduces(pair.fst.body, c) and introduces(pair.snd.body, c):
            return found
    return None


# ------------------------------------------------------------- appliers

def _rename_branch(var, body, avoid):
    """Rename a branch binder away from `avoid` (capture avoidance)."""
    if var not in avoid:
        return var, body
    new = fresh_name(var, set(avoid) | free_vars(body))
    return new, subst_term(Var(new), var, body)


def _a_beta_imp(t):
    return subst_term(t.arg, t.fun.var, t.fun.body)


def _a_beta_and(t):
    return t.body.fst if t.index == 1 else t.body.snd


def _a_beta_or(t):
    inj = t.scrut
    if inj.index == 1:
        return subst_term(inj.body, t.lvar, t.lbody)
    return subst_term(inj.body, t.rvar, t.rbody)


def _a_beta_all(t):
    return subst_type(t.arg, t.fun.var, t.fun.body)


def _a_eta_imp(t):
    return t.body.fun


def _a_eta_and(t):
    return t.fst.body


def _a_eta_or(t):
    return t.scrut


def _a_eta_all(t):
    return t.body.fun


# ------------------------------------------------------------ connectives
#
# rho_case, rho_abort and delta are eta expansion of a non-atomic
# instantiation C at its main connective, with each elimination of the
# expansion pushed inward: into both branches (rho_case), into the
# instantiation (rho_abort), or onto the introduction a branch already is,
# which the connective's beta rule then cancels (delta). This is the
# instantiation overflow of F. Ferreira and G. Ferreira, "Atomic
# polymorphism" (JSL 2013), which translate.at_term iterates to atomic
# formulas.

class Connective(NamedTuple):
    """A row of CONNECTIVES: `elims(name)` are the eta expansion's
    eliminations over its binder `name`, of sort `sort` (0: term, 1: type
    variable, None: no binder); elimination i yields component i from C
    (hole_result), child i of `intro(c, name, *parts)`. `introduces(b, c)`
    tests for that introduction; `beta`, `eta` are the connective's rules."""

    sort: int | None
    elims: Callable
    intro: Callable
    introduces: Callable
    beta: RuleId
    eta: RuleId


_PROJECTIONS = (ProjHole(1), ProjHole(2))

# a binder's eliminations are made once per name (lru_cache)
CONNECTIVES = {
    Imp: Connective(0, lru_cache(256)(lambda z: (AppHole(Var(z)),)),
                    lambda c, z, b: Lam(z, c.left, b),
                    lambda b, c: b.__class__ is Lam and b.ann == c.left,
                    RuleId.beta_imp, RuleId.eta_imp),
    And: Connective(None, lambda _: _PROJECTIONS,
                    lambda c, _, b1, b2: Pair(b1, b2),
                    lambda b, c: b.__class__ is Pair,
                    RuleId.beta_and, RuleId.eta_and),
    Forall: Connective(1, lru_cache(256)(lambda v: (TyAppHole(FVar(v)),)),
                       lambda c, v, b: TyLam(v, b),
                       lambda b, c: b.__class__ is TyLam,
                       RuleId.beta_all, RuleId.eta_all),
}


def expansion(c, base, terms, formulas=(), bound=()):
    """The row of c's main connective, the binder of c's eta expansion and
    the expansion's eliminations. A term binder is named `base`, primed
    away from `bound` and the free term variables of `terms`; a type
    binder is named after c's own variable, primed away from the free
    type variables of `terms` and `formulas`."""
    row = CONNECTIVES[c.__class__]
    if row.sort is None:
        name = None
    elif row.sort:
        name = fresh_name(c.var, free_type_vars(*terms, *formulas))
    else:
        name = fresh_name(base, free_vars(*terms).union(bound))
    return row, name, row.elims(name)


def mk_case(m: Term, x: str, a: Formula, p: Term,
            y: str, b: Formula, q: Term, c: Formula) -> Term:
    """m c <fun x:a => p, fun y:b => q>."""
    return App(TyApp(m, c), Pair(Lam(x, a, p), Lam(y, b, q)))


def _a_rho_case(t, base="w", cancel=False):
    """C's eta expansion, each elimination pushed into both branches. With
    `cancel` this is delta: each branch is an introduction of C already,
    which the connective's beta rule cancels against the elimination."""
    head, c, bl, br = _case_spine(t)
    row, name, elims = expansion(c, base, (head, bl.body, br.body),
                                 (bl.ann, br.ann, c), (bl.var, br.var))
    push = (lambda e, b: _APPLIERS[row.beta](fill(e, b))) if cancel else fill
    return row.intro(c, name, *[
        mk_case(head, bl.var, bl.ann, push(e, bl.body),
                br.var, br.ann, push(e, br.body), hole_result(e, c))
        for e in elims])


def _a_rho_abort(t):
    """C's eta expansion, each elimination pushed into the instantiation."""
    c = t.arg
    row, name, elims = expansion(c, "w", (t.fun,), (c,))
    return row.intro(c, name, *[TyApp(t.fun, hole_result(e, c))
                                for e in elims])


def _a_delta(t):
    # a term binder is named after the left branch's own
    return _a_rho_case(t, getattr(t.arg.fst.body, "var", None), cancel=True)


# -------------------------------------------------- commuting conversions
#
# pi_*, varpi_*, eps_case and eps_abort push the elimination context E at
# the root into its main premiss, the principal: a case, an abort, an
# encoded case spine M C <fun x:A => P, fun y:B => Q> or an encoded abort
# M C. A principal gives its result formula (its annotation, or C); the
# rule applies when E eliminates that formula's connective, and E's kind,
# the class of the root, names the rule.

def _case_principal(p):
    return (p.ann, {}) if isinstance(p, Case) else None


def _abort_principal(p):
    return (p.ann, {}) if isinstance(p, Abort) else None


def _encoded_case_principal(p):
    spine = _case_spine(p)
    if spine is None:
        return None
    head, c, bl, br = spine
    return c, {"head": head, "lann": bl.ann, "rann": br.ann}


def _encoded_abort_principal(p):
    return (p.arg, {"head": p.fun}) if isinstance(p, TyApp) else None


def _pushes_into(rule, principal):
    """Matcher of a commuting rule: a root of one of the rule's context
    kinds whose main premiss (its first term child) `principal` accepts,
    with a result formula the root eliminates."""
    roots = _ROOTS[rule]

    def match(t):
        if t.__class__ not in roots:
            return None
        found = principal(term_children(t)[0])
        if found is None or hole_result(t, found[0]) is None:
            return None
        return found[1]

    return match


def _a_pi(t):
    e, case = split(t)
    avoid = free_vars(e)
    lv, lb = _rename_branch(case.lvar, case.lbody, avoid)
    rv, rb = _rename_branch(case.rvar, case.rbody, avoid)
    return Case(case.scrut, lv, case.lann, fill(e, lb),
                rv, case.rann, fill(e, rb), hole_result(e, case.ann))


def _a_varpi(t):
    e, abort = split(t)
    return Abort(abort.body, hole_result(e, abort.ann))


def _a_eps_case(t):
    e, principal = split(t)
    head, c, bl, br = _case_spine(principal)
    avoid = free_vars(e)
    x, p = _rename_branch(bl.var, bl.body, avoid)
    y, q = _rename_branch(br.var, br.body, avoid)
    return mk_case(head, x, bl.ann, fill(e, p), y, br.ann, fill(e, q),
                   hole_result(e, c))


def _a_eps_abort(t):
    e, inst = split(t)
    return TyApp(inst.fun, hole_result(e, inst.arg))


_PI = (RuleId.pi_imp, RuleId.pi_and, RuleId.pi_or, RuleId.pi_bot)
_VARPI = (RuleId.varpi_imp, RuleId.varpi_and, RuleId.varpi_or,
          RuleId.varpi_bot)

_MATCHERS = {
    RuleId.beta_imp: _m_beta_imp, RuleId.beta_and: _m_beta_and,
    RuleId.beta_or: _m_beta_or, RuleId.beta_all: _m_beta_all,
    RuleId.eta_imp: _m_eta_imp, RuleId.eta_and: _m_eta_and,
    RuleId.eta_or: _m_eta_or, RuleId.eta_all: _m_eta_all,
    RuleId.rho_case: _m_rho_case, RuleId.rho_abort: _m_rho_abort,
    RuleId.delta: _m_delta,
    **{rule: _pushes_into(rule, _case_principal) for rule in _PI},
    **{rule: _pushes_into(rule, _abort_principal) for rule in _VARPI},
    RuleId.eps_case: _pushes_into(RuleId.eps_case, _encoded_case_principal),
    RuleId.eps_abort: _pushes_into(RuleId.eps_abort, _encoded_abort_principal),
}

_APPLIERS = {
    RuleId.beta_imp: _a_beta_imp, RuleId.beta_and: _a_beta_and,
    RuleId.beta_or: _a_beta_or, RuleId.beta_all: _a_beta_all,
    RuleId.eta_imp: _a_eta_imp, RuleId.eta_and: _a_eta_and,
    RuleId.eta_or: _a_eta_or, RuleId.eta_all: _a_eta_all,
    RuleId.rho_case: _a_rho_case, RuleId.rho_abort: _a_rho_abort,
    RuleId.delta: _a_delta,
    **dict.fromkeys(_PI, _a_pi), **dict.fromkeys(_VARPI, _a_varpi),
    RuleId.eps_case: _a_eps_case, RuleId.eps_abort: _a_eps_abort,
}


@lru_cache(maxsize=64)
def matchers_by_class(rules: frozenset) -> dict:
    """{term class: ((rule, matcher, fineness kind), ...)} for the rules in
    `rules`, in RuleId order: what a traversal tries at a node of a class.
    The result is shared between callers and must not be mutated."""
    out = {}
    for rule in RuleId:
        if rule in rules:
            for cls in _ROOTS[rule]:
                out.setdefault(cls, []).append(
                    (rule, _MATCHERS[rule], fineness_kind(rule)))
    return {cls: tuple(entries) for cls, entries in out.items()}


def match_rule(rule: RuleId, m: Term):
    """Payload dict if m is a root redex of `rule`, else None."""
    return _MATCHERS[rule if rule.__class__ is RuleId else RuleId(rule)](m)


def apply_rule(rule: RuleId, m: Term) -> Term:
    """Contract a root redex of `rule`; ShapeMismatch / AtomicInstantiation
    when m does not match."""
    rule = rule if rule.__class__ is RuleId else RuleId(rule)
    if match_rule(rule, m) is None:
        if rule is RuleId.rho_case:
            spine = _case_spine(m)
            if spine is not None and spine[1].__class__ is FVar:
                raise AtomicInstantiation("atomization of an atomic instantiation")
        if rule is RuleId.rho_abort and isinstance(m, TyApp) \
                and m.arg.__class__ is FVar:
            raise AtomicInstantiation("atomization of an atomic instantiation")
        raise ShapeMismatch(f"term is not a {rule.value} redex")
    return _APPLIERS[rule](m)
