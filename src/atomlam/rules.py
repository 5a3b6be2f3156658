"""The reduction-rule catalogue for all three systems.

RULES is the one place a rule is defined: one row per RuleId gives the
systems it belongs to, the node classes its left-hand side can be rooted
at, its fineness, how deep its matcher reads, a shape matcher (returning a
payload dict, or None) and a contraction producing the contractum with
deterministic fresh names: the smallest primed variant of the rule's
suggested name not free in scope.
A contraction is a pure function of the redex: it reads the redex alone
and takes its fresh names from it. So each row contracts a redex object
once (_Once) and every caller shares the contractum; a contraction that
read more (the environment, say) would have to key the cache on it.
Every other per-rule table (rules_of_system, matchers_by_class,
F_BETA_ETA) is derived from the rows.

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


def _case_spine(t):
    """Match M C <fun x:A => P, fun y:B => Q>; return its parts or None."""
    if (isinstance(t, App) and isinstance(t.fun, TyApp)
            and isinstance(t.arg, Pair)
            and isinstance(t.arg.fst, Lam) and isinstance(t.arg.snd, Lam)):
        return (t.fun.fun, t.fun.arg, t.arg.fst, t.arg.snd)
    return None


# ------------------------------------------------------------- matchers
# Each matcher returns a payload dict (possibly with "head"/"lann"/"rann"
# for the fineness predicate) or None. It is only called at one of its
# rule's root classes (RULES), so it does not test the root's class.

def _premiss_is(intro):
    """Matcher of a beta rule: the main premiss is an `intro`."""
    return lambda t: {} if term_children(t)[0].__class__ is intro else None


def _m_eta_imp(t):
    if (isinstance(t.body, App)
            and isinstance(t.body.arg, Var) and t.body.arg.name == t.var
            and t.var not in free_vars(t.body.fun)):
        return {}
    return None


def _m_eta_and(t):
    if (isinstance(t.fst, Proj) and t.fst.index == 1
            and isinstance(t.snd, Proj) and t.snd.index == 2
            and t.fst.body == t.snd.body):
        return {}
    return None


def _m_eta_or(t):
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
    if (isinstance(t.body, TyApp)
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
    return {"head": t.fun} if t.arg.__class__ in CONNECTIVES else None


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


def _a_beta_or(t):
    inj = t.scrut
    if inj.index == 1:
        return subst_term(inj.body, t.lvar, t.lbody)
    return subst_term(inj.body, t.rvar, t.rbody)


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
    beta = RULES[row.beta].contract
    push = (lambda e, b: beta(fill(e, b))) if cancel else fill
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


def _pushes_into(principal):
    """Matcher of a commuting rule: the root's main premiss (its first term
    child) is a principal `principal` accepts, with a result formula the
    root eliminates."""

    def match(t):
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


# ------------------------------------------------------------ the catalogue

class Rule(NamedTuple):
    """A row of RULES: the systems the rule belongs to (SystemId values),
    the node classes its left-hand side can be rooted at, its fineness
    ('sum' or 'bot': the redex's head must have the sum or empty encoding;
    'always'), its read depth, its matcher, called only at a root class,
    and its contraction, called only on a match, once per redex (_Once).

    The read depth is that of the deepest node whose class or fields the
    matcher reads, or whose type the fineness reads (the head's); a
    subterm below it can change without changing the match or the
    fineness, as long as its type stays. None: the matcher reads
    unboundedly deep (an eta rule's freshness or equal components)."""

    systems: tuple
    roots: tuple
    fineness: str
    depth: int | None
    match: Callable
    contract: Callable


class _Once:
    """A row's contraction `raw`, made once per redex object and kept in
    the node's `_made` under this row (racing threads make equal ones)."""

    __slots__ = ("raw",)

    def __init__(self, raw):
        self.raw = raw

    def __call__(self, t):
        made = getattr(t, "_made", None)
        if made is None:
            made = {}
            object.__setattr__(t, "_made", made)
        contractum = made.get(self)
        if contractum is None:
            contractum = made[self] = self.raw(t)
        return contractum


_ALL, _IPC, _POLY, _F = ("ipc", "f", "fat"), ("ipc",), ("f", "fat"), ("f",)
_PI = _pushes_into(_case_principal)
_VARPI = _pushes_into(_abort_principal)
_ELIMS = (App, Proj, TyApp)


RULES = {
    RuleId.beta_imp: Rule(_ALL, (App,), "always", 1, _premiss_is(Lam),
                          lambda t: subst_term(t.arg, t.fun.var, t.fun.body)),
    RuleId.beta_and: Rule(_ALL, (Proj,), "always", 1, _premiss_is(Pair),
                          lambda t: t.body.fst if t.index == 1 else t.body.snd),
    RuleId.beta_or: Rule(_IPC, (Case,), "always", 1, _premiss_is(Inj),
                         _a_beta_or),
    RuleId.beta_all: Rule(_POLY, (TyApp,), "always", 1, _premiss_is(TyLam),
                          lambda t: subst_type(t.arg, t.fun.var, t.fun.body)),
    RuleId.eta_imp: Rule(_ALL, (Lam,), "always", None, _m_eta_imp,
                         lambda t: t.body.fun),
    RuleId.eta_and: Rule(_ALL, (Pair,), "always", None, _m_eta_and,
                         lambda t: t.fst.body),
    RuleId.eta_or: Rule(_IPC, (Case,), "always", 2, _m_eta_or,
                        lambda t: t.scrut),
    RuleId.eta_all: Rule(_POLY, (TyLam,), "always", None, _m_eta_all,
                         lambda t: t.body.fun),
    RuleId.pi_imp: Rule(_IPC, (App,), "always", 1, _PI, _a_pi),
    RuleId.pi_and: Rule(_IPC, (Proj,), "always", 1, _PI, _a_pi),
    RuleId.pi_or: Rule(_IPC, (Case,), "always", 1, _PI, _a_pi),
    RuleId.pi_bot: Rule(_IPC, (Abort,), "always", 1, _PI, _a_pi),
    RuleId.varpi_imp: Rule(_IPC, (App,), "always", 1, _VARPI, _a_varpi),
    RuleId.varpi_and: Rule(_IPC, (Proj,), "always", 1, _VARPI, _a_varpi),
    RuleId.varpi_or: Rule(_IPC, (Case,), "always", 1, _VARPI, _a_varpi),
    RuleId.varpi_bot: Rule(_IPC, (Abort,), "always", 1, _VARPI, _a_varpi),
    RuleId.rho_case: Rule(_F, (App,), "sum", 2, _m_rho_case, _a_rho_case),
    RuleId.rho_abort: Rule(_F, (TyApp,), "bot", 1, _m_rho_abort,
                           _a_rho_abort),
    RuleId.delta: Rule(_F, (App,), "sum", 3, _m_delta, _a_delta),
    RuleId.eps_case: Rule(_F, _ELIMS, "sum", 3,
                          _pushes_into(_encoded_case_principal), _a_eps_case),
    RuleId.eps_abort: Rule(_F, _ELIMS, "bot", 2,
                           _pushes_into(_encoded_abort_principal),
                           _a_eps_abort),
}

RULES = {rule: row._replace(contract=_Once(row.contract))
         for rule, row in RULES.items()}
_OF_SYSTEM = {sys: frozenset(rule for rule, row in RULES.items()
                             if sys in row.systems) for sys in _ALL}

#: beta/eta rules available in F: the connectives' beta and eta rules
F_BETA_ETA = frozenset(rule for row in CONNECTIVES.values()
                       for rule in (row.beta, row.eta))


def rules_of_system(sys) -> frozenset:
    """RuleIds valid in the given SystemId (by .value to avoid an import cycle)."""
    name = getattr(sys, "value", sys)
    if name not in _OF_SYSTEM:
        raise ValueError(f"unknown system {sys!r}")
    return _OF_SYSTEM[name]


@lru_cache(maxsize=64)
def matchers_by_class(rules: frozenset) -> dict:
    """{term class: ((rule, matcher, fineness kind), ...)} for the rules in
    `rules`, in RuleId order: what a traversal tries at a node of a class.
    The result is shared between callers and must not be mutated."""
    out = {}
    for rule in RuleId:
        if rule in rules:
            row = RULES[rule]
            for cls in row.roots:
                out.setdefault(cls, []).append(
                    (rule, row.match, row.fineness))
    return {cls: tuple(entries) for cls, entries in out.items()}


def match_rule(rule: RuleId, m: Term):
    """Payload dict if m is a root redex of `rule`, else None."""
    row = RULES[rule if rule.__class__ is RuleId else RuleId(rule)]
    return row.match(m) if m.__class__ in row.roots else None


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
    return RULES[rule].contract(m)
