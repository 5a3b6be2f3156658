"""Comparison diagrams between the two translations for a single IPC step.

For a reduction step M -> N by a rule pertaining to disjunction or
absurdity, the diagram has six corners: the two translations of M and N
(the full-instantiation image in F and the atomic image in Fat) and two
Fat midpoints q1, q2, wired by:

    M        mAt  <<--rho--  mRp
    |          \\(admin beta)  \\(delta rho)
    |rule        q1 <<---------'
    |            |beta-eta        (mRp ->> nRp: the simulation trace)
    v            q2 <<---------.
    N        nAt  <<--rho--  nRp
               (admin beta)     (eps rho)

For the detour and one-step commuting rules the midpoints collapse
(q1 = mAt, q2 = nAt) and q1 ->> q2 is found by a bounded search. For the
sum eta rule and the two nested commuting rules the midpoints and legs
are built by the recursive constructions on the result formula, with the
administrative detour steps tagged. Copies: the atomic translation
duplicates subterms under conjunctive annotations, so every per-redex
script is replayed once per copy position.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (InternalInvariantViolation, NotARedex, NotTypable,
                     RuleNotApplicable, TypingError)
from .rules import RuleId, match_rule
from .syntax import (Abort, And, App, Case, Forall, FVar, Imp, Inj, Lam, Pair,
                     Proj, Term, Var, subterm_at, term_children)
from .rewriting import Redex, ReductionTrace, apply_script, shift, step
from .translate import at_term, rp_env, rp_formula, rp_term
from .typecheck import Env, SystemId, typecheck
from .analysis import search_beta_eta, simulate_step

OR_BOT_RULES = frozenset({RuleId.beta_or, RuleId.eta_or, RuleId.pi_imp,
                          RuleId.pi_and, RuleId.pi_or, RuleId.pi_bot,
                          RuleId.varpi_imp, RuleId.varpi_and,
                          RuleId.varpi_or, RuleId.varpi_bot})

_ATOM = frozenset({RuleId.rho_case, RuleId.rho_abort})
_BETA = frozenset({RuleId.beta_imp, RuleId.beta_and, RuleId.beta_all})
_BETA_ETA = _BETA | frozenset({RuleId.eta_imp, RuleId.eta_and, RuleId.eta_all})
_EPS = frozenset({RuleId.eps_case, RuleId.eps_abort})

_LEG_RULES = {
    "m_rp->m_at": _ATOM,
    "n_rp->n_at": _ATOM,
    "m_rp->n_rp": _BETA_ETA | _EPS | {RuleId.delta},
    "m_rp->q1": _ATOM | {RuleId.delta},
    "n_rp->q2": _ATOM | _EPS,
    "m_at->q1": _BETA,
    "n_at->q2": _BETA,
    "q1->q2": _BETA_ETA,
}
_ADMIN_LEGS = ("m_at->q1", "n_at->q2")


# ------------------------------------------------ translation hole algebra
#
# Positions of the scrutinee / branch payloads / abort body inside the
# atomic translation's unfolding of a case or abort at result formula c.

def _unfold_holes(c, base):
    """Positions of the abort body (base (0,)) or the case scrutinee (base
    (0, 0)) in the unfolding at c: one per conjunct, under each level."""
    if isinstance(c, FVar):
        return [base]
    if isinstance(c, Imp):
        return [(0,) + p for p in _unfold_holes(c.right, base)]
    if isinstance(c, And):
        return ([(0,) + p for p in _unfold_holes(c.left, base)]
                + [(1,) + p for p in _unfold_holes(c.right, base)])
    return [(0,) + p for p in _unfold_holes(c.body, base)]


def _payload_holes(c, j):
    """Positions of branch payload j (1 or 2) in the case unfolding at c;
    several under conjunctions, and wrapped one level per unfolding step."""
    if isinstance(c, FVar):
        return [(1, j - 1, 0)]
    if isinstance(c, Imp):
        return [(0,) + p + (0,) for p in _payload_holes(c.right, j)]
    if isinstance(c, And):
        return ([(0,) + p + (0,) for p in _payload_holes(c.left, j)]
                + [(1,) + p + (0,) for p in _payload_holes(c.right, j)])
    return [(0,) + p + (0,) for p in _payload_holes(c.body, j)]


def at_copy_positions(m: Term, path):
    """All positions in the atomic translation of m where the image of the
    subterm at `path` occurs (one per duplication by the context)."""
    if not path:
        return [()]
    i, rest = path[0], tuple(path[1:])
    child = term_children(m)[i]
    tails = at_copy_positions(child, rest)
    if isinstance(m, (App, Pair)):
        heads = [(i,)]
    elif isinstance(m, (Lam, Proj)):
        heads = [(0,)]
    elif isinstance(m, Inj):
        heads = [(0, 0, 1)]
    elif isinstance(m, Abort):
        heads = _unfold_holes(rp_formula(m.ann), (0,))
    elif isinstance(m, Case):
        c = rp_formula(m.ann)
        heads = _unfold_holes(c, (0, 0)) if i == 0 else _payload_holes(c, i)
    else:
        raise NotARedex(f"no context mapping through {type(m).__name__}")
    return [h + q for h in heads for q in tails]


# ---------------------------------------------------------- bridge scripts
#
# Explicit atomization script from the full-instantiation translation to
# the atomic one, mirroring the per-constructor unfoldings (children first,
# then this node's case/abort unfolding). `frozen` skips one subtree.

def _unfold(rule, c):
    """The atomization steps (rho_case or rho_abort) that unfold a case or
    abort at result formula c, outermost first."""
    if isinstance(c, FVar):
        return []
    if isinstance(c, Imp):
        return [(rule, ())] + shift(_unfold(rule, c.right), (0,))
    if isinstance(c, And):
        return ([(rule, ())] + shift(_unfold(rule, c.left), (0,))
                + shift(_unfold(rule, c.right), (1,)))
    return [(rule, ())] + shift(_unfold(rule, c.body), (0,))


def bridge_script(m: Term, frozen=None):
    """Atomization script rp(m) ->>rho at(m); `frozen` (a source path)
    leaves that subtree untouched, still in full-instantiation form."""
    if frozen is not None and len(frozen) == 0:
        return []

    def sub(i):
        if frozen is not None and frozen[0] == i:
            return tuple(frozen[1:])
        return None

    if isinstance(m, Var):
        return []
    if isinstance(m, Lam):
        return shift(bridge_script(m.body, sub(0)), (0,))
    if isinstance(m, App):
        return (shift(bridge_script(m.fun, sub(0)), (0,))
                + shift(bridge_script(m.arg, sub(1)), (1,)))
    if isinstance(m, Pair):
        return (shift(bridge_script(m.fst, sub(0)), (0,))
                + shift(bridge_script(m.snd, sub(1)), (1,)))
    if isinstance(m, Proj):
        return shift(bridge_script(m.body, sub(0)), (0,))
    if isinstance(m, Inj):
        return shift(bridge_script(m.body, sub(0)), (0, 0, 1))
    if isinstance(m, Abort):
        return (shift(bridge_script(m.body, sub(0)), (0,))
                + _unfold(RuleId.rho_abort, rp_formula(m.ann)))
    if isinstance(m, Case):
        return (shift(bridge_script(m.scrut, sub(0)), (0, 0))
                + shift(bridge_script(m.lbody, sub(1)), (1, 0, 0))
                + shift(bridge_script(m.rbody, sub(2)), (1, 1, 0))
                + _unfold(RuleId.rho_case, rp_formula(m.ann)))
    raise NotARedex(f"cannot bridge through {type(m).__name__}")


# --------------------------------------------- nested-rule constructions
#
# Per-copy scripts for the nested commuting rules pi_or and pi_bot, by one
# recursion on the result formula; they differ only in the commuting step
# that pushes each level into the branches (eps_case, eps_abort) and in the
# scripts at an atomic formula. Each level contributes:
#   lhs:   detour steps  at(M) ->> q2          (not administrative)
#   admin: detour steps  at(N) ->> q2          (administrative)
#   rhsp:  one atomization step + commuting steps + component bridges,
#          rp(N-subterm) ->> q2
# `counts` records (connective, faithful admin count, nominal count).

@dataclass(frozen=True)
class _MidpointScripts:
    lhs: list
    admin: list
    rhsp: list


def _admin_at(rule, level_holes):
    return [(rule, p, True) for p in level_holes]


def _nested_scripts(c, eps, leaf, counts, below=()):
    """The scripts at result formula c; `eps` is the commuting step that
    pushes each new level into the branches, and leaf(below) gives the
    scripts at an atomic formula reached through the levels `below`."""
    if isinstance(c, FVar):
        return leaf(below)
    if isinstance(c, And):
        parts, admin, kind = ((0, c.left), (1, c.right)), RuleId.beta_and, "and"
    elif isinstance(c, Imp):
        parts, admin, kind = ((0, c.right),), RuleId.beta_imp, "imp"
    elif isinstance(c, Forall):
        parts, admin, kind = ((0, c.body),), RuleId.beta_all, "forall"
    else:
        raise NotARedex(f"no construction for result formula {c!r}")
    subs = [(i, _nested_scripts(ci, eps, leaf, counts, below + (0,)))
            for i, ci in parts]
    holes = [(i,) + p for i, ci in parts for j in (1, 2)
             for p in _payload_holes(ci, j)]
    counts.append((kind, len(holes), 2 * len(parts)))
    lhs, admins = [], _admin_at(admin, holes)
    rhsp = [(RuleId.rho_case, ())] + [(eps, (i, 1, j, 0)) for i, _ in parts
                                      for j in (0, 1)]
    for i, sub in subs:
        lhs += shift(sub.lhs, (i,))
        admins += shift(sub.admin, (i,))
        rhsp += shift(sub.rhsp, (i,))
    return _MidpointScripts(lhs, admins, rhsp)


def _commuted_scripts(rule, sub, counts):
    """The scripts of the pi_or or pi_bot redex `sub`: at an atomic result
    formula, a detour on the left and the bridges of the parts on the
    right, under the outer case (pi_or) or abort (pi_bot)."""
    inner = sub.scrut if rule is RuleId.pi_or else sub.body
    bm, bp1, bp2 = (bridge_script(t)
                    for t in (inner.scrut, inner.lbody, inner.rbody))
    if rule is RuleId.pi_or:
        bq1, bq2 = bridge_script(sub.lbody), bridge_script(sub.rbody)

        def leaf(below):
            return _MidpointScripts(
                [(RuleId.beta_all, (0,)), (RuleId.beta_imp, ())], [],
                shift(bm, (0, 0))
                + shift(bp1, (1, 0, 0, 0, 0))
                + shift(bq1, (1, 0, 0, 1, 0, 0) + below)
                + shift(bq2, (1, 0, 0, 1, 1, 0) + below)
                + shift(bp2, (1, 1, 0, 0, 0))
                + shift(bq1, (1, 1, 0, 1, 0, 0) + below)
                + shift(bq2, (1, 1, 0, 1, 1, 0) + below))
        eps = RuleId.eps_case
    else:
        def leaf(below):
            return _MidpointScripts(
                [(RuleId.beta_all, ())], [],
                shift(bm, (0, 0)) + shift(bp1, (1, 0, 0, 0))
                + shift(bp2, (1, 1, 0, 0)))
        eps = RuleId.eps_abort
    return _nested_scripts(rp_formula(sub.ann), eps, leaf, counts)


# ----------------------------------------------------------------- diagram

@dataclass
class Diagram:
    rule: RuleId
    position: tuple
    source_m: Term
    source_n: Term
    m_rp: Term
    n_rp: Term
    m_at: Term
    n_at: Term
    q1: Term
    q2: Term
    legs: dict
    notes: list = field(default_factory=list)
    search_failed: bool = False

    def corner(self, name):
        return {"m_rp": self.m_rp, "n_rp": self.n_rp, "m_at": self.m_at,
                "n_at": self.n_at, "q1": self.q1, "q2": self.q2}[name]

    def verify(self):
        """Replay every leg and check endpoints, rule classes and the
        placement of administrative tags; returns a list of problems."""
        from .rewriting import replay
        problems = []
        wiring = {"m_rp->m_at": ("m_rp", "m_at"), "n_rp->n_at": ("n_rp", "n_at"),
                  "m_rp->n_rp": ("m_rp", "n_rp"), "m_rp->q1": ("m_rp", "q1"),
                  "n_rp->q2": ("n_rp", "q2"), "m_at->q1": ("m_at", "q1"),
                  "n_at->q2": ("n_at", "q2"), "q1->q2": ("q1", "q2")}
        for name, (src, dst) in wiring.items():
            leg = self.legs[name]
            if not replay(leg):
                problems.append(f"{name}: does not replay")
                continue
            if leg.initial != self.corner(src):
                problems.append(f"{name}: start is not corner {src}")
            if not (self.search_failed and name == "q1->q2") \
                    and leg.final != self.corner(dst):
                problems.append(f"{name}: end is not corner {dst}")
            used = {s.rule for s in leg.steps}
            if not used <= _LEG_RULES[name]:
                problems.append(f"{name}: unexpected rules "
                                f"{sorted(r.value for r in used - _LEG_RULES[name])}")
            for s in leg.steps:
                if s.admin and name not in _ADMIN_LEGS:
                    problems.append(f"{name}: administrative tag outside "
                                    "the translated-step legs")
                    break
        if self.q1 == self.m_at and self.legs["m_rp->q1"] is not self.legs["m_rp->m_at"]:
            problems.append("q1 = m_at but the m_rp->q1 leg is not the bridge")
        if self.q2 == self.n_at and self.legs["n_rp->q2"] is not self.legs["n_rp->n_at"]:
            problems.append("q2 = n_at but the n_rp->q2 leg is not the bridge")
        if self.search_failed:
            problems.append("q1->q2: bounded search failed")
        return problems


def _empty_trace(env, t):
    return ReductionTrace(SystemId.F, env, t)


def _per_copy(copies, script):
    out = []
    for cp in copies:
        out += shift(script, cp)
    return out


_ETA_OR_ADMIN = [(RuleId.beta_all, (0, 0, 1, 0, 0, 0), True),
                 (RuleId.beta_all, (0, 0, 1, 1, 0, 0), True),
                 (RuleId.beta_imp, (0, 0, 1, 0, 0), True),
                 (RuleId.beta_imp, (0, 0, 1, 1, 0), True)]
_ETA_OR_ETAS = [(RuleId.eta_imp, (0, 0, 1, 0)), (RuleId.eta_imp, (0, 0, 1, 1)),
                (RuleId.eta_and, (0, 0, 1)), (RuleId.eta_imp, (0,)),
                (RuleId.eta_all, ())]


def build_diagram(env: Env, m: Term, r: Redex) -> Diagram:
    rule = RuleId(r.rule)
    if rule not in OR_BOT_RULES:
        raise RuleNotApplicable(
            f"{rule.value} is translated identically by both maps; "
            "the diagram is only built for disjunction/absurdity rules")
    try:
        typecheck(SystemId.IPC, env, m)
    except TypingError as e:
        raise NotTypable(str(e)) from e
    sub = subterm_at(m, r.position)
    if match_rule(rule, sub) is None:
        raise NotARedex(f"no {rule.value} redex at {list(r.position)}")

    n = step(SystemId.IPC, env, m, r)
    renv = rp_env(env)
    m_rp, n_rp = rp_term(m), rp_term(n)
    m_at, n_at = at_term(m), at_term(n)

    legs = {}
    bridge_m = apply_script(SystemId.F, renv, m_rp, bridge_script(m))
    bridge_n = apply_script(SystemId.F, renv, n_rp, bridge_script(n))
    if bridge_m.final != m_at or bridge_n.final != n_at:
        raise InternalInvariantViolation("bridge endpoint is not the atomic image")
    legs["m_rp->m_at"] = bridge_m
    legs["n_rp->n_at"] = bridge_n
    legs["m_rp->n_rp"] = simulate_step(env, m, r)

    notes = []
    search_failed = False
    copies = sorted(at_copy_positions(m, r.position))

    if rule is RuleId.eta_or:
        legs["m_at->q1"] = apply_script(SystemId.F, renv, m_at,
                                        _per_copy(copies, _ETA_OR_ADMIN))
        q1 = legs["m_at->q1"].final
        q2 = n_at
        legs["n_at->q2"] = _empty_trace(renv, n_at)
        legs["q1->q2"] = apply_script(SystemId.F, renv, q1,
                                      _per_copy(copies, _ETA_OR_ETAS))
        scrut_bridge = bridge_script(sub.scrut)
        script = bridge_script(m, frozen=r.position)
        for cp in copies:
            script += shift(scrut_bridge, cp + (0, 0))
            script += [(RuleId.delta, cp), (RuleId.delta, cp + (0,))]
        legs["m_rp->q1"] = apply_script(SystemId.F, renv, m_rp, script)
        legs["n_rp->q2"] = bridge_n
        if legs["q1->q2"].final != n_at or legs["m_rp->q1"].final != q1:
            raise InternalInvariantViolation("sum-eta diagram corners mismatch")
    elif rule in (RuleId.pi_or, RuleId.pi_bot):
        counts = []
        scripts = _commuted_scripts(rule, sub, counts)
        q1 = m_at
        legs["m_at->q1"] = _empty_trace(renv, m_at)
        legs["m_rp->q1"] = bridge_m
        legs["n_at->q2"] = apply_script(SystemId.F, renv, n_at,
                                        _per_copy(copies, scripts.admin))
        q2 = legs["n_at->q2"].final
        legs["q1->q2"] = apply_script(SystemId.F, renv, m_at,
                                      _per_copy(copies, scripts.lhs))
        if q2 == n_at:
            # atomic result formula: the midpoint collapses onto the atomic
            # image, and the leg from the full-instantiation image is the
            # bridge itself
            legs["n_rp->q2"] = bridge_n
        else:
            script = (bridge_script(n, frozen=r.position)
                      + _per_copy(copies, scripts.rhsp))
            legs["n_rp->q2"] = apply_script(SystemId.F, renv, n_rp, script)
        if legs["q1->q2"].final != q2 or legs["n_rp->q2"].final != q2:
            raise InternalInvariantViolation("commuting diagram corners mismatch")
        for kind, actual, nominal in counts:
            if actual != nominal:
                notes.append(
                    f"administrative steps at a {kind} level: faithful replay "
                    f"contracts {actual} copies (nominal per-level count {nominal})")
    else:
        q1, q2 = m_at, n_at
        legs["m_rp->q1"] = bridge_m
        legs["n_rp->q2"] = bridge_n
        legs["m_at->q1"] = _empty_trace(renv, m_at)
        legs["n_at->q2"] = _empty_trace(renv, n_at)
        script = []
        for cp in copies:
            path = search_beta_eta(subterm_at(m_at, cp), subterm_at(n_at, cp))
            if path is None:
                search_failed = True
                notes.append(f"no detour/eta path found at copy {list(cp)} "
                             "within the search bound")
                break
            script += shift(path, cp)
        legs["q1->q2"] = apply_script(SystemId.F, renv, m_at, script)
        if not search_failed and legs["q1->q2"].final != n_at:
            raise InternalInvariantViolation("midpoint search endpoint mismatch")

    return Diagram(rule, r.position, m, n, m_rp, n_rp, m_at, n_at, q1, q2,
                   legs, notes, search_failed)
