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
(q1 = mAt, q2 = nAt) and q1 ->> q2 is a detour script constructed by
recursion on the result formula. For the sum eta rule and the two nested
commuting rules the midpoints and legs are built by recursive
constructions too, with the administrative detour steps tagged. Every leg
is built, never searched; one that does not reach its corner is an
internal invariant violation. Copies: the atomic translation
duplicates subterms under conjunctive annotations, so every per-redex
script is replayed once per copy position.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (InternalInvariantViolation, NotARedex, NotTypable,
                     RuleNotApplicable, TypingError)
from .rules import RuleId, match_rule
from .syntax import (Abort, And, Case, Forall, FVar, Imp, Term, subterm_at,
                     term_children)
from .rewriting import Redex, apply_script, shift, step
from .translate import RP_CHILD, at_term, rp_env, rp_formula, rp_term
from .typecheck import Env, SystemId, typecheck
from .analysis import simulate_step
# No leg is searched; the name stays bound here for perfbench/selftest.py.
from .analysis import search_beta_eta  # noqa: F401

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
# The atomic translation unfolds a case or abort at result formula c one
# level per connective; `_parts` gives each level's components with the
# index of the subterm that carries them.

# The detour and eta rule that take apart and put back one level, by the
# connective of its result formula.
_LEVEL = {And: (RuleId.beta_and, RuleId.eta_and),
          Imp: (RuleId.beta_imp, RuleId.eta_imp),
          Forall: (RuleId.beta_all, RuleId.eta_all)}


def _parts(c):
    if isinstance(c, And):
        return ((0, c.left), (1, c.right))
    return ((0, c.right if isinstance(c, Imp) else c.body),)


def _unfold_holes(c, base, wrap=()):
    """Positions of a child of a case or abort in its atomic unfolding at
    c, given the child's position `base` at an atomic formula: one per
    conjunct, under each level. A branch payload (wrap (0,)) also sits
    under one elimination per level."""
    if isinstance(c, FVar):
        return [base]
    return [(i,) + p + wrap for i, ci in _parts(c)
            for p in _unfold_holes(ci, base, wrap)]


def at_copy_positions(m: Term, path):
    """All positions in the atomic translation of m where the image of the
    subterm at `path` occurs (one per duplication by the context)."""
    if not path:
        return [()]
    if type(m) not in RP_CHILD:
        raise NotARedex(f"no context mapping through {type(m).__name__}")
    i, rest = path[0], tuple(path[1:])
    tails = at_copy_positions(term_children(m)[i], rest)
    head = RP_CHILD[type(m)][i]
    if isinstance(m, (Case, Abort)):
        heads = _unfold_holes(rp_formula(m.ann), head, () if i == 0 else (0,))
    else:
        heads = [head]
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
    return [(rule, ())] + [s for i, ci in _parts(c)
                           for s in shift(_unfold(rule, ci), (i,))]


def bridge_script(m: Term, frozen=None):
    """Atomization script rp(m) ->>rho at(m); `frozen` (a source path)
    leaves that subtree untouched, still in full-instantiation form."""
    if frozen is not None and len(frozen) == 0:
        return []
    if type(m) not in RP_CHILD:
        raise NotARedex(f"cannot bridge through {type(m).__name__}")
    script = []
    for i, child in enumerate(term_children(m)):
        below = tuple(frozen[1:]) if frozen and frozen[0] == i else None
        script += shift(bridge_script(child, below), RP_CHILD[type(m)][i])
    if isinstance(m, Case):
        script += _unfold(RuleId.rho_case, rp_formula(m.ann))
    elif isinstance(m, Abort):
        script += _unfold(RuleId.rho_abort, rp_formula(m.ann))
    return script


# --------------------------------------------- nested-rule constructions
#
# Per-copy scripts for the nested commuting rules pi_or and pi_bot, by one
# recursion on the result formula; they differ only in the commuting step
# that pushes each level into the branches (eps_case, eps_abort) and in the
# scripts at an atomic formula. Each level contributes:
#   admin: detour steps  at(N) ->> q2          (administrative)
#   rhsp:  one atomization step + commuting steps + component bridges,
#          rp(N-subterm) ->> q2
# `counts` records (connective, faithful admin count, nominal count).

def _nested_scripts(c, eps, leaf, counts, below=()):
    """The scripts (admin, rhsp) at result formula c; `eps` is the commuting
    step that pushes each new level into the branches, and leaf(below) gives
    rhsp at an atomic formula reached through the levels `below`."""
    if isinstance(c, FVar):
        return [], leaf(below)
    parts = _parts(c)
    holes = [(i,) + p for i, ci in parts for j in (1, 2)
             for p in _unfold_holes(ci, RP_CHILD[Case][j], (0,))]
    counts.append((type(c).__name__.lower(), len(holes), 2 * len(parts)))
    admins = [(_LEVEL[type(c)][0], p, True) for p in holes]
    rhsp = [(RuleId.rho_case, ())] + [(eps, (i, 1, j, 0)) for i, _ in parts
                                      for j in (0, 1)]
    for i, ci in parts:
        below_admins, below_rhsp = _nested_scripts(ci, eps, leaf, counts,
                                                   below + (0,))
        admins += shift(below_admins, (i,))
        rhsp += shift(below_rhsp, (i,))
    return admins, rhsp


def _commuted_scripts(rule, sub, counts):
    """The scripts of the pi_or or pi_bot redex `sub`; at an atomic result
    formula, rhsp bridges the parts under the outer case (pi_or) or abort
    (pi_bot)."""
    inner = sub.scrut if rule is RuleId.pi_or else sub.body
    bm, bp1, bp2 = (bridge_script(t)
                    for t in (inner.scrut, inner.lbody, inner.rbody))
    if rule is RuleId.pi_or:
        bq1, bq2 = bridge_script(sub.lbody), bridge_script(sub.rbody)

        def leaf(below):
            return (shift(bm, (0, 0))
                    + shift(bp1, (1, 0, 0, 0, 0))
                    + shift(bq1, (1, 0, 0, 1, 0, 0) + below)
                    + shift(bq2, (1, 0, 0, 1, 1, 0) + below)
                    + shift(bp2, (1, 1, 0, 0, 0))
                    + shift(bq1, (1, 1, 0, 1, 0, 0) + below)
                    + shift(bq2, (1, 1, 0, 1, 1, 0) + below))
        eps = RuleId.eps_case
    else:
        def leaf(below):
            return (shift(bm, (0, 0)) + shift(bp1, (1, 0, 0, 0))
                    + shift(bp2, (1, 1, 0, 0)))
        eps = RuleId.eps_abort
    return _nested_scripts(rp_formula(sub.ann), eps, leaf, counts)


# ------------------------------------------------------- detour legs
#
# Except for the sum eta rule, q1 = mAt and q1 ->> q2 is per copy one
# detour step at the root (the commuting rules at an implication or
# conjunction), or a detour script at every leaf of the unfolding at the
# result formula (pi_or and pi_bot as varpi_or and varpi_bot); the sum
# detour then closes each level by its eta step.

_AT_ROOT = {RuleId.pi_imp: [(RuleId.beta_imp, ())],
            RuleId.varpi_imp: [(RuleId.beta_imp, ())],
            RuleId.pi_and: [(RuleId.beta_and, ())],
            RuleId.varpi_and: [(RuleId.beta_and, ())]}
_AT_LEAVES = {RuleId.beta_or: [(RuleId.beta_all, (0,)), (RuleId.beta_imp, ()),
                               (RuleId.beta_and, (0,)), (RuleId.beta_imp, ())],
              RuleId.varpi_or: [(RuleId.beta_all, (0,)), (RuleId.beta_imp, ())],
              RuleId.varpi_bot: [(RuleId.beta_all, ())]}
_AT_LEAVES[RuleId.pi_or] = _AT_LEAVES[RuleId.varpi_or]
_AT_LEAVES[RuleId.pi_bot] = _AT_LEAVES[RuleId.varpi_bot]


def _detour_script(c, leaf, eta):
    """`leaf` at every leaf of the unfolding at c, each level followed by
    its eta step if `eta`."""
    if isinstance(c, FVar):
        return leaf
    script = [s for i, ci in _parts(c)
              for s in shift(_detour_script(ci, leaf, eta), (i,))]
    return script + [(_LEVEL[type(c)][1], ())] if eta else script


def _detour_leg(rule, sub):
    """The per-copy script q1 ->> q2 of the redex `sub`."""
    if rule in _AT_ROOT:
        return _AT_ROOT[rule]
    return _detour_script(rp_formula(sub.ann), _AT_LEAVES[rule],
                          rule is RuleId.beta_or)


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

    def corner(self, name):
        return getattr(self, name)

    def verify(self):
        """Replay every leg and check endpoints, rule classes and the
        placement of administrative tags; returns a list of problems."""
        from .rewriting import replay
        problems = []
        for name, rules in _LEG_RULES.items():
            src, dst = name.split("->")
            leg = self.legs[name]
            if not replay(leg):
                problems.append(f"{name}: does not replay")
                continue
            if leg.initial != self.corner(src):
                problems.append(f"{name}: start is not corner {src}")
            if leg.final != self.corner(dst):
                problems.append(f"{name}: end is not corner {dst}")
            used = {s.rule for s in leg.steps}
            if not used <= rules:
                problems.append(f"{name}: unexpected rules "
                                f"{sorted(r.value for r in used - rules)}")
            for s in leg.steps:
                if s.admin and name not in _ADMIN_LEGS:
                    problems.append(f"{name}: administrative tag outside "
                                    "the translated-step legs")
                    break
        if self.q1 == self.m_at and self.legs["m_rp->q1"] is not self.legs["m_rp->m_at"]:
            problems.append("q1 = m_at but the m_rp->q1 leg is not the bridge")
        if self.q2 == self.n_at and self.legs["n_rp->q2"] is not self.legs["n_rp->n_at"]:
            problems.append("q2 = n_at but the n_rp->q2 leg is not the bridge")
        return problems


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
    copies = sorted(at_copy_positions(m, r.position))

    def run(t, script):
        return apply_script(SystemId.F, renv, t, script)

    def per_copy(script):
        return [s for cp in copies for s in shift(script, cp)]

    legs = {}
    bridge_m = run(m_rp, bridge_script(m))
    bridge_n = run(n_rp, bridge_script(n))
    if bridge_m.final != m_at or bridge_n.final != n_at:
        raise InternalInvariantViolation("bridge endpoint is not the atomic image")
    legs["m_rp->m_at"] = bridge_m
    legs["n_rp->n_at"] = bridge_n
    legs["m_rp->n_rp"] = simulate_step(env, m, r)
    notes = []

    if rule is RuleId.eta_or:
        legs["m_at->q1"] = run(m_at, per_copy(_ETA_OR_ADMIN))
        q1, q2 = legs["m_at->q1"].final, n_at
        legs["n_at->q2"] = run(n_at, [])
        legs["q1->q2"] = run(q1, per_copy(_ETA_OR_ETAS))
        scrut_bridge = bridge_script(sub.scrut)
        script = bridge_script(m, frozen=r.position)
        for cp in copies:
            script += shift(scrut_bridge, cp + (0, 0))
            script += [(RuleId.delta, cp), (RuleId.delta, cp + (0,))]
        legs["m_rp->q1"] = run(m_rp, script)
        legs["n_rp->q2"] = bridge_n
        if legs["q1->q2"].final != n_at or legs["m_rp->q1"].final != q1:
            raise InternalInvariantViolation("sum-eta diagram corners mismatch")
    else:
        counts = []
        admins, rhsp = (_commuted_scripts(rule, sub, counts)
                        if rule in (RuleId.pi_or, RuleId.pi_bot) else ([], []))
        admin = run(n_at, per_copy(admins))
        q1, q2 = m_at, admin.final
        legs["m_rp->q1"] = bridge_m
        # without administrative steps the midpoint is the atomic image, and
        # the leg from the full-instantiation image is the bridge itself
        legs["n_rp->q2"] = (run(n_rp, bridge_script(n, frozen=r.position)
                                + per_copy(rhsp))
                            if admins else bridge_n)
        legs["m_at->q1"] = run(m_at, [])
        legs["n_at->q2"] = admin
        legs["q1->q2"] = run(m_at, per_copy(_detour_leg(rule, sub)))
        if legs["q1->q2"].final != q2 or legs["n_rp->q2"].final != q2:
            raise InternalInvariantViolation("diagram legs do not meet at q2")
        for kind, actual, nominal in counts:
            if actual != nominal:
                notes.append(
                    f"administrative steps at a {kind} level: faithful replay "
                    f"contracts {actual} copies (nominal per-level count {nominal})")

    return Diagram(rule, r.position, m, n, m_rp, n_rp, m_at, n_at, q1, q2,
                   legs, notes)
