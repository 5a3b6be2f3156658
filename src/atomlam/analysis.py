"""Atomic normal forms, the termination weight, decomposition witnesses,
and the strict-simulation engine for the sum/empty-encoding translation.

The weight W is computed off the unique typing derivation: a pre-redex is
an occurrence M C Q or M C with C non-atomic whose head M has the
sum-encoded (resp. empty-encoded) type in the local environment; its
contribution is |C| * (1 + W(subterms)). W strictly decreases along every
fine atomization step, which atomic_nf asserts on each step it takes. The
typed traversal typecheck.Scan computes W's terms in the same walk that
finds the atomization redexes, and atomic_nf keeps it between steps.
The local-confluence check constructs each pair's join from residuals
(each redex, then every copy of the other that its contraction makes)
and never searches for one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import combinations

from .errors import (InternalInvariantViolation, NotARedex, NotTypable,
                     StepLimitExceeded, TypingError)
from .rules import (CONNECTIVES, F_BETA_ETA, RuleId, apply_rule, expansion,
                    match_rule, mk_case)
from .syntax import (ELIMINATES, Case, Term, Var, canonical_key, fill,
                     replace_at, subterm_at, term_children)
from .rewriting import (Redex, ReductionTrace, _later_step, _settle,
                        _stepped, apply_script, reduce_scan, shift, step)
from .translate import RP_CHILD, rp_env, rp_term
from .typecheck import Env, Scan, SystemId, typecheck

ATOMIZATION_RULES = frozenset({RuleId.rho_case, RuleId.rho_abort})


def _atomization_scan(env: Env, m: Term) -> Scan:
    """The typed traversal of m for the atomization rules; NotTypable if m
    is not an F term in env."""
    scan = Scan(env, m, ATOMIZATION_RULES)
    if scan.root.ty is None:
        err = scan.error()
        raise NotTypable(str(err)) from err
    return scan


# ------------------------------------------------------------------ weight

@dataclass(frozen=True)
class WeightReport:
    total: int
    per_pre_redex: tuple  # of (position, env, contribution)


def weight(env: Env, m: Term) -> WeightReport:
    """W(m; env) with one contribution entry per fine pre-redex occurrence."""
    scan = _atomization_scan(env, m)
    terms = scan.weight_terms()
    if scan.root.w != sum(c for _, _, c in terms):
        raise InternalInvariantViolation("weight total differs from contribution sum")
    return WeightReport(scan.root.w, tuple(terms))


# ------------------------------------------------------------- atomic NF

def atomic_nf(env: Env, m: Term, strategy="leftmost-outermost", seed=None):
    """Unique fine atomization normal form of m in env, with its trace.

    The step budget is the initial weight + 1; exceeding it (or any
    non-decreasing step) is an engine invariant violation, never a user
    error, because fine atomization terminates on typable terms. The
    trace's `weights` holds W after each step.
    """
    scan = _atomization_scan(env, m)
    w = scan.w

    def check(trace, scan):
        last = trace.weights[-1] if trace.weights else w
        wn = scan.w
        if wn >= last:
            raise InternalInvariantViolation(
                f"weight did not decrease: {last} -> {wn} "
                f"at {list(trace.steps[-1].position)}")
        trace.weights.append(wn)

    trace = ReductionTrace(SystemId.F, env, m)
    try:
        reduce_scan(scan, trace, strategy, w + 1, seed, check)
    except StepLimitExceeded as e:
        raise InternalInvariantViolation(
            "atomization exceeded its weight-derived step budget") from e
    return trace.final, trace


# ----------------------------------------------------------- decompositions

def _checked_run(env, m, script, expected, what):
    """apply_script's trace of `script` from m in F, which must end at
    `expected`: InternalInvariantViolation "<what> endpoint mismatch"."""
    trace = apply_script(SystemId.F, env, m, script)
    if trace.final != expected:
        raise InternalInvariantViolation(f"{what} endpoint mismatch")
    return trace


def _redex_subterm(m, r, expect_rules):
    if RuleId(r.rule) not in expect_rules:
        raise NotARedex(f"expected one of {sorted(x.value for x in expect_rules)}, "
                        f"got {r.rule.value}")
    sub = subterm_at(m, r.position)
    if match_rule(r.rule, sub) is None:
        raise NotARedex(f"no {r.rule.value} redex at {list(r.position)}")
    return sub


def decompose_delta(env: Env, m: Term, r: Redex) -> ReductionTrace:
    """Replay a delta step as the rho_case step at the redex, then the
    connective's beta rule in both branches of each component, which
    cancels the elimination rho_case pushed there against the introduction
    the branch already was: two beta steps for an implication or
    universal, four for a conjunction."""
    sub = _redex_subterm(m, r, {RuleId.delta})
    contractum = apply_rule(RuleId.delta, sub)
    beta = CONNECTIVES[sub.fun.arg.__class__].beta
    p = r.position
    # component i is child i of the contractum, an encoded case whose
    # branch j's body is at RP_CHILD[Case][j]
    script = [(RuleId.rho_case, p)] + [
        (beta, p + (i,) + RP_CHILD[Case][j])
        for i in range(len(term_children(contractum))) for j in (1, 2)]
    return _checked_run(env, m, script, replace_at(m, p, contractum),
                        "delta decomposition")


def decompose_eps(env: Env, m: Term, r: Redex) -> ReductionTrace:
    """Replay a commuting step as one atomization step plus one detour step."""
    sub = _redex_subterm(m, r, {RuleId.eps_case, RuleId.eps_abort})
    atom = RuleId.rho_case if r.rule == RuleId.eps_case else RuleId.rho_abort
    beta = CONNECTIVES[ELIMINATES[sub.__class__]].beta
    p = r.position
    return _checked_run(env, m, [(atom, p + (0,)), (beta, p)],
                        replace_at(m, p, apply_rule(r.rule, sub)),
                        "eps decomposition")


def expand_rho(env: Env, m: Term, r: Redex):
    """Witness an atomization step as eta expansion followed by reduction.

    The expansion at C, the instantiation, is the introduction of C's
    connective over its eliminations, as in rules.CONNECTIVES. For
    rho_case each branch body is expanded at C, and one delta step
    reduces the expansion; for rho_abort the redex itself is, and one
    eps_abort step per component reduces it. Together with the
    decompositions this is the executable form of the inclusion of
    atomization equality in commuting/eta equality.
    """
    sub = _redex_subterm(m, r, {RuleId.rho_case, RuleId.rho_abort})
    p = r.position

    def eta(c, body):
        row, z, elims = expansion(c, "z", (body,), (c,))
        return row.intro(c, z, *[fill(e, body) for e in elims])

    if r.rule == RuleId.rho_case:
        head, c, bl, br = sub.fun.fun, sub.fun.arg, sub.arg.fst, sub.arg.snd
        sub_eta = mk_case(head, bl.var, bl.ann, eta(c, bl.body),
                          br.var, br.ann, eta(c, br.body), c)
        script = [(RuleId.delta, p)]
    else:
        sub_eta = eta(sub.arg, sub)
        script = [(RuleId.eps_abort, p + (i,))
                  for i in range(len(term_children(sub_eta)))]
    expanded = replace_at(m, p, sub_eta)
    return expanded, _checked_run(env, expanded, script,
                                  replace_at(m, p, apply_rule(r.rule, sub)),
                                  "expansion witness")


# -------------------------------------------------------- strict simulation

# Per-rule step scripts at the root, relative to the translated redex.
_ROOT_SIM = {
    RuleId.beta_imp: [(RuleId.beta_imp, ())],
    RuleId.beta_and: [(RuleId.beta_and, ())],
    RuleId.eta_imp: [(RuleId.eta_imp, ())],
    RuleId.eta_and: [(RuleId.eta_and, ())],
    RuleId.beta_or: [(RuleId.beta_all, (0,)), (RuleId.beta_imp, ()),
                     (RuleId.beta_and, (0,)), (RuleId.beta_imp, ())],
    RuleId.eta_or: [(RuleId.delta, ()), (RuleId.delta, (0,)),
                    (RuleId.eta_imp, (0, 0, 1, 0)), (RuleId.eta_imp, (0, 0, 1, 1)),
                    (RuleId.eta_and, (0, 0, 1)), (RuleId.eta_imp, (0,)),
                    (RuleId.eta_all, ())],
    RuleId.pi_imp: [(RuleId.eps_case, ())],
    RuleId.pi_and: [(RuleId.eps_case, ())],
    RuleId.pi_or: [(RuleId.eps_case, (0,)), (RuleId.eps_case, ())],
    RuleId.pi_bot: [(RuleId.eps_case, ())],
    RuleId.varpi_imp: [(RuleId.eps_abort, ())],
    RuleId.varpi_and: [(RuleId.eps_abort, ())],
    RuleId.varpi_or: [(RuleId.eps_abort, (0,)), (RuleId.eps_abort, ())],
    RuleId.varpi_bot: [(RuleId.eps_abort, ())],
}


def rp_position(m: Term, pos) -> tuple:
    """Image of a source position under the homomorphic translation into F."""
    out = ()
    cur = m
    for i in pos:
        out += RP_CHILD[type(cur)][i]
        cur = term_children(cur)[i]
    return out


def _ipc_redex(env: Env, m: Term, r: Redex) -> Term:
    """The subterm at r's position in m, a redex of r's rule; NotTypable
    if m is not an IPC term in env, NotARedex if the rule does not match."""
    try:
        typecheck(SystemId.IPC, env, m)
    except TypingError as e:
        raise NotTypable(str(e)) from e
    sub = subterm_at(m, r.position)
    if match_rule(r.rule, sub) is None:
        raise NotARedex(f"no {r.rule.value} redex at {list(r.position)}")
    return sub


def simulate_step(env: Env, m: Term, r: Redex) -> ReductionTrace:
    """Fine trace from the translation of m to the translation of the
    contracted term, with the per-rule step pattern fixed in advance
    (4 detour steps for a sum detour, 7 eta/delta steps for a sum eta
    step, 1 or 2 commuting steps for the commuting rules, and the very
    same rule for the implication/conjunction rules)."""
    _ipc_redex(env, m, r)
    return _simulation(rp_env(env), m, r, rp_term(m),
                       rp_term(step(SystemId.IPC, env, m, r)))


def _simulation(renv: Env, m: Term, r: Redex, m_rp: Term, n_rp: Term):
    """simulate_step's trace for m and r, checked by _ipc_redex, from
    renv = rp_env(env) and the images m_rp, n_rp of m and of its reduct."""
    script = shift(_ROOT_SIM[RuleId(r.rule)], rp_position(m, r.position))
    return _checked_run(renv, m_rp, script, n_rp, "simulation")


# ------------------------------------------------------- local confluence

@dataclass(frozen=True)
class JoinResult:
    left: tuple  # (rule value, position)
    right: tuple
    joined: bool
    witness: Term | None
    #: the two legs: left's redex then right's residuals, and vice versa
    legs: tuple = ()


@dataclass
class ConfluenceReport:
    pairs: list = field(default_factory=list)

    @property
    def all_joined(self) -> bool:
        return all(p.joined for p in self.pairs)


_MARK = Var("\0residual")  # a name neither the parser nor fresh_name makes


def residuals(m: Term, p1, rule1: RuleId, p2) -> list:
    """Positions of the copies (residuals) of m's subterm at p2 once the
    rule1 redex at p1 is contracted, found by contracting with a marker in
    its place: rho_* at a conjunction makes two, the other shapes one."""
    k = len(p1)
    if len(p2) <= k or p2[:k] != p1:
        return [p2]
    marked = apply_rule(rule1, replace_at(subterm_at(m, p1), p2[k:], _MARK))
    return _marks(marked, p1)


def _marks(t, pos):
    """Positions of the markers in t, which sits at pos."""
    if t.__class__ is Var and t.name == _MARK.name:
        return [pos]
    return [q for i, c in enumerate(term_children(t))
            for q in _marks(c, pos + (i,))]


def _leg(env, m, first, scan, other) -> ReductionTrace:
    """The fine redex `first` of m (contracted, it gives `scan`), then
    every residual of the redex `other`, each fine where it lands."""
    (p1, rule1, local), (p2, rule2, _) = first, other
    trace = ReductionTrace(SystemId.F, env, m, [
        _later_step(rule1, p1, local, m, scan.made)])
    for pos in residuals(m, p1, rule1, p2):
        info, local = scan.at(pos)
        if (rule2, True) not in info.own:
            raise InternalInvariantViolation(
                f"residual {rule2.value} at {list(pos)} is not a fine redex")
        scan = _stepped(trace, scan, pos, rule2, local)
    return _settle(trace, scan)


def check_local_confluence(env: Env, m: Term) -> ConfluenceReport:
    """For every pair of distinct fine atomization redexes, build the join:
    each redex, then every residual of the other. Legs that do not meet
    raise InternalInvariantViolation."""
    scan = _atomization_scan(env, m)
    redexes = [(pos, rule, local) for pos, rule, local, fine in scan.redexes()
               if fine]
    contracted = [scan.after(pos, rule) for pos, rule, _ in redexes] \
        if len(redexes) > 1 else []
    report = ConfluenceReport()
    for i, j in combinations(range(len(redexes)), 2):
        r1, r2 = redexes[i], redexes[j]
        a = _leg(env, m, r1, contracted[i], r2)
        b = _leg(env, m, r2, contracted[j], r1)
        if a.final != b.final:
            raise InternalInvariantViolation(
                f"{r1[1].value} at {list(r1[0])} and {r2[1].value} at "
                f"{list(r2[0])} do not join by residuals")
        report.pairs.append(JoinResult((r1[1].value, r1[0]),
                                       (r2[1].value, r2[0]),
                                       True, a.final, (a, b)))
    return report


# ------------------------------------------------------ beta-eta path search

#: the search's bounds: the longest path, and the terms it expands
_MAX_DEPTH, _MAX_NODES = 32, 20000


def search_beta_eta(src: Term, dst: Term):
    """Breadth-first search for a detour/eta reduction path src ->* dst in
    the polymorphic systems; returns a (rule, position) script or None."""
    if src == dst:
        return []
    seen = {canonical_key(src)}
    queue = deque([(src, [])])
    expanded = 0
    while queue and expanded < _MAX_NODES:
        cur, script = queue.popleft()
        if len(script) >= _MAX_DEPTH:
            continue
        expanded += 1
        for pos, rule, _, _ in Scan(Env(), cur, F_BETA_ETA).redexes():
            nxt = replace_at(cur, pos, apply_rule(rule, subterm_at(cur, pos)))
            if nxt == dst:
                return script + [(rule, pos)]
            key = canonical_key(nxt)
            if key not in seen:
                seen.add(key)
                queue.append((nxt, script + [(rule, pos)]))
    return None
