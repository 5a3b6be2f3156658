"""Atomic normal forms, the termination weight, decomposition witnesses,
and the strict-simulation engine for the sum/empty-encoding translation.

The weight W is computed off the unique typing derivation: a pre-redex is
an occurrence M C Q or M C with C non-atomic whose head M has the
sum-encoded (resp. empty-encoded) type in the local environment; its
contribution is |C| * (1 + W(subterms)). W strictly decreases along every
fine atomization step, which atomic_nf asserts on each step it takes. The
typed traversal typecheck.Scan computes W's terms in the same walk that
finds the atomization redexes, and atomic_nf keeps it between steps.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import (InternalInvariantViolation, NotARedex, NotTypable,
                     StepLimitExceeded, TypingError)
from .rules import F_BETA_ETA, RuleId, apply_rule, match_rule
from .syntax import (And, App, Forall, FVar, Imp, Lam, Pair, Proj, Term,
                     TyApp, TyLam, Var, canonical_key, replace_at, subterm_at,
                     term_children)
from .rewriting import (Redex, ReductionTrace, apply_script, reduce_scan,
                        shift, step)
from .translate import RP_CHILD, rp_env, rp_term
from .typecheck import Env, Scan, SystemId, typecheck

ATOMIZATION_RULES = frozenset({RuleId.rho_case, RuleId.rho_abort})


def _atomization_scan(env: Env, m: Term) -> Scan:
    """The typed traversal of m for the atomization rules; NotTypable if m
    is not an F term in env."""
    scan = Scan(env, m, ATOMIZATION_RULES)
    if scan.root.ty is None:
        try:
            typecheck(SystemId.F, env, m)
        except TypingError as e:
            raise NotTypable(str(e)) from e
        raise InternalInvariantViolation("the traversal and typecheck disagree "
                                         "on typability")
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
    w = scan.root.w

    def check(trace, redex, before, after, scan):
        last = trace.weights[-1] if trace.weights else w
        wn = scan.root.w
        if wn >= last:
            raise InternalInvariantViolation(
                f"weight did not decrease: {last} -> {wn} "
                f"at {list(redex.position)}")
        trace.weights.append(wn)

    trace = ReductionTrace(SystemId.F, env, m)
    try:
        reduce_scan(scan, trace, strategy, w + 1, seed, check)
    except StepLimitExceeded as e:
        raise InternalInvariantViolation(
            "atomization exceeded its weight-derived step budget") from e
    return trace.final, trace


# ----------------------------------------------------------- decompositions

def _redex_subterm(m, r, expect_rules):
    if RuleId(r.rule) not in expect_rules:
        raise NotARedex(f"expected one of {sorted(x.value for x in expect_rules)}, "
                        f"got {r.rule.value}")
    sub = subterm_at(m, r.position)
    if match_rule(r.rule, sub) is None:
        raise NotARedex(f"no {r.rule.value} redex at {list(r.position)}")
    return sub


def decompose_delta(env: Env, m: Term, r: Redex) -> ReductionTrace:
    """Replay a delta step as one atomization step plus the detour steps it
    creates (two for implication/universal shapes, four for conjunction)."""
    sub = _redex_subterm(m, r, {RuleId.delta})
    c = sub.fun.arg
    p = r.position
    if isinstance(c, Imp):
        script = [(RuleId.rho_case, p),
                  (RuleId.beta_imp, p + (0, 1, 0, 0)),
                  (RuleId.beta_imp, p + (0, 1, 1, 0))]
    elif isinstance(c, Forall):
        script = [(RuleId.rho_case, p),
                  (RuleId.beta_all, p + (0, 1, 0, 0)),
                  (RuleId.beta_all, p + (0, 1, 1, 0))]
    else:
        script = [(RuleId.rho_case, p),
                  (RuleId.beta_and, p + (0, 1, 0, 0)),
                  (RuleId.beta_and, p + (0, 1, 1, 0)),
                  (RuleId.beta_and, p + (1, 1, 0, 0)),
                  (RuleId.beta_and, p + (1, 1, 1, 0))]
    trace = apply_script(SystemId.F, env, m, script)
    expected = replace_at(m, p, apply_rule(RuleId.delta, sub))
    if trace.final != expected:
        raise InternalInvariantViolation("delta decomposition endpoint mismatch")
    return trace


def decompose_eps(env: Env, m: Term, r: Redex) -> ReductionTrace:
    """Replay a commuting step as one atomization step plus one detour step."""
    sub = _redex_subterm(m, r, {RuleId.eps_case, RuleId.eps_abort})
    atom = RuleId.rho_case if r.rule == RuleId.eps_case else RuleId.rho_abort
    beta = {App: RuleId.beta_imp, Proj: RuleId.beta_and,
            TyApp: RuleId.beta_all}[type(sub)]
    p = r.position
    trace = apply_script(SystemId.F, env, m, [(atom, p + (0,)), (beta, p)])
    expected = replace_at(m, p, apply_rule(r.rule, sub))
    if trace.final != expected:
        raise InternalInvariantViolation("eps decomposition endpoint mismatch")
    return trace


def expand_rho(env: Env, m: Term, r: Redex):
    """Witness an atomization step as eta-expansion followed by reduction.

    For rho_case the expansion reduces by one delta step; for rho_abort it
    reduces by commuting steps. Together with the decompositions this is
    the executable form of the inclusion of atomization equality in
    commuting/eta equality.
    """
    from .syntax import free_type_vars_term, free_vars, fresh_name
    sub = _redex_subterm(m, r, {RuleId.rho_case, RuleId.rho_abort})
    p = r.position
    if r.rule == RuleId.rho_case:
        c = sub.fun.arg
        head, pair = sub.fun.fun, sub.arg
        bl, br = pair.fst, pair.snd

        def eta_expand(body):
            if isinstance(c, Imp):
                z = fresh_name("z", free_vars(body))
                return Lam(z, c.left, App(body, Var(z)))
            if isinstance(c, And):
                return Pair(Proj(1, body), Proj(2, body))
            v = fresh_name(c.var, free_type_vars_term(body))
            return TyLam(v, TyApp(body, FVar(v)))

        expanded = App(TyApp(head, c),
                       Pair(Lam(bl.var, bl.ann, eta_expand(bl.body)),
                            Lam(br.var, br.ann, eta_expand(br.body))))
        script = [(RuleId.delta, p)]
    else:
        c = sub.arg
        if isinstance(c, Imp):
            z = fresh_name("z", free_vars(sub))
            expanded = Lam(z, c.left, App(sub, Var(z)))
            script = [(RuleId.eps_abort, p + (0,))]
        elif isinstance(c, And):
            expanded = Pair(Proj(1, sub), Proj(2, sub))
            script = [(RuleId.eps_abort, p + (0,)), (RuleId.eps_abort, p + (1,))]
        else:
            from .syntax import free_type_vars_term as ftv
            v = fresh_name(c.var, ftv(sub))
            expanded = TyLam(v, TyApp(sub, FVar(v)))
            script = [(RuleId.eps_abort, p + (0,))]
    expansion = replace_at(m, p, expanded)
    trace = apply_script(SystemId.F, env, expansion, script)
    expected = replace_at(m, p, apply_rule(r.rule, sub))
    if trace.final != expected:
        raise InternalInvariantViolation("expansion witness endpoint mismatch")
    return expansion, trace


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


def simulate_step(env: Env, m: Term, r: Redex) -> ReductionTrace:
    """Fine trace from the translation of m to the translation of the
    contracted term, with the per-rule step pattern fixed in advance
    (4 detour steps for a sum detour, 7 eta/delta steps for a sum eta
    step, 1 or 2 commuting steps for the commuting rules, and the very
    same rule for the implication/conjunction rules)."""
    try:
        typecheck(SystemId.IPC, env, m)
    except TypingError as e:
        raise NotTypable(str(e)) from e
    sub = subterm_at(m, r.position)
    if match_rule(r.rule, sub) is None:
        raise NotARedex(f"no {r.rule.value} redex at {list(r.position)}")
    script = shift(_ROOT_SIM[RuleId(r.rule)], rp_position(m, r.position))
    base = rp_term(m)
    trace = apply_script(SystemId.F, rp_env(env), base, script)
    target = rp_term(step(SystemId.IPC, env, m, r))
    if trace.final != target:
        raise InternalInvariantViolation("simulation endpoint mismatch")
    return trace


# ------------------------------------------------------- local confluence

@dataclass(frozen=True)
class JoinResult:
    left: tuple  # (rule value, position)
    right: tuple
    joined: bool
    witness: Term | None


@dataclass
class ConfluenceReport:
    pairs: list = field(default_factory=list)

    @property
    def all_joined(self) -> bool:
        return all(p.joined for p in self.pairs)


def _join_search(a: Scan, b: Scan, depth, node_cap=4000):
    """Common fine atomization reduct of the scanned terms a and b within
    `depth` steps per side, by level-synchronized expansion with early
    exit; None if the bounded search finds nothing."""
    seen_a = {canonical_key(a.root.term): a.root.term}
    seen_b = {canonical_key(b.root.term): b.root.term}
    frontier_a, frontier_b = [a], [b]
    common = seen_a.keys() & seen_b.keys()
    if common:
        return seen_a[next(iter(common))]

    def expand(frontier, seen, other):
        nxt = []
        for cur in frontier:
            for pos, rule, _, fine in cur.redexes():
                if not fine:
                    continue
                new = cur.after(pos, rule)
                key = canonical_key(new.root.term)
                if key in seen:
                    continue
                seen[key] = new.root.term
                if key in other:
                    return nxt, new.root.term
                nxt.append(new)
                if len(seen) > node_cap:
                    return nxt, None
        return nxt, None

    for _ in range(depth):
        if not frontier_a and not frontier_b:
            break
        frontier_a, hit = expand(frontier_a, seen_a, seen_b)
        if hit is not None:
            return hit
        frontier_b, hit = expand(frontier_b, seen_b, seen_a)
        if hit is not None:
            return hit
        if len(seen_a) > node_cap or len(seen_b) > node_cap:
            break
    return None


def check_local_confluence(env: Env, m: Term, rules=ATOMIZATION_RULES,
                           max_join: int = 16) -> ConfluenceReport:
    """For every pair of distinct fine atomization redexes, contract both
    and search a common fine reduct within max_join steps each side."""
    scan = _atomization_scan(env, m)
    rules = frozenset(RuleId(x) for x in rules)
    if not rules <= ATOMIZATION_RULES:
        raise ValueError("local confluence check covers atomization rules only")
    redexes = [(pos, rule) for pos, rule, _, fine in scan.redexes()
               if fine and rule in rules]
    report = ConfluenceReport()
    for i in range(len(redexes)):
        for j in range(i + 1, len(redexes)):
            r1, r2 = redexes[i], redexes[j]
            witness = _join_search(scan.after(*r1), scan.after(*r2), max_join)
            report.pairs.append(JoinResult((r1[1].value, r1[0]),
                                           (r2[1].value, r2[0]),
                                           witness is not None, witness))
    return report


# ------------------------------------------------------ beta-eta path search

def enumerate_matches(t: Term, rules):
    """(rule, position) pairs for every rule match, pre-order."""
    out = []

    def visit(cur, pos):
        for rule in rules:
            if match_rule(rule, cur) is not None:
                out.append((rule, pos))
        for i, child in enumerate(term_children(cur)):
            visit(child, pos + (i,))

    visit(t, ())
    return out


def search_beta_eta(src: Term, dst: Term, max_depth: int = 32,
                    max_nodes: int = 20000):
    """Breadth-first search for a detour/eta reduction path src ->* dst in
    the polymorphic systems; returns a (rule, position) script or None."""
    if src == dst:
        return []
    rules = sorted(F_BETA_ETA, key=lambda r: r.value)
    start_key = canonical_key(src)
    seen = {start_key}
    queue = deque([(src, [])])
    expanded = 0
    while queue and expanded < max_nodes:
        cur, script = queue.popleft()
        if len(script) >= max_depth:
            continue
        expanded += 1
        for rule, pos in enumerate_matches(cur, rules):
            nxt = replace_at(cur, pos, apply_rule(rule, subterm_at(cur, pos)))
            if nxt == dst:
                return script + [(rule, pos)]
            key = canonical_key(nxt)
            if key not in seen:
                seen.add(key)
                queue.append((nxt, script + [(rule, pos)]))
    return None
