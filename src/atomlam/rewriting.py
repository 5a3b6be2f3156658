"""Redex enumeration, single steps, multi-step normalization and traces.

Redex search threads the environment through binders (lambda and case
branches extend it), so each redex carries the environment in force at its
position, and the fineness flag of atomization/commuting redexes is
computed against that local environment. A binder that would shadow a
declared variable is alpha-renamed on the fly; positions are unaffected.
Search and normalization are views over one typed traversal
(typecheck.Scan); normalization keeps its results between steps, open at
the last step's position, and re-traverses only the contracted subterm.
A normalization step's result term is built when it is first read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import NotFine, StaleRedex, StepLimitExceeded
from .rules import RULES, RuleId, match_rule, rules_of_system
from .syntax import (InvalidPath, Term, _refill, replace_at, subterm_at,
                     term_children)
from .typecheck import Env, Scan, SystemId, _fine_match, descend

STRATEGIES = ("leftmost-outermost", "leftmost-innermost", "random")
_STRATEGY_ALIASES = {"lo": "leftmost-outermost", "li": "leftmost-innermost"}


@dataclass(frozen=True)
class Redex:
    position: tuple
    rule: RuleId
    local_env: Env
    fine: bool


@dataclass(frozen=True)
class TraceStep(Redex):
    """A contracted redex and the term it gave."""
    result: Term
    admin: bool = False

    def __getattr__(self, name):
        """The result of a step made by _later_step, not built yet: built,
        with each unbuilt one before it, oldest first, by putting each
        step's contractum in place."""
        if name != "result" or "_later" not in self.__dict__:
            raise AttributeError(name)
        chain, before = [], self
        while before.__class__ is TraceStep and "result" not in before.__dict__:
            chain.append(before)
            before = before.__dict__["_later"][0]
        term = before.result if before.__class__ is TraceStep else before
        for s in reversed(chain):
            contractum = s.__dict__.pop("_later")[1]
            spine = []
            for i in s.position:  # a step's position is on the term before
                spine.append(term)
                term = term_children(term)[i]
            term = s.__dict__["result"] = _refill(spine, s.position, contractum)
        return term


def _later_step(rule, position, local_env, before, contractum) -> TraceStep:
    """A fine step whose result is built when first read: `before` (the
    step before it, or the initial term) with `contractum` at position."""
    s = object.__new__(TraceStep)
    s.__dict__.update(rule=rule, position=position, local_env=local_env,
                      fine=True, admin=False, _later=(before, contractum))
    return s


@dataclass
class ReductionTrace:
    system: SystemId
    base_env: Env
    initial: Term
    steps: list = field(default_factory=list)
    #: W after each step, where the reduction tracks it (atomic_nf)
    weights: list = field(default_factory=list)
    #: (last step, final term) where the scan that step made built the
    #: final term (_settle); the steps' own results are built only if read
    _settled: tuple = field(default=None, init=False, repr=False,
                            compare=False)

    @property
    def final(self) -> Term:
        if not self.steps:
            return self.initial
        last = self.steps[-1]
        if self._settled is not None and self._settled[0] is last:
            return self._settled[1]
        return last.result

    def __len__(self):
        return len(self.steps)


def _validate_rules(sys, rules):
    rules = frozenset(RuleId(r) for r in rules)
    bad = rules - rules_of_system(sys)
    if bad:
        names = ", ".join(sorted(r.value for r in bad))
        raise ValueError(f"rules not valid in {sys.value}: {names}")
    return rules


def find_redexes(sys: SystemId, env: Env, m: Term, rules) -> list:
    """All positions where a rule's left-hand side matches, pre-order,
    with local environments and fineness flags."""
    scan = Scan(env, m, _validate_rules(sys, rules))
    return [Redex(*found) for found in scan.redexes()]


def step(sys: SystemId, env: Env, m: Term, r: Redex,
         require_fine: bool = True) -> Term:
    """Contract redex r inside m."""
    sub = subterm_at(m, r.position)
    if match_rule(r.rule, sub) is None:
        raise StaleRedex(f"no {r.rule.value} redex at {list(r.position)}")
    if require_fine and not r.fine:
        raise NotFine(f"{r.rule.value} redex at {list(r.position)} is not fine")
    return replace_at(m, r.position, RULES[r.rule].contract(sub))


def normalize(sys: SystemId, env: Env, m: Term, rules, strategy="leftmost-outermost",
              max_steps: int = 10000, seed=None) -> ReductionTrace:
    """Reduce until no fine redex among `rules` remains.

    Raises StepLimitExceeded (carrying the partial trace) at max_steps.
    """
    scan = Scan(env, m, _validate_rules(sys, rules))
    return reduce_scan(scan, ReductionTrace(sys, env, m), strategy, max_steps,
                       seed)


def _strategy(name):
    strategy = _STRATEGY_ALIASES.get(name, name)
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy; expected one of {STRATEGIES}")
    return strategy


def reduce_scan(scan: Scan, trace: ReductionTrace, strategy, max_steps, seed,
                on_step=None) -> ReductionTrace:
    """Contract fine redexes of `scan` by `strategy` until none is left,
    appending each step to `trace` (see normalize); on_step(trace, scan
    after the step) runs after each step.

    Leftmost-outermost takes the first fine redex in (position, RuleId)
    order, leftmost-innermost the first with no fine redex below it, and
    random a seeded uniform choice among all of them.
    """
    strategy = _strategy(strategy)
    rng = random.Random(seed) if strategy == "random" else None
    while scan.nfine:
        if len(trace.steps) >= max_steps:
            raise StepLimitExceeded(f"no normal form within {max_steps} steps", trace)
        if strategy == "leftmost-innermost":
            pos, rule, local = scan.innermost_fine_redex()
        else:
            k = 0 if strategy == "leftmost-outermost" else rng.choice(
                range(scan.nfine))
            pos, rule, local = scan.fine_redex(k)
        scan = _stepped(trace, scan, pos, rule, local)
        if on_step is not None:
            on_step(trace, scan)
    return _settle(trace, scan)


def _stepped(trace: ReductionTrace, scan: Scan, pos, rule, local) -> Scan:
    """scan.after(pos, rule), with the step appended to trace (local is
    the environment at pos); the step's result is built when first read,
    from the result before it and the contractum."""
    scan = scan.after(pos, rule)
    before = trace.steps[-1] if trace.steps else trace.initial
    trace.steps.append(_later_step(rule, pos, local, before, scan.made))
    return scan


def _settle(trace: ReductionTrace, scan: Scan) -> ReductionTrace:
    """trace, whose last step made `scan`, with its final term read off the
    scan: built without the terms between."""
    if trace.steps:
        trace._settled = trace.steps[-1], scan.term
    return trace


def env_at(env: Env, m: Term, pos) -> Env:
    """Environment in force at `pos` inside m (binders extend it)."""
    return descend(env, m, pos)[1]


def apply_script(sys: SystemId, env: Env, m: Term, script,
                 require_fine: bool = False) -> ReductionTrace:
    """Drive a list of (rule, position[, admin]) instructions into a trace.

    Used by the simulation and diagram builders, whose step sequences are
    known in advance; each step's local environment and fineness flag are
    computed on the fly, as redex search would give them.
    """
    trace = ReductionTrace(sys, env, m)
    current = m
    for instr in script:
        rule, pos = RuleId(instr[0]), tuple(instr[1])
        admin = bool(instr[2]) if len(instr) > 2 else False
        sub, local, ren, spine = descend(env, current, pos)
        payload = match_rule(rule, sub)
        if payload is None:
            raise StaleRedex(f"no {rule.value} redex at {list(pos)}")
        fine = _fine_match(local, rule, payload, ren)
        if require_fine and not fine:
            raise NotFine(f"{rule.value} step at {list(pos)} is not fine")
        current = _refill(spine, pos, RULES[rule].contract(sub))
        trace.steps.append(TraceStep(pos, rule, local, fine, current, admin))
    return trace


def replay(trace: ReductionTrace) -> bool:
    """True iff each recorded step, re-applied at its position to the
    recorded term before it, reproduces the recorded result up to alpha;
    False also at a position off that term. A trace shares what a step
    leaves with the term before, and the rule's row gives back the redex's
    one contractum (rules._Once), so each check walks only the path."""
    current = trace.initial
    for s in trace.steps:
        try:
            sub = subterm_at(current, s.position)
        except InvalidPath:
            return False
        if match_rule(s.rule, sub) is None or replace_at(
                current, s.position, RULES[s.rule].contract(sub)) != s.result:
            return False
        current = s.result
    return True


def shift(script, prefix):
    """Shift a (rule, position[, admin]) script under a position prefix."""
    prefix = tuple(prefix)
    return [(instr[0], prefix + tuple(instr[1]),
             instr[2] if len(instr) > 2 else False) for instr in script]
