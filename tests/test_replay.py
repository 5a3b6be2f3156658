"""Replay checks each recorded step locally, against the recorded term
before it, and still refuses every trace that was tampered with; the
contraction it re-applies respects alpha-equivalence; and the work replay
and build_diagram do is pinned by exact counts."""

import dataclasses
import random
from collections import Counter

from atomlam import (Env, FVar, ReductionTrace, RuleId, SystemId, apply_rule,
                     atomic_nf, find_redexes, fresh_name, normalize,
                     parse_term, replace_at, replay, rp_env, rp_term,
                     simulate_step, subterm_at)
from atomlam import analysis, diagram, rewriting, syntax
from atomlam.rules import F_BETA_ETA, match_rule, rules_of_system
from atomlam.syntax import formula_children, term_children

import corpus
from test_alpha import _rename, _size
from test_diagram import _diagram_for
from test_ladder import ENV as LADDER_ENV, ladder

IPC, F = SystemId.IPC, SystemId.F
RHO = {RuleId.rho_case, RuleId.rho_abort}


def _corpus_traces():
    """Traces the engine makes: simulations, atomization and reduction."""
    out = []
    for env, t, _ in corpus.ipc_redex_corpus(211, 40):
        out += [simulate_step(env, t, r)
                for r in find_redexes(IPC, env, t, rules_of_system(IPC))]
    for env, t in corpus.ipc_corpus(221, 20):
        out.append(atomic_nf(rp_env(env), rp_term(t))[1])
    rng = random.Random(7)
    for env, t in corpus.f_corpus(37, 20):
        out.append(normalize(F, env, t, rules_of_system(F), strategy="random",
                             seed=rng.randrange(1000)))
    return [tr for tr in out if tr.steps]


def _diagram_legs():
    return [leg for rule in (RuleId.pi_or, RuleId.eta_or)
            for leg in _diagram_for(rule)[3].legs.values() if leg.steps]


TRACES = _corpus_traces() + _diagram_legs()


def _with_step(trace, k, **changes):
    steps = list(trace.steps)
    steps[k] = dataclasses.replace(steps[k], **changes)
    return ReductionTrace(trace.system, trace.base_env, trace.initial, steps)


def _before(trace, k):
    return trace.steps[k - 1].result if k else trace.initial


def test_corpus_and_diagram_traces_replay():
    assert len(TRACES) > 150
    assert all(replay(tr) for tr in TRACES)


def test_a_wrong_result_does_not_replay():
    for tr in TRACES:
        for k, s in enumerate(tr.steps):
            before = _before(tr, k)
            assert before != s.result  # a step changes its term
            assert not replay(_with_step(tr, k, result=before))
            # a later result stands for an earlier one
            if k + 1 < len(tr.steps):
                assert not replay(_with_step(tr, k,
                                             result=tr.steps[k + 1].result))


def test_a_swapped_rule_does_not_replay():
    for tr in TRACES:
        rules = sorted(rules_of_system(tr.system), key=lambda r: r.value)
        for k, s in enumerate(tr.steps):
            for rule in rules:
                if rule is not s.rule:
                    assert not replay(_with_step(tr, k, rule=rule))


def test_a_moved_position_does_not_replay():
    checked = 0
    for tr in TRACES:
        for k, s in enumerate(tr.steps):
            before = _before(tr, k)
            moved = [p for p in corpus.positions(before) if p != s.position
                     and match_rule(s.rule, subterm_at(before, p))]
            for p in moved + [s.position[:-1]] * bool(s.position):
                sub = subterm_at(before, p)
                if match_rule(s.rule, sub) and replace_at(
                        before, p, apply_rule(s.rule, sub)) == s.result:
                    # one of several like redexes (as in u [A] [A] [A]):
                    # the step moved there is the same step
                    continue
                assert not replay(_with_step(tr, k, position=p))
                checked += 1
    assert checked > 300


def test_a_position_off_the_term_does_not_replay():
    trace = normalize(IPC, Env([("y", FVar("X"))]),
                      parse_term("(fun x:X => x) y"), {RuleId.beta_imp})
    assert replay(trace)
    assert not replay(_with_step(trace, 0, position=(5,)))


# ---------------------------------------------------- renaming binders

def _names(node):
    """Every variable and binder name in node, of either sort."""
    own = {v for v in (getattr(node, f.name) for f in dataclasses.fields(node))
           if isinstance(v, str)}
    return own.union(*map(_names, term_children(node)),
                     *map(_names, formula_children(node)))


def _renamed(node, avoid=()):
    """node with every binder renamed to a fresh primed name: one not in
    node, not in `avoid` and not given to another binder."""
    used = _names(node) | set(avoid)

    def pick(old, _):
        new = fresh_name(old + "'", used)
        used.add(new)
        return new

    return _rename(node, pick)


def _identical(a, b):
    """a and b are the same tree, name for name."""
    return repr(a) == repr(b)


def test_alpha_renamed_results_replay():
    changed = 0
    for tr in TRACES:
        avoid = set(tr.base_env.names())
        steps = [dataclasses.replace(s, result=_renamed(s.result, avoid))
                 for s in tr.steps]
        assert all(s.result == r.result for s, r in zip(tr.steps, steps))
        changed += any(not _identical(s.result, r.result)
                       for s, r in zip(tr.steps, steps))
        assert replay(ReductionTrace(tr.system, tr.base_env, tr.initial,
                                     steps))
    assert changed > len(TRACES) * 3 // 4


def _criterion_redexes():
    """(rule, redex) for every redex of the IPC terms of criteria 2 and 7
    and of their rp images, and of the F terms of criteria 1 and 6."""
    ipc = (corpus.ipc_redex_corpus(211, 520)
           + corpus.ipc_redex_corpus(261, 510, rules=sorted(
               diagram.OR_BOT_RULES, key=lambda x: x.value)))
    f = (corpus.f_redex_corpus(206, 60, F_BETA_ETA)
         + corpus.f_redex_corpus(251, 520, {RuleId.delta, RuleId.eps_case,
                                            RuleId.eps_abort} | RHO))
    suites = ([(IPC, env, t) for env, t, _ in ipc]
              + [(F, rp_env(env), rp_term(t)) for env, t, _ in ipc]
              + [(F, env, t) for env, t, _ in f])
    for sys_id, env, t in suites:
        for r in find_redexes(sys_id, env, t, rules_of_system(sys_id)):
            yield r.rule, subterm_at(t, r.position)


def test_contraction_respects_alpha_equivalence():
    redexes, renamed = Counter(), Counter()
    for rule, sub in _criterion_redexes():
        redexes[rule] += 1
        other = _renamed(sub)
        if not _identical(other, sub):
            renamed[rule] += 1
            assert apply_rule(rule, other) == apply_rule(rule, sub), rule
    assert set(redexes) == set(RuleId)
    assert sum(renamed.values()) > sum(redexes.values()) // 2


# ------------------------------------------------------ counted work

def _replay_visits(monkeypatch, trace):
    """Replay trace, and count for each step the node pairs its equality
    check visits: the calls of `==`'s two walks under the comparison of
    the term rebuilt at that step with the recorded result."""
    built, visits, depth, counting = [], [], [0], [False]
    rebuild = rewriting.replace_at

    def replace_at(*args):
        built.append(rebuild(*args))
        return built[-1]

    def counted(walk):
        def wrapper(a, b, *rest):
            if depth[0] == 0:
                counting[0] = bool(built) and a is built[-1]
                visits.extend([0] * counting[0])
            if counting[0]:
                visits[-1] += 1
            depth[0] += 1
            try:
                return walk(a, b, *rest)
            finally:
                depth[0] -= 1
        return wrapper

    with monkeypatch.context() as m:
        m.setattr(rewriting, "replace_at", replace_at)
        for name in ("_same", "_alpha"):
            m.setattr(syntax, name, counted(getattr(syntax, name)))
        assert replay(trace)
    assert len(visits) == len(built) == len(trace.steps)
    return visits


def _pinned_traces():
    """Every leg of one pi_or diagram, and atomic_nf's trace of case^3/1."""
    legs = [leg for leg in _diagram_for(RuleId.pi_or)[3].legs.values()
            if leg.steps]
    m = ladder(3, 1)
    return legs + [atomic_nf(rp_env(LADDER_ENV), rp_term(m))[1]]


def test_replayed_steps_visit_only_the_path_and_the_contractum(monkeypatch):
    checked = 0
    for trace in _pinned_traces():
        visits = _replay_visits(monkeypatch, trace)
        for s, n in zip(trace.steps, visits):
            contractum = subterm_at(s.result, s.position)
            assert n <= _size(contractum) + len(s.position) + 1
            checked += 1
        # far less than walking every result whole
        assert sum(visits) < sum(_size(s.result) for s in trace.steps) / 2
    assert checked > 40


def test_build_diagram_translates_and_types_each_source_term_once(monkeypatch):
    calls = Counter()
    for name in ("typecheck", "rp_term", "at_term", "step"):
        for module in (diagram, analysis):
            original = getattr(module, name, None)
            if original is None:
                continue

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    for rule in sorted(diagram.OR_BOT_RULES, key=lambda r: r.value):
        calls.clear()
        d = _diagram_for(rule)[3]
        assert not d.verify()
        # M is typed and stepped once; M and N are each translated once
        # by each map
        assert calls == {"typecheck": 1, "step": 1, "rp_term": 2,
                         "at_term": 2}, rule
