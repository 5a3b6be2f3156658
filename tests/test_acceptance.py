"""Acceptance criteria, one test per criterion.

Each test runs its property over a deterministic generated corpus (at
least 500 typable terms where a corpus is called for) and prints one
PASS/FAIL line; run with `pytest tests/test_acceptance.py -s` to see the
lines as they complete.
"""

import io
import json
import random
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from atomlam import (And, App, Env, FVar, Lam, Proj, RuleId, SystemId, TyApp,
                     TyLam, Var, apply_rule, at_term, atomic_nf,
                     decompose_delta, decompose_eps, encode_bot, expand_rho,
                     find_redexes, parse_formula, parse_term, replace_at,
                     replay, rp_env, rp_term, simulate_step, step, subterm_at,
                     typecheck, weight)
from atomlam.diagram import OR_BOT_RULES, at_copy_positions, build_diagram
from atomlam.errors import (AtomicInstantiation, NonAtomicInstantiation,
                            NotFine)
from atomlam.rules import rules_of_system

import corpus

pf, pt = parse_formula, parse_term
IPC, F, FAT = SystemId.IPC, SystemId.F, SystemId.FAT
RHO = {RuleId.rho_case, RuleId.rho_abort}


def _report(number, description, failures, checked):
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {number}] {status}: {description} "
          f"({checked} checks, {len(failures)} failures)")
    assert not failures, failures[:3]


def test_criterion_1_subject_reduction():
    failures = []
    checked = 0
    beta_eta = {RuleId.beta_imp, RuleId.beta_and, RuleId.beta_all,
                RuleId.eta_imp, RuleId.eta_and, RuleId.eta_all}
    suites = [(IPC, [(e, t) for e, t, _ in corpus.ipc_redex_corpus(201, 210)]
               + corpus.ipc_corpus(202, 40)),
              (F, [(e, t) for e, t, _ in corpus.f_redex_corpus(
                  203, 120, rules_of_system(F) - rules_of_system(FAT))]
               + [(e, t) for e, t, _ in corpus.f_redex_corpus(206, 60, beta_eta)]
               + corpus.f_corpus(204, 40)),
              (FAT, corpus.f_corpus(205, 40, fat=True)
               + [(e, t) for e, t, _ in corpus.f_redex_corpus(
                   207, 40, beta_eta, fat=True)])]
    assert sum(len(s) for _, s in suites) >= 500
    for sys_id, suite in suites:
        rules = rules_of_system(sys_id)
        for env, t in suite:
            before = typecheck(sys_id, env, t)
            for r in find_redexes(sys_id, env, t, rules):
                if not r.fine:
                    continue
                checked += 1
                after = step(sys_id, env, t, r)
                if typecheck(sys_id, env, after) != before:
                    failures.append((sys_id, t, r.rule, r.position))
    _report(1, "type preserved along every fine step", failures, checked)


_SIM_CLASSES = {
    RuleId.beta_imp: ({RuleId.beta_imp}, 1),
    RuleId.beta_and: ({RuleId.beta_and}, 1),
    RuleId.eta_imp: ({RuleId.eta_imp}, 1),
    RuleId.eta_and: ({RuleId.eta_and}, 1),
    RuleId.beta_or: ({RuleId.beta_all, RuleId.beta_imp, RuleId.beta_and}, 4),
    RuleId.eta_or: ({RuleId.delta, RuleId.eta_imp, RuleId.eta_and,
                     RuleId.eta_all}, 7),
    RuleId.pi_imp: ({RuleId.eps_case}, 1),
    RuleId.pi_and: ({RuleId.eps_case}, 1),
    RuleId.pi_or: ({RuleId.eps_case}, 2),
    RuleId.pi_bot: ({RuleId.eps_case}, 1),
    RuleId.varpi_imp: ({RuleId.eps_abort}, 1),
    RuleId.varpi_and: ({RuleId.eps_abort}, 1),
    RuleId.varpi_or: ({RuleId.eps_abort}, 2),
    RuleId.varpi_bot: ({RuleId.eps_abort}, 1),
}


def test_criterion_2_strict_simulation():
    failures = []
    checked = 0
    suite = corpus.ipc_redex_corpus(211, 520)
    assert len(suite) >= 500
    for env, t, _ in suite:
        for r in find_redexes(IPC, env, t, rules_of_system(IPC)):
            checked += 1
            tr = simulate_step(env, t, r)
            classes, count = _SIM_CLASSES[r.rule]
            target = rp_term(step(IPC, env, t, r))
            ok = (len(tr) == count
                  and {s.rule for s in tr.steps} <= classes
                  and len(tr) > 0
                  and all(s.fine for s in tr.steps)
                  and tr.initial == rp_term(t)
                  and tr.final == target)
            if not ok:
                failures.append((t, r.rule, r.position))
    _report(2, "each source step maps to a non-empty fine trace with the "
               "stated rule classes and step counts", failures, checked)


def test_criterion_3_comparison_of_maps():
    failures = []
    suite = (corpus.ipc_corpus(221, 260)
             + [(e, t) for e, t, _ in corpus.ipc_redex_corpus(222, 260)])
    assert len(suite) >= 500
    for env, t in suite:
        renv = rp_env(env)
        nf, _ = atomic_nf(renv, rp_term(t))
        if nf != at_term(t):
            failures.append(t)
    _report(3, "the atomic normal form of the full-instantiation image is "
               "the atomic image", failures, len(suite))


def test_criterion_4_termination_measure():
    failures = []
    checked = 0
    # the hand-checkable instance
    env0 = Env([("z", encode_bot())])
    w0 = weight(env0, pt("z [X & X]")).total
    w1 = weight(env0, apply_rule(RuleId.rho_abort, pt("z [X & X]"))).total
    checked += 1
    if not (w0 == 1 and w1 == 0 and w0 > w1):
        failures.append(("hand instance", w0, w1))
    suite = ([(e, t) for e, t, _ in corpus.f_redex_corpus(231, 260, RHO)]
             + corpus.f_corpus(232, 250))
    assert len(suite) + 1 >= 500
    for env, t in suite:
        w = weight(env, t).total
        _, trace = atomic_nf(env, t)
        cur, cw = t, w
        for s in trace.steps:
            checked += 1
            nw = weight(env, s.result).total
            if nw >= cw:
                failures.append((t, s.rule, s.position, cw, nw))
            cw = nw
    _report(4, "the weight strictly decreases along every fine atomization "
               "step", failures, checked)


def test_criterion_5_unique_normal_form():
    failures = []
    suite = ([(e, t) for e, t, _ in corpus.f_redex_corpus(241, 260, RHO)]
             + corpus.f_corpus(242, 250))
    assert len(suite) >= 500
    strategies = (("leftmost-outermost", None), ("leftmost-innermost", None),
                  ("random", 5), ("random", 17), ("random", 23))
    for env, t in suite:
        results = [atomic_nf(env, t, strategy=s, seed=seed)[0]
                   for s, seed in strategies]
        if not all(x == results[0] for x in results[1:]):
            failures.append(t)
    _report(5, "five strategies give alpha-equal atomic normal forms",
            failures, len(suite) * len(strategies))


def test_criterion_6_decompositions():
    failures = []
    checked = 0
    suite = corpus.f_redex_corpus(
        251, 520, {RuleId.delta, RuleId.eps_case, RuleId.eps_abort,
                   RuleId.rho_case, RuleId.rho_abort})
    assert len(suite) >= 500
    for env, t, _ in suite:
        for r in find_redexes(F, env, t, {RuleId.delta, RuleId.eps_case,
                                          RuleId.eps_abort} | RHO):
            if not r.fine:
                continue
            sub = subterm_at(t, r.position)
            direct = replace_at(t, r.position, apply_rule(r.rule, sub))
            checked += 1
            if r.rule == RuleId.delta:
                tr = decompose_delta(env, t, r)
                want = 5 if isinstance(sub.fun.arg, And) else 3
                if len(tr) != want or tr.final != direct:
                    failures.append(("delta", t, r.position))
            elif r.rule in (RuleId.eps_case, RuleId.eps_abort):
                tr = decompose_eps(env, t, r)
                if len(tr) != 2 or tr.final != direct:
                    failures.append(("eps", t, r.position))
            else:
                expansion, tr = expand_rho(env, t, r)
                if tr.final != direct or not replay(tr):
                    failures.append(("expand", t, r.position))
    _report(6, "decomposition traces have the prescribed lengths and "
               "endpoints; expansions witness the equalities", failures,
            checked)


def test_criterion_7_diagrams():
    failures = []
    checked = 0
    suite = corpus.ipc_redex_corpus(
        261, 510, rules=sorted(OR_BOT_RULES, key=lambda x: x.value))
    assert len(suite) >= 500
    for env, t, r in suite:
        checked += 1
        d = build_diagram(env, t, r)
        problems = d.verify()
        if problems:
            failures.append((t, r.rule, problems))
            continue
        for name, leg in d.legs.items():
            for s in leg.steps:
                if s.admin and name not in ("m_at->q1", "n_at->q2"):
                    failures.append((t, r.rule, "admin tag on " + name))
        if r.rule == RuleId.eta_or:
            # q1 restricted to each copy matches the expected midpoint:
            # tfun X => fun w => M [X] <fun x => w.1 x, fun y => w.2 y>
            sub = subterm_at(t, r.position)
            scrut_at = at_term(sub.scrut)
            for cp in at_copy_positions(t, r.position):
                q = subterm_at(d.q1, cp)
                spine = q.body.body
                ok = (isinstance(q, TyLam) and isinstance(q.body, Lam)
                      and isinstance(spine, App)
                      and isinstance(spine.fun, TyApp)
                      and spine.fun.fun == scrut_at
                      and isinstance(spine.arg.fst.body, App)
                      and isinstance(spine.arg.fst.body.fun, Proj)
                      and spine.arg.fst.body.fun.index == 1
                      and spine.arg.snd.body.fun.index == 2)
                if not ok:
                    failures.append((t, "eta_or midpoint shape"))
    _report(7, "every disjunction/absurdity diagram verifies; "
               "administrative tags only on the translated-step legs",
            failures, checked)


def test_criterion_8_negative_controls():
    failures = []
    env = Env([("z", pf("forall X.X"))])
    try:
        typecheck(FAT, env, pt("z [Y -> Y]"))
        failures.append("fat accepted a non-atomic instantiation")
    except NonAtomicInstantiation:
        pass
    for bad in ("z [X]", "m [X] <fun x:A => p, fun y:B => q>"):
        try:
            apply_rule(RuleId.rho_abort if bad == "z [X]" else RuleId.rho_case,
                       pt(bad))
            failures.append(f"atomization accepted atomic instantiation: {bad}")
        except AtomicInstantiation:
            pass
    # a case-shaped spine whose head is not of the encoded sum type
    env2 = Env([("m", pf("forall X. (X -> X) -> X")), ("a", FVar("X"))])
    t = pt("m [X & X] <fun x:X => <a, a>, fun y:X => <a, a>>")
    redexes = find_redexes(F, env2, t, {RuleId.rho_case})
    if not redexes or redexes[0].fine:
        failures.append("ill-headed spine not reported fine=false")
    else:
        try:
            step(F, env2, t, redexes[0])
            failures.append("step contracted a non-fine redex")
        except NotFine:
            pass
    _report(8, "non-atomic instantiation, atomic atomization and non-fine "
               "steps are all refused", failures, 4)


def test_criterion_9_golden_replay():
    from atomlam.cli import main
    golden = Path(__file__).parent / "golden"
    manifest = json.loads((golden / "manifest.json").read_text())
    failures = []
    for case in manifest:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(case["argv"])
        expected = (golden / f"{case['name']}.json").read_text()
        if code != 0 or buf.getvalue() != expected:
            failures.append(case["name"])
    _report(9, "every golden structured trace re-verifies bit-exactly",
            failures, len(manifest))
