import random

import pytest

from atomlam import (Abort, And, Case, Env, FVar, RuleId, SystemId, Var,
                     alpha_eq, at_term, find_redexes, parse_formula,
                     parse_term, replay, rp_term, step, subterm_at, typecheck)
from atomlam.diagram import (OR_BOT_RULES, at_copy_positions, build_diagram)
from atomlam.errors import RuleNotApplicable

import corpus

pf, pt = parse_formula, parse_term
IPC = SystemId.IPC
SIMPLE = OR_BOT_RULES - {RuleId.eta_or, RuleId.pi_or, RuleId.pi_bot}


def _diagram_for(rule, seed=1):
    rng = random.Random(seed)
    env = corpus.IPC_BASE
    t = corpus.make_ipc_redex(rng, rule)
    [r] = [x for x in find_redexes(IPC, env, t, {rule}) if x.position == ()]
    return env, t, r, build_diagram(env, t, r)


def test_rejects_shared_connective_rules():
    env = Env([("y", FVar("X"))])
    t = pt("(fun x:X => x) y")
    [r] = find_redexes(IPC, env, t, {RuleId.beta_imp})
    with pytest.raises(RuleNotApplicable):
        build_diagram(env, t, r)


def test_simple_rules_collapse_midpoints():
    for rule in sorted(SIMPLE, key=lambda r: r.value):
        env, t, r, d = _diagram_for(rule)
        assert alpha_eq(d.q1, d.m_at) and alpha_eq(d.q2, d.n_at)
        assert d.legs["m_rp->q1"] is d.legs["m_rp->m_at"]
        assert d.legs["n_rp->q2"] is d.legs["n_rp->n_at"]
        assert len(d.legs["m_at->q1"].steps) == 0
        assert len(d.legs["n_at->q2"].steps) == 0
        assert d.verify() == []


def test_eta_or_midpoint_matches_display():
    env, t, r, d = _diagram_for(RuleId.eta_or)
    # q1 is tfun X => fun w => M [X] <fun x => w.1 x, fun y => w.2 y>
    scrut_at = at_term(t.scrut)
    q1 = d.q1
    from atomlam import App, Lam, Pair, Proj, TyApp, TyLam
    assert isinstance(q1, TyLam) and isinstance(q1.body, Lam)
    spine = q1.body.body
    assert isinstance(spine, App) and isinstance(spine.fun, TyApp)
    assert alpha_eq(spine.fun.fun, scrut_at)
    lb, rb = spine.arg.fst, spine.arg.snd
    assert isinstance(lb.body, App) and isinstance(lb.body.fun, Proj)
    assert lb.body.fun.index == 1 and rb.body.fun.index == 2
    # the four detour steps from the atomic image are administrative
    leg = d.legs["m_at->q1"]
    assert len(leg.steps) == 4 and all(s.admin for s in leg.steps)
    # and q1 -> q2 is the five-step eta leg ending at the scrutinee image
    assert len(d.legs["q1->q2"].steps) == 5
    assert alpha_eq(d.q2, scrut_at)
    assert d.verify() == []


def test_pi_bot_atomic_annotation_collapses():
    # with an atomic result annotation the midpoint is the atomic image and
    # the leg from the full-instantiation image is the bridge itself
    env = corpus.IPC_BASE
    t = pt("abort[Z] (case s of { x:X => u ; y:Y => u } : bot)")
    envz = Env(list(env.items()))
    [r] = find_redexes(IPC, envz, t, {RuleId.pi_bot})
    d = build_diagram(envz, t, r)
    assert alpha_eq(d.q2, d.n_at)
    assert d.legs["n_rp->q2"] is d.legs["n_rp->n_at"]
    assert d.verify() == []


def test_pi_or_imp_annotation_has_two_admin_steps():
    env = corpus.IPC_BASE
    t = pt("case (case s of { x:X => in1[X|Y] x ; y:Y => in2[X|Y] y } : X | Y)"
           " of { l:X => f ; k:Y => f } : X -> Y")
    [r] = [x for x in find_redexes(IPC, env, t, {RuleId.pi_or})
           if x.position == ()]
    d = build_diagram(env, t, r)
    leg = d.legs["n_at->q2"]
    assert len(leg.steps) == 2 and all(s.admin for s in leg.steps)
    assert all(s.rule == RuleId.beta_imp for s in leg.steps)
    assert d.verify() == []


def test_conjunction_annotation_flags_faithful_admin_count():
    env = corpus.IPC_BASE
    t = pt("abort[X & Y] (case s of { x:X => u ; y:Y => u } : bot)")
    [r] = find_redexes(IPC, env, t, {RuleId.pi_bot})
    d = build_diagram(env, t, r)
    leg = d.legs["n_at->q2"]
    # faithful replay contracts one projection redex per branch and
    # component: four in total at a conjunction level
    assert len(leg.steps) == 4 and all(s.admin for s in leg.steps)
    assert d.verify() == []


def test_duplicating_context():
    # an enclosing abort at a conjunction duplicates the redex image; all
    # legs replay per copy
    env = corpus.IPC_BASE
    inner = pt("case abort[X | Y] u of { x:X => u ; y:Y => u } : bot")
    t = Abort(inner, pf("X & (Y & X)"))
    typecheck(IPC, env, t)
    [r] = find_redexes(IPC, env, t, {RuleId.varpi_or})
    copies = at_copy_positions(t, r.position)
    assert len(copies) == 3
    d = build_diagram(env, t, r)
    assert d.verify() == []
    assert len(d.legs["q1->q2"].steps) % len(copies) == 0


def test_all_rules_on_nested_corpus():
    for env, t, r in corpus.ipc_redex_corpus(
            103, 80, rules=sorted(OR_BOT_RULES, key=lambda x: x.value)):
        d = build_diagram(env, t, r)
        problems = d.verify()
        assert problems == [], (r.rule, problems)
        # corners really are the four translations
        assert alpha_eq(d.m_rp, rp_term(t))
        assert alpha_eq(d.m_at, at_term(t))
        n = step(IPC, env, t, r)
        assert alpha_eq(d.n_rp, rp_term(n))
        assert alpha_eq(d.n_at, at_term(n))
        # fineness on the legs out of the full-instantiation corners
        for name in ("m_rp->m_at", "n_rp->n_at", "m_rp->n_rp",
                     "m_rp->q1", "n_rp->q2"):
            assert all(s.fine for s in d.legs[name].steps), name


# ------------------------------------------------- constructed detour legs

RESULTS = ("X", "X -> Y", "X & Y", "X | Y", "bot")
_CANON = {"X": "a", "X -> Y": "f", "X & Y": "p", "X | Y": "s", "bot": "u"}
_BOT = "case s of { c:X => u ; d:Y => u } : bot"


def _nested(t, a):
    return f"case s of {{ c:X => {t} ; d:Y => {t} }} : {a}"


def _redex_text(rule, c):
    """A root redex of `rule` whose type is c, with a nested case in a
    branch payload (or in the abort body)."""
    k, c = _CANON[c], f"({c})"
    return {
        "beta_or": f"case in1[X|Y] a of {{ x:X => {_nested(k, c)} ; "
                   f"y:Y => {k} }} : {c}",
        "varpi_or": f"case abort[X|Y] ({_BOT}) of {{ x:X => {_nested(k, c)} ; "
                    f"y:Y => {k} }} : {c}",
        "varpi_bot": f"abort[{c}] (abort[bot] ({_BOT}))",
        "pi_imp": f"(case s of {{ x:X => {_nested('fun z:X => ' + k, 'X -> ' + c)} ; "
                  f"y:Y => fun z:X => {k} }} : X -> {c}) a",
        "pi_and": f"(case s of {{ x:X => {_nested(f'<{k}, a>', c + ' & X')} ; "
                  f"y:Y => <{k}, a> }} : {c} & X).1",
        "varpi_imp": f"(abort[X -> {c}] ({_BOT})) a",
        "varpi_and": f"(abort[{c} & X] ({_BOT})).1",
    }[rule]


# Leaves of the atomic case/abort unfolding at each result formula, and
# the eta steps that close its levels, innermost first.
_LEAVES = {"X": [()], "X -> Y": [(0,)], "X & Y": [(0,), (1,)],
           "X | Y": [(0, 0)], "bot": [(0,)]}
_ETAS = {"X": [], "X -> Y": [("eta_imp", ())], "X & Y": [("eta_and", ())],
         "X | Y": [("eta_imp", (0,)), ("eta_all", ())], "bot": [("eta_all", ())]}
_LEAF_SCRIPTS = {
    "beta_or": [("beta_all", (0,)), ("beta_imp", ()), ("beta_and", (0,)),
                ("beta_imp", ())],
    "varpi_or": [("beta_all", (0,)), ("beta_imp", ())],
    "varpi_bot": [("beta_all", ())],
}
_ROOT_SCRIPTS = {"pi_imp": [("beta_imp", ())], "varpi_imp": [("beta_imp", ())],
                 "pi_and": [("beta_and", ())], "varpi_and": [("beta_and", ())]}


def _expected_leg(rule, c):
    if rule in _ROOT_SCRIPTS:
        return _ROOT_SCRIPTS[rule]
    out = [(name, leaf + pos) for leaf in _LEAVES[c]
           for name, pos in _LEAF_SCRIPTS[rule]]
    return out + (_ETAS[c] if rule == "beta_or" else [])


@pytest.fixture
def no_search(monkeypatch):
    import atomlam.analysis
    import atomlam.diagram

    def boom(*args, **kwargs):
        raise AssertionError("a diagram leg was searched")

    for module in (atomlam, atomlam.analysis, atomlam.diagram):
        monkeypatch.setattr(module, "search_beta_eta", boom)


@pytest.mark.parametrize("c", RESULTS)
@pytest.mark.parametrize("rule", sorted(SIMPLE, key=lambda r: r.value),
                         ids=lambda r: r.value)
def test_detour_leg_is_constructed(no_search, rule, c):
    env = corpus.IPC_BASE
    t = pt(_redex_text(rule.value, c))
    assert typecheck(IPC, env, t) == pf(c)
    [r] = [x for x in find_redexes(IPC, env, t, {rule}) if x.position == ()]
    d = build_diagram(env, t, r)
    assert d.verify() == []
    got = [(s.rule.value, s.position) for s in d.legs["q1->q2"].steps]
    assert got == _expected_leg(rule.value, c)


def test_beta_or_leg_at_a_conjunction(no_search):
    # 4 detour steps per conjunct, then one eta step; a breadth-first
    # search for this leg took seconds
    env = corpus.IPC_BASE
    t = pt("case in1[X|Y] a of { x:X => case s of { c:X => <x, c> ; "
           "d:Y => abort[X & X] u } : X & X ; y:Y => <a, a> } : X & X")
    [r] = find_redexes(IPC, env, t, {RuleId.beta_or})
    d = build_diagram(env, t, r)
    assert d.verify() == []
    rules = [s.rule.value for s in d.legs["q1->q2"].steps]
    assert rules == ["beta_all", "beta_imp", "beta_and", "beta_imp"] * 2 + ["eta_and"]


def test_nested_corpus_builds_without_search(no_search):
    for env, t, r in corpus.ipc_redex_corpus(
            103, 80, rules=sorted(OR_BOT_RULES, key=lambda x: x.value)):
        assert build_diagram(env, t, r).verify() == [], r.rule


def test_diagram_has_no_search_state():
    from dataclasses import fields
    from atomlam.diagram import Diagram
    assert "search_failed" not in {f.name for f in fields(Diagram)}


def test_constructed_legs_are_as_short_as_the_search():
    # the bounded search is the oracle: on every copy, the constructed leg
    # has the length of its shortest detour/eta path
    from atomlam.analysis import search_beta_eta
    suite = corpus.ipc_redex_corpus(
        261, 510, rules=sorted(OR_BOT_RULES, key=lambda x: x.value))
    checked = 0
    for env, t, r in suite[::3]:
        if r.rule not in SIMPLE:
            continue
        d = build_diagram(env, t, r)
        for cp in at_copy_positions(t, r.position):
            mine = [s for s in d.legs["q1->q2"].steps
                    if s.position[:len(cp)] == cp]
            path = search_beta_eta(subterm_at(d.m_at, cp),
                                   subterm_at(d.n_at, cp))
            assert path is not None and len(path) == len(mine), (r.rule, cp)
            checked += 1
    assert checked >= 100
