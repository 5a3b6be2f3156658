import random

import pytest

from atomlam import (Env, FVar, RuleId, SystemId, Var, apply_rule,
                     at_term, atomic_nf, check_local_confluence,
                     decompose_delta, decompose_eps, encode_bot, encode_or,
                     expand_rho, find_redexes, formula_size, parse_formula,
                     parse_term, replace_at, replay, rp_env, rp_term,
                     simulate_step, step, subterm_at, typecheck, weight)
import atomlam.analysis
from atomlam.analysis import residuals
from atomlam.errors import InternalInvariantViolation, NotTypable
from atomlam.rules import rules_of_system

import corpus

pf, pt = parse_formula, parse_term
IPC, F = SystemId.IPC, SystemId.F
RHO = {RuleId.rho_case, RuleId.rho_abort}


# ------------------------------------------------------------ formula size

def test_formula_size():
    assert formula_size(FVar("X")) == 0
    assert formula_size(pf("X -> Y")) == 1
    assert formula_size(pf("forall X. X & X")) == 2
    # the antecedent is ignored
    assert formula_size(pf("(X & X) -> Y")) == formula_size(pf("X -> Y"))
    n = formula_size(pf("X & Y"))
    assert formula_size(pf("Z -> X & Y")) == 2 * n * n + 3 * n + 1


# ------------------------------------------------------------------ weight

def test_weight_base_cases():
    env = Env([("x", FVar("X"))])
    assert weight(env, Var("x")).total == 0
    bot_env = Env([("z", encode_bot())])
    report = weight(bot_env, pt("z [X & X]"))
    assert report.total == 1
    assert [c for _, _, c in report.per_pre_redex] == [1]
    assert weight(bot_env, pt("<z [X], z [X]>")).total == 0


def test_weight_requires_typability():
    with pytest.raises(NotTypable):
        weight(Env(), Var("nope"))


def test_weight_case_spine_counts_argument():
    env = Env([("s", encode_or(FVar("X"), FVar("Y"))), ("z", encode_bot()),
               ("a", FVar("X"))])
    # s [X -> X] <branches> where a branch contains another pre-redex
    t = pt("s [X -> X] <fun x:X => fun w:X => z [X -> X] a,"
           " fun y:Y => fun w:X => w>")
    report = weight(env, t)
    inner = weight(env, pt("fun w:X => z [X -> X] a")).total
    assert inner == (1 + 1) * 0 + 1 + 0  # one inner pre-redex of size |X->X|=1
    assert report.total == (1 + 1) * (0 + inner + 0) + 1


def test_weight_decreases_on_each_fine_step():
    for env, t in corpus.f_corpus(61, 80):
        w = weight(env, t).total
        for r in find_redexes(F, env, t, RHO):
            if r.fine:
                after = step(F, env, t, r)
                assert weight(env, after).total < w


# --------------------------------------------------------------- atomic NF

def test_atomic_nf_example():
    env = Env([("z", encode_bot())])
    nf, trace = atomic_nf(env, pt("z [X -> Y]"))
    assert nf == pt("fun w:X => z [Y]")
    assert len(trace) == 1


def test_atomic_nf_no_redex():
    env = Env([("x", FVar("X"))])
    nf, trace = atomic_nf(env, Var("x"))
    assert nf == Var("x") and len(trace) == 0


def test_atomic_nf_is_strategy_invariant():
    for env, t in corpus.f_corpus(67, 60):
        results = []
        for strat, seed in (("leftmost-outermost", None),
                            ("leftmost-innermost", None),
                            ("random", 3), ("random", 7), ("random", 11)):
            nf, trace = atomic_nf(env, t, strategy=strat, seed=seed)
            assert replay(trace)
            results.append(nf)
        assert all(x == results[0] for x in results)


def test_atomic_nf_strategies_choose_their_redexes():
    # the normal form is the same for any choice of redexes (above), so
    # check the choices themselves on terms with several fine redexes
    suite = corpus.f_corpus(131, 80) + [
        (rp_env(env), rp_term(t)) for env, t in corpus.ipc_corpus(137, 80)]
    multi = varied = 0
    for env, t in suite:
        fine = [r for r in find_redexes(F, env, t, RHO) if r.fine]
        if len(fine) < 2:
            continue
        multi += 1
        _, lo = atomic_nf(env, t, strategy="leftmost-outermost")
        assert lo.steps[0].position == min(r.position for r in fine)
        _, li = atomic_nf(env, t, strategy="leftmost-innermost")
        first = li.steps[0].position
        assert first in [r.position for r in fine]
        assert not any(len(r.position) > len(first)
                       and r.position[:len(first)] == first for r in fine)
        orders = []
        for seed in (3, 7):
            _, tr = atomic_nf(env, t, strategy="random", seed=seed)
            assert replay(tr)
            orders.append([(s.rule, s.position) for s in tr.steps])
        varied += orders[0] != orders[1]
        assert replay(lo) and replay(li)
    assert multi >= 10 and varied >= 1


def test_atomic_nf_of_rp_is_at():
    for env, t in corpus.ipc_corpus(71, 100):
        renv = rp_env(env)
        nf, _ = atomic_nf(renv, rp_term(t))
        assert nf == at_term(t)


# ----------------------------------------------------------- decompositions

def _fine_redexes(env, t, rules):
    return [r for r in find_redexes(F, env, t, rules) if r.fine]


def test_decompose_delta_lengths_and_endpoints():
    rng = random.Random(73)
    seen = set()
    for _ in range(60):
        t = corpus.make_f_redex(rng, RuleId.delta)
        env = corpus.F_BASE
        for r in _fine_redexes(env, t, {RuleId.delta}):
            tr = decompose_delta(env, t, r)
            c = subterm_at(t, r.position).fun.arg
            expected_len = 5 if type(c).__name__ == "And" else 3
            seen.add(type(c).__name__)
            assert len(tr) == expected_len
            assert replay(tr)
            direct = replace_at(t, r.position,
                                apply_rule(RuleId.delta, subterm_at(t, r.position)))
            assert tr.final == direct
            assert all(s.fine for s in tr.steps)
    assert seen == {"Imp", "And", "Forall"}


def test_decompose_eps_lengths_and_endpoints():
    rng = random.Random(79)
    for rule in (RuleId.eps_case, RuleId.eps_abort):
        for _ in range(40):
            t = corpus.make_f_redex(rng, rule)
            env = corpus.F_BASE
            for r in _fine_redexes(env, t, {rule}):
                tr = decompose_eps(env, t, r)
                assert len(tr) == 2
                assert replay(tr)
                direct = replace_at(t, r.position,
                                    apply_rule(rule, subterm_at(t, r.position)))
                assert tr.final == direct
                assert all(s.fine for s in tr.steps)


def test_expand_rho_witnesses():
    rng = random.Random(83)
    for rule in (RuleId.rho_case, RuleId.rho_abort):
        for _ in range(40):
            t = corpus.make_f_redex(rng, rule)
            env = corpus.F_BASE
            for r in _fine_redexes(env, t, {rule}):
                expansion, tr = expand_rho(env, t, r)
                # the expansion eta-reduces back to the original term
                # (two contractions for the case rule: one per branch)
                eta_rules = {RuleId.eta_imp, RuleId.eta_and, RuleId.eta_all}
                frontier = [expansion]
                reached = False
                for _ in range(3):
                    nxt = []
                    for term in frontier:
                        for x in find_redexes(F, env, term, eta_rules):
                            out = step(F, env, term, x)
                            if out == t:
                                reached = True
                            nxt.append(out)
                    if reached:
                        break
                    frontier = nxt
                assert reached, "witness is not an eta-expansion"
                # and reduces to the direct contractum
                direct = replace_at(t, r.position,
                                    apply_rule(rule, subterm_at(t, r.position)))
                assert tr.final == direct
                assert replay(tr)


def test_expand_rho_abort_and_example():
    env = Env([("m", encode_bot())])
    t = pt("m [X1 & X2]")
    [r] = _fine_redexes(env, t, {RuleId.rho_abort})
    expansion, tr = expand_rho(env, t, r)
    assert expansion == pt("<(m [X1 & X2]).1, (m [X1 & X2]).2>")
    assert len(tr) == 2  # two commuting steps
    assert tr.final == pt("<m [X1], m [X2]>")


# --------------------------------------------------------------- simulation

_EXPECTED_CLASSES = {
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


def test_simulation_root_counts():
    rng = random.Random(89)
    for rule, (classes, count) in _EXPECTED_CLASSES.items():
        t = corpus.make_ipc_redex(rng, rule)
        env = corpus.IPC_BASE
        [r] = [x for x in find_redexes(IPC, env, t, {rule}) if x.position == ()]
        tr = simulate_step(env, t, r)
        assert len(tr) == count, rule
        assert {s.rule for s in tr.steps} <= classes
        assert all(s.fine for s in tr.steps)
        assert tr.initial == rp_term(t)
        assert tr.final == rp_term(step(IPC, env, t, r))


def test_simulation_nested_redexes():
    for env, t, r in corpus.ipc_redex_corpus(97, 120):
        tr = simulate_step(env, t, r)
        classes, count = _EXPECTED_CLASSES[r.rule]
        assert len(tr) == count
        assert {s.rule for s in tr.steps} <= classes
        assert all(s.fine for s in tr.steps)
        assert tr.final == rp_term(step(IPC, env, t, r))
        assert replay(tr)


# ---------------------------------------------------------- local confluence

def test_disjoint_redexes_join():
    env = Env([("z", encode_bot()), ("w", encode_bot())])
    t = pt("<z [X -> X], w [X & X]>")
    report = check_local_confluence(env, t)
    assert len(report.pairs) == 1 and report.all_joined


def test_single_redex_vacuously_confluent():
    env = Env([("z", encode_bot())])
    report = check_local_confluence(env, pt("z [X -> X]"))
    assert report.pairs == [] and report.all_joined


def test_local_confluence_on_corpus():
    # beside the legs meeting, an oracle independent of the residuals: the
    # join stays in the class of m's unique atomic normal form
    pairs = 0
    for env, t in corpus.f_corpus(101, 50):
        report = check_local_confluence(env, t)
        assert report.all_joined
        nf = atomic_nf(env, t)[0]
        for pair in report.pairs:
            pairs += 1
            assert atomic_nf(env, pair.witness)[0] == nf
            for leg, own in zip(pair.legs, (pair.left, pair.right)):
                assert (leg.steps[0].rule.value, leg.steps[0].position) == own
                assert leg.initial is t and leg.final == pair.witness
                assert replay(leg)
    assert pairs > 0


_RES_ENV = Env([("a", FVar("X")), ("b", FVar("Y")), ("u", encode_bot()),
                ("s", encode_or(FVar("X"), FVar("Y"))), ("f", pf("X -> Y")),
                ("g", pf("forall Z. Z -> Z"))])
_SUM = "forall X'. (X -> X') & (Y -> X') -> X'"
# branch bodies of each conclusion C, under x:X and under y:Y
_BRANCHES = {"X -> Y": ("f", "fun w:X => y"), "X & Y": ("<x, b>", "<a, y>"),
             "forall Z. Z -> Z": ("g", "g")}


def _case(head, c, left=None, right=None):
    bl, br = _BRANCHES[c]
    return (f"{head} [{c}] <fun x:X => {left or bl},"
            f" fun y:Y => {right or br}>")


_IMP, _AND, _ALL = _BRANCHES
_ROOT_ABORT, _ROOT_CASE = ((), RuleId.rho_abort), ((), RuleId.rho_case)
_HEAD_ABORT = ((0,), RuleId.rho_abort)
_SPINE_ABORT = ((0, 0), RuleId.rho_abort)
_LEFT_ABORT = ((1, 0, 0), RuleId.rho_abort)
_RIGHT_ABORT = ((1, 1, 0), RuleId.rho_abort)

# (name, term, outer redex, inner redex, residuals of the inner redex once
# the outer one is contracted): both rho rules at each conclusion kind,
# with the inner fine redex in the head and, for rho_case, in each branch
RESIDUAL_CASES = [
    ("abort_head_imp", f"u [forall Y. Y] [{_IMP}]", _ROOT_ABORT, _HEAD_ABORT,
     [(0, 0)]),
    ("abort_head_and", f"u [forall Y. Y] [{_AND}]", _ROOT_ABORT, _HEAD_ABORT,
     [(0, 0), (1, 0)]),
    ("abort_head_all", f"u [forall Y. Y] [{_ALL}]", _ROOT_ABORT, _HEAD_ABORT,
     [(0, 0)]),
    ("case_head_imp", _case(f"u [{_SUM}]", _IMP), _ROOT_CASE, _SPINE_ABORT,
     [(0, 0, 0)]),
    ("case_head_and", _case(f"u [{_SUM}]", _AND), _ROOT_CASE, _SPINE_ABORT,
     [(0, 0, 0), (1, 0, 0)]),
    ("case_head_all", _case(f"u [{_SUM}]", _ALL), _ROOT_CASE, _SPINE_ABORT,
     [(0, 0, 0)]),
    ("case_left_imp", _case("s", _IMP, left=f"u [{_IMP}]"), _ROOT_CASE,
     _LEFT_ABORT, [(0, 1, 0, 0, 0)]),
    ("case_left_and", _case("s", _AND, left=f"u [{_AND}]"), _ROOT_CASE,
     _LEFT_ABORT, [(0, 1, 0, 0, 0), (1, 1, 0, 0, 0)]),
    ("case_left_all", _case("s", _ALL, left=f"u [{_ALL}]"), _ROOT_CASE,
     _LEFT_ABORT, [(0, 1, 0, 0, 0)]),
    ("case_right_imp", _case("s", _IMP, right=f"u [{_IMP}]"), _ROOT_CASE,
     _RIGHT_ABORT, [(0, 1, 1, 0, 0)]),
    ("case_right_and", _case("s", _AND, right=f"u [{_AND}]"), _ROOT_CASE,
     _RIGHT_ABORT, [(0, 1, 1, 0, 0), (1, 1, 1, 0, 0)]),
    ("case_right_all", _case("s", _ALL, right=f"u [{_ALL}]"), _ROOT_CASE,
     _RIGHT_ABORT, [(0, 1, 1, 0, 0)]),
]


@pytest.mark.parametrize("src, outer, inner, copies",
                         [c[1:] for c in RESIDUAL_CASES],
                         ids=[c[0] for c in RESIDUAL_CASES])
def test_residuals_of_each_rho_shape(src, outer, inner, copies):
    t = pt(src)
    assert residuals(t, *outer, inner[0]) == copies
    # the outer redex is not below the inner one: it is its own residual
    assert residuals(t, *inner, outer[0]) == [outer[0]]
    report = check_local_confluence(_RES_ENV, t)
    [pair] = report.pairs
    assert (pair.left, pair.right) == ((outer[1].value, outer[0]),
                                       (inner[1].value, inner[0]))
    a, b = pair.legs
    assert [(s.rule, s.position) for s in a.steps] == \
        [outer[::-1]] + [(inner[1], p) for p in copies]
    assert [(s.rule, s.position) for s in b.steps] == [inner[::-1], outer[::-1]]
    for leg in pair.legs:
        assert leg.initial is t and leg.final == pair.witness
        assert all(s.fine for s in leg.steps)
        assert replay(leg)


def test_a_missing_residual_is_an_invariant_violation(monkeypatch):
    full = residuals
    monkeypatch.setattr(atomlam.analysis, "residuals",
                        lambda *args: full(*args)[:1])
    t = pt(_case(f"u [{_SUM}]", _AND))
    with pytest.raises(InternalInvariantViolation):
        check_local_confluence(_RES_ENV, t)


# ------------------------------------------------------- assorted invariants

def test_fineness_is_exclusive():
    # a spine fine for the case rule never has a head fine for the abort rule
    for env, t, r in corpus.f_redex_corpus(107, 60, {RuleId.rho_case}):
        heads = [x for x in find_redexes(F, env, t, {RuleId.rho_abort})
                 if x.position == r.position + (0,)]
        assert all(not x.fine for x in heads)


def test_weight_total_equals_contribution_sum():
    for env, t in corpus.f_corpus(109, 60):
        report = weight(env, t)
        assert report.total == sum(c for _, _, c in report.per_pre_redex)


def test_normalize_and_atomic_nf_share_the_fixpoint():
    from atomlam import normalize
    for env, t in corpus.f_corpus(113, 40):
        tr = normalize(F, env, t, RHO)
        nf, _ = atomic_nf(env, t)
        assert tr.final == nf


def test_invalid_path():
    from atomlam.syntax import InvalidPath
    with pytest.raises(InvalidPath):
        subterm_at(Var("x"), (0,))
    with pytest.raises(InvalidPath):
        replace_at(pt("fun x:X => x"), (1,), Var("y"))


def test_stale_redex_refused():
    from atomlam.errors import StaleRedex
    env = Env([("z", encode_bot())])
    t = pt("z [X -> Y]")
    [r] = find_redexes(F, env, t, {RuleId.rho_abort})
    with pytest.raises(StaleRedex):
        step(F, env, pt("z"), r)


def test_atomic_nf_instantiations():
    # in a normal form every instantiation with an empty-typed head is
    # atomic (such an instantiation alone is already a redex); a sum-typed
    # head only forces atomization inside a full case spine
    from atomlam import TyApp
    from atomlam.errors import TypingError
    from atomlam.rewriting import env_at
    from atomlam.syntax import term_children

    def visit(sub, env_now, root):
        if isinstance(sub, TyApp) and not isinstance(sub.arg, FVar):
            try:
                head = typecheck(F, env_now, sub.fun)
            except TypingError:
                head = None
            assert head != encode_bot(), root
        for i, child in enumerate(term_children(sub)):
            visit(child, env_at(env_now, sub, (i,)), root)

    for env, t in corpus.f_corpus(127, 60):
        nf, _ = atomic_nf(env, t)
        visit(nf, env, nf)
        assert [r for r in find_redexes(F, env, nf, RHO) if r.fine] == []
