"""A stepped Scan is the scan of the term it steps to.

`Scan.after` traverses only the nodes a contraction creates: it reuses the
results of the subterms the contraction copies where their free variables
keep their types, takes each redex object's one contractum from the rule's
row and its result from the lineage's memo, and above the scan's read
depth it carries the changes of W and of the fine-redex count up the path
without matching again. Each stepped scan here is compared with a fresh scan of its term: the root's
W and fine count, every weight term and every redex with its position,
rule, fineness and local environment. The steps that leave that path and
scan their term afresh are counted (`rescans`).
"""

import random
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from atomlam import (Env, FVar, Forall, Imp, Lam, Pair, Proj, RuleId,
                     SystemId, TyApp, TyLam, Var, atomic_nf, encode_bot,
                     encode_or, is_fine_redex, normalize, parse_term,
                     print_formula, print_term, replace_at, replay, rp_env,
                     rp_term, subterm_at, typecheck)
import atomlam.rules
from atomlam.analysis import ATOMIZATION_RULES
from atomlam.errors import (AtomicInstantiation, InternalInvariantViolation,
                            ShapeMismatch)
from atomlam.rewriting import ReductionTrace, env_at, reduce_scan
from atomlam.rules import F_BETA_ETA, RULES, match_rule, rules_of_system
from atomlam.syntax import InvalidPath, term_children
from atomlam.typecheck import Scan

import corpus
from test_ladder import ENV, ladder

X, Y, Z = FVar("X"), FVar("Y"), FVar("Z")


def _env(env):
    return [(name, formula) for name, formula in env.items()]


def _view(scan):
    root = scan.root
    return (root.term, root.ty, root.w, root.nfine,
            [(pos, _env(env), term) for pos, env, term in scan.weight_terms()],
            [(pos, rule, _env(env), fine)
             for pos, rule, env, fine in scan.redexes()])


def _check_steps(env, m, rules, strategy="leftmost-outermost", seed=None,
                 every=1):
    """Reduce m by `rules` with a kept scan, comparing every `every`-th
    stepped scan with a fresh one; the number of steps."""

    def check(trace, scan):
        if len(trace.steps) % every == 0:
            assert _view(scan) == _view(Scan(env, trace.final, rules)), \
                (len(trace.steps), trace.steps[-1])

    trace = reduce_scan(Scan(env, m, rules), ReductionTrace(SystemId.F, env, m),
                        strategy, 10 ** 5, seed, check)
    return len(trace.steps)


@pytest.fixture
def rescans(monkeypatch):
    """The terms of the scans Scan.after builds afresh, not counting the
    oracle's own scans: one per step that leaves the incremental path."""
    out, stepping, init, after = [], [], Scan.__init__, Scan.after

    def counting_init(scan, env, m, *args, **kwargs):
        if stepping:
            out.append(m)
        init(scan, env, m, *args, **kwargs)

    def counting_after(scan, *args):
        stepping.append(scan)
        try:
            return after(scan, *args)
        finally:
            stepping.pop()

    monkeypatch.setattr(Scan, "__init__", counting_init)
    monkeypatch.setattr(Scan, "after", counting_after)
    return out


# ------------------------------------------------------------- the oracle

@pytest.mark.parametrize("d, k, every", [(4, 1, 1), (2, 2, 1), (6, 1, 10),
                                         (4, 2, 50)])
def test_stepped_scans_are_fresh_scans_on_the_ladder(d, k, every, rescans):
    assert _check_steps(rp_env(ENV), rp_term(ladder(d, k)), ATOMIZATION_RULES,
                        every=every) > 0
    assert rescans == []


@pytest.mark.parametrize("strategy, seed", [("leftmost-innermost", None),
                                            ("random", 3), ("random", 8)])
def test_stepped_scans_are_fresh_scans_in_any_order(strategy, seed, rescans):
    assert _check_steps(rp_env(ENV), rp_term(ladder(2, 2)), ATOMIZATION_RULES,
                        strategy, seed) > 0
    assert rescans == []


def test_stepped_scans_are_fresh_scans_for_every_f_rule():
    # beta steps drop free variables, eta rules read unboundedly deep and
    # the commuting and delta rules copy deeper than the atomization rules
    rules, steps = rules_of_system(SystemId.F), 0
    for i, (env, t) in enumerate(corpus.f_corpus(41, 30)
                                 + [(rp_env(e), rp_term(m))
                                    for e, m in corpus.ipc_corpus(43, 15)]):
        steps += _check_steps(env, t, rules, "random", i)
    assert steps > 100


def test_stepped_scans_are_fresh_scans_under_a_capturing_type_binder(
        monkeypatch):
    # tfun X captures the X of k : X, so the map renames X below it: every
    # step builds its nodes, and reuses its copies, with a type entry in
    # the map
    tc = sys.modules[Scan.__module__]
    reused, check = [], tc._reused
    monkeypatch.setattr(tc, "_reused", lambda hit, env, ren: reused.append(
        ren.get(tc._TY)) or check(hit, env, ren))
    env = Env(list(rp_env(ENV).items()) + [("k", X)])
    assert _check_steps(env, TyLam("X", rp_term(ladder(2, 1))),
                        ATOMIZATION_RULES) == 18
    assert reused and all(subs == (("X", "X'"),) for subs in reused)


def test_a_step_that_frees_the_name_a_renamed_type_binder_avoided():
    # tfun X captures the X of z : X and is renamed X'', away from the X'
    # free in its body; once beta drops X', it is renamed X', in the
    # stepped scan as in a fresh one, whether the scan types or not
    env = Env([("z", X)])
    t = parse_term("tfun X => (fun d:X' -> X' => fun w:X => (fun v:X => v) w)"
                   " (fun q:X' => q)")
    for rules in rules_of_system(SystemId.F), F_BETA_ETA:
        scan = Scan(env, t, rules)
        stepped = scan.after((0,), RuleId.beta_imp)
        if scan.typed:
            assert print_formula(scan.root.ty) == "forall X''. X'' -> X''"
            assert print_formula(stepped.root.ty) == "forall X'. X' -> X'"
        assert _view(stepped) == _view(Scan(env, stepped.root.term, rules))
        [local] = [local for _, rule, local, _ in stepped.redexes()
                   if rule is RuleId.beta_imp]
        assert print_formula(local.lookup("w")) == "X'"


def test_stepped_scans_are_fresh_scans_without_typing():
    rules, steps = rules_of_system(SystemId.IPC), 0
    for i, (env, t) in enumerate(corpus.ipc_corpus(47, 30)):
        steps += _check_steps(env, t, rules, "random", i)
    assert steps > 30


@pytest.mark.parametrize("text, steps", [
    # the redex itself is untypable: its ancestors are typed again
    ("s [X & X] <fun x:X => z [X & X], fun y:Y => w>", 3),
    # steps below an untypable ancestor
    ("(fun q:X => q) (s [X & X] <fun x:X => <x, x>, fun y:Y => z [X & X]>)",
     3),
    ("<w w, s [(X -> X) & X] <fun x:X => <fun a:X => x, x>,"
     " fun y:Y => z [(X -> X) & X]>>", 6)])
def test_stepped_scans_are_fresh_scans_on_untypable_terms(text, steps,
                                                         rescans):
    # each step below an untypable node scans its term afresh
    env = Env([("s", encode_or(X, Y)), ("z", encode_bot()), ("w", Y)])
    assert _check_steps(env, parse_term(text), ATOMIZATION_RULES) == steps
    assert len(rescans) == steps


# ------------------------------------------------- reusing copied results

SUM, BOT = encode_or(X, Y), encode_bot()
ID = Forall("Z", Imp(Z, Z))


def _step(env, t, rule, pos=()):
    scan = Scan(env, t, ATOMIZATION_RULES)
    stepped = scan.after(pos, rule)
    assert _view(stepped) == _view(Scan(env, stepped.root.term,
                                        ATOMIZATION_RULES))
    return scan, stepped


def _result(scan, pos):
    info = scan.root
    for i in pos:
        info = info.kids[i]
    return info


def test_a_copy_whose_free_variable_is_bound_at_another_type_is_rebuilt(
        monkeypatch):
    # u [X -> X] contracted to fun u:X => u: the copied head u is bound by
    # the new binder, at X instead of forall X. X
    row = RULES[RuleId.rho_abort]
    monkeypatch.setitem(RULES, RuleId.rho_abort,
                        row._replace(contract=lambda t: Lam("u", X, t.fun)))
    scan, stepped = _step(Env([("u", BOT)]), TyApp(Var("u"), Imp(X, X)),
                          RuleId.rho_abort)
    assert _result(stepped, (0,)) is not _result(scan, (0,))
    assert _result(stepped, (0,)).ty == X


def test_a_copy_keeps_its_result_under_a_binder_that_shadows_its_own():
    # rho_case at X -> (Y -> Y) names its binder w, which the branches bind
    # inside: their rho_abort redexes see w and the renamed w'
    env = Env([("s", SUM), ("u", BOT)])
    t = parse_term("s [X -> Y -> Y] <fun x:X => fun w:X => u [Y -> Y],"
                   " fun y:Y => fun w:X => u [Y -> Y]>")
    scan, stepped = _step(env, t, RuleId.rho_case)
    assert print_term(stepped.root.term).startswith("fun w:X =>")
    assert _result(stepped, (0, 1, 0, 0, 0)) is _result(scan, (1, 0, 0))
    [(pos, rule, local, fine)] = [r for r in stepped.redexes()
                                  if r[0] == (0, 1, 0, 0, 0, 0)]
    assert (rule, fine) == (RuleId.rho_abort, True)
    assert list(local.names()) == ["s", "u", "w", "x", "w'"]


def test_a_copy_keeps_its_result_under_a_capturing_type_binder():
    # the type binder Z of the expansion at forall Z. Z -> Z captures the Z
    # free in the environment (k : Z); the branches are copied below it
    env = Env([("s", SUM), ("u", BOT), ("g", ID), ("k", Z)])
    t = parse_term("s [forall Z. Z -> Z] <fun x:X => u [forall Z. Z -> Z],"
                   " fun y:Y => g>")
    scan, stepped = _step(env, t, RuleId.rho_case)
    assert print_term(stepped.root.term).startswith("tfun Z =>")
    assert _result(stepped, (0, 1, 0, 0, 0)) is _result(scan, (1, 0, 0))
    assert _check_steps(env, t, ATOMIZATION_RULES) == 4


def test_a_copy_whose_type_binder_now_captures_is_rebuilt():
    # rho_case at W -> W binds w : W around the copied branch, so the type
    # binder W inside it now captures the environment's W and renames it
    env, rules = Env([("s", SUM), ("u", BOT)]), rules_of_system(SystemId.F)
    t = parse_term("s [W -> W] <fun x:X => (tfun W => fun p:W =>"
                   " (fun v:W => v) p) [W], fun y:Y => fun q:W => q>")
    scan = Scan(env, t, rules)
    stepped = scan.after((), RuleId.rho_case)
    assert _view(stepped) == _view(Scan(env, stepped.root.term, rules))
    assert _result(stepped, (0, 1, 0, 0, 0)) is not _result(scan, (1, 0, 0))
    [local] = [local for pos, _, local, _ in stepped.redexes()
               if pos == (0, 1, 0, 0, 0, 0, 0, 0)]
    assert print_formula(local.lookup("p")) == "W'"


def test_a_stepped_copy_whose_type_binder_now_captures_is_rebuilt():
    # as above, with the copied branch body rebuilt by a step first: the
    # flag that it holds a type binder is kept up the step's path too
    env, rules = Env([("s", SUM), ("u", BOT)]), rules_of_system(SystemId.F)
    t = parse_term("s [W -> W] <fun x:X => <(fun v:X => v) x, (tfun W =>"
                   " fun p:W => (fun q:W => q) p) [W]>.2, fun y:Y => fun q:W"
                   " => q>")
    scan = Scan(env, t, rules).after((1, 0, 0, 0, 0), RuleId.beta_imp)
    stepped = scan.after((), RuleId.rho_case)
    assert _view(stepped) == _view(Scan(env, stepped.root.term, rules))
    assert _result(stepped, (0, 1, 0, 0, 0)) is not _result(scan, (1, 0, 0))


def test_a_contraction_that_changes_the_type_is_caught(monkeypatch):
    # the head alone, a copy whose result would be reused, has another type
    row = RULES[RuleId.rho_abort]
    monkeypatch.setitem(RULES, RuleId.rho_abort,
                        row._replace(contract=lambda t: t.fun))
    with pytest.raises(InternalInvariantViolation, match="subject reduction"):
        atomic_nf(rp_env(ENV), rp_term(ladder(2, 1)))


def test_a_step_that_keeps_the_weight_is_caught(monkeypatch):
    # a contraction that gives the redex back keeps its type and its W,
    # which atomic_nf reads off the focus after each step
    row = RULES[RuleId.rho_abort]
    monkeypatch.setitem(RULES, RuleId.rho_abort,
                        row._replace(contract=lambda t: t))
    with pytest.raises(InternalInvariantViolation,
                       match="weight did not decrease"):
        atomic_nf(rp_env(ENV), rp_term(ladder(2, 1)))


def test_a_memo_entry_made_below_a_renamed_type_binder_is_refused(
        monkeypatch):
    # one redex object R at (0, 0) and at (1,): tfun X captures the X of
    # k : X and is renamed X', so the memo's result for R reads X as X'.
    # At (1,) it is refused and the shared contractum is built afresh
    tc = sys.modules[Scan.__module__]
    refused, check = [], tc._reused

    def reused(hit, env, ren):
        info = check(hit, env, ren)
        if info is None:
            refused.append(hit[0].term)
        return info

    monkeypatch.setattr(tc, "_reused", reused)
    r = TyApp(Var("u"), Imp(X, X))
    env = Env([("u", Forall("Y", FVar("Y"))), ("k", X)])
    t = Pair(TyLam("X", r), r)
    nf, trace = atomic_nf(env, t)
    assert [s.position for s in trace.steps] == [(0, 0), (1,)]
    assert nf.fst.body is nf.snd
    assert len(refused) == 1 and refused[0] is nf.snd
    assert print_formula(typecheck(SystemId.F, env, nf)) == \
        "(forall X'. X' -> X') & (X -> X)"
    assert _check_steps(env, t, ATOMIZATION_RULES) == 2


def test_a_position_off_the_term_is_an_invalid_path():
    scan = Scan(Env(), parse_term("fun x:X => x"), ATOMIZATION_RULES)
    with pytest.raises(InvalidPath, match="no child 3 at Lam"):
        scan.at((3,))
    with pytest.raises(InvalidPath, match="no child -1 at Lam"):
        scan.at((-1,))
    with pytest.raises(InvalidPath, match="no child 2 at Var"):
        scan.after((0, 2), RuleId.rho_abort)


def test_a_recorded_match_is_contracted_without_matching_again(monkeypatch):
    scan = Scan(Env([("u", BOT)]), TyApp(Var("u"), Imp(X, Y)),
                ATOMIZATION_RULES)

    def apply_rule(*args):
        raise AssertionError("matched again")

    monkeypatch.setattr(atomlam.rules, "apply_rule", apply_rule)
    assert print_term(scan.after((), RuleId.rho_abort).root.term) == \
        "fun w:X => u [Y]"


def test_a_match_not_recorded_is_contracted_as_apply_rule_does():
    env = Env([("u", BOT)])
    scan = Scan(env, TyApp(Var("u"), X), ATOMIZATION_RULES)
    with pytest.raises(AtomicInstantiation):
        scan.after((), RuleId.rho_abort)
    with pytest.raises(ShapeMismatch):
        scan.after((), RuleId.rho_case)
    # a rule outside the scan's set
    scan = Scan(env, TyApp(Var("u"), Imp(X, Y)), {RuleId.rho_case})
    assert print_term(scan.after((), RuleId.rho_abort).root.term) == \
        "fun w:X => u [Y]"


# ------------------------------------------------------ work per step

def _counted(monkeypatch, *names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        method = getattr(Scan, name)

        def counting(*args, _method=method, _name=name):
            counts[_name] += 1
            return _method(*args)

        monkeypatch.setattr(Scan, name, counting)
    return counts


def _distinct(t):
    """The number of distinct term objects in t."""
    seen, todo = set(), [t]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(term_children(node))
    return len(seen)


@pytest.mark.parametrize(
    "d, k, builds, matched, steps, contracted, distinct",
    [(4, 1, 156, 333, 90, 16, 290), (2, 2, 143, 268, 64, 16, 177)],
    ids=["4-1", "2-2"])
def test_atomic_nf_builds_only_the_nodes_its_steps_create(
        monkeypatch, rescans, d, k, builds, matched, steps, contracted,
        distinct):
    # before reuse and the read depth: 1,350 / 3,243 and 839 / 1,863;
    # before the contraction memo: 561 / 738 and 343 / 468, every step
    # contracted, and 425 and 241 distinct objects in the normal form
    counts = _counted(monkeypatch, "_build", "_finish")
    made = []
    for rule in ATOMIZATION_RULES:
        once = RULES[rule].contract
        monkeypatch.setattr(once, "raw", lambda t, _raw=once.raw:
                            made.append(t) or _raw(t))
    nf, trace = atomic_nf(rp_env(ENV), rp_term(ladder(d, k)))
    assert (counts["_build"], counts["_finish"]) == (builds, matched)
    # each redex object is contracted once, by the rule's row
    assert (len(trace.steps), len(made)) == (steps, contracted)
    assert _distinct(nf) == distinct
    assert rescans == []


@pytest.mark.parametrize("d, k, calls, steps", [(4, 1, 398, 90),
                                                (6, 1, 1694, 378)],
                         ids=["4-1", "6-1"])
def test_atomic_nf_rebuilds_only_the_ancestors_the_focus_moves_up_past(
        monkeypatch, d, k, calls, steps):
    # a step rebuilds the ancestors within the read depth, and a move of
    # the focus those it moves up past; with the whole path rebuilt at
    # each step it was 1,893 and 12,789 (21.0 and 33.8 per step)
    tc = sys.modules[Scan.__module__]
    count, with_child = [0], tc._with_child
    monkeypatch.setattr(tc, "_with_child", lambda *args: count.append(1)
                        or with_child(*args))
    nf, trace = atomic_nf(rp_env(ENV), rp_term(ladder(d, k)))
    assert (len(count) - 1, len(trace.steps)) == (calls, steps)
    assert len(count) - 1 <= 8 * steps


@pytest.mark.parametrize("strategy, seed", [("leftmost-outermost", None),
                                            ("leftmost-innermost", None),
                                            ("random", 5)])
def test_step_results_are_built_when_read_as_stepping_builds_them(
        monkeypatch, strategy, seed):
    # read in a shuffled order, each result prints as the term a step
    # by step contraction gives, and no contraction runs to build it
    made = []
    for rule in RuleId:
        row = RULES[rule]
        monkeypatch.setitem(RULES, rule, row._replace(
            contract=lambda t, _contract=row.contract: made.append(t)
            or _contract(t)))
    order = random.Random(11)
    cases = [(rp_env(ENV), rp_term(ladder(2, 2)), ATOMIZATION_RULES)] + [
        (env, t, rules_of_system(SystemId.F))
        for env, t in corpus.f_corpus(67, 60)]
    steps = 0
    for env, t, rules in cases:
        trace = normalize(SystemId.F, env, t, rules, strategy, seed=seed)
        del made[:]
        reads = list(range(len(trace.steps)))
        order.shuffle(reads)
        printed = {i: print_term(trace.steps[i].result) for i in reads}
        assert made == []
        current = t
        for i, s in enumerate(trace.steps):
            current = replace_at(current, s.position, RULES[s.rule].contract(
                subterm_at(current, s.position)))
            assert printed[i] == print_term(current), (t, i)
        assert print_term(trace.final) == print_term(current)
        assert replay(trace)
        steps += len(trace.steps)
    assert steps > 100


# ---------------------------------------------------------- read depth

def _pools():
    """Per rule, its redexes in the redex corpora; per class, every node
    of that class in the corpora (as (env, term, position) triples)."""
    redexes, nodes = {rule: [] for rule in RuleId}, {}
    found = (corpus.f_redex_corpus(53, 44, rules_of_system(SystemId.F))
             + corpus.ipc_redex_corpus(59, 32))
    for env, t, r in found:
        redexes[r.rule].append((env, t, r.position))
    for env, t in [(env, t) for env, t, _ in found] + corpus.f_corpus(61, 10):
        for p in corpus.positions(t):
            nodes.setdefault(type(subterm_at(t, p)), []).append((env, t, p))
    return redexes, nodes


_REDEXES, _NODES = _pools()
_BOUNDED = [rule for rule in RuleId if RULES[rule].depth is not None]
# replacements that keep the type and change the class at the position
_WRAPS = (lambda m: Proj(1, Pair(m, m)), lambda m: Proj(2, Pair(m, m)))


def _pick(data, options):
    # by index: hypothesis would hash a drawn term, by its alpha-key
    return options[data.draw(st.integers(0, len(options) - 1))]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_each_rule_reads_no_deeper_than_its_read_depth(data):
    rule = _pick(data, _BOUNDED)
    env, t, p = _pick(data, _REDEXES[rule] if data.draw(st.booleans()) else
                      [n for cls in RULES[rule].roots for n in _NODES[cls]])
    node, depth = subterm_at(t, p), RULES[rule].depth
    # mostly just below the read depth, where a dishonest one shows
    below = [q for q in corpus.positions(node)
             if len(q) == depth + 1 or len(q) > depth
             and data.draw(st.booleans())]
    assume(below)
    q = _pick(data, below)
    changed = replace_at(node, q, _pick(data, _WRAPS)(subterm_at(node, q)))
    match = match_rule(rule, node)
    assert (match is None) == (match_rule(rule, changed) is None)
    if match is not None:
        local = env_at(env, t, p)
        assert is_fine_redex(local, changed, rule) == \
            is_fine_redex(local, node, rule)


def test_read_depths_cover_the_copies_of_each_atomization_step():
    # what rho_case and rho_abort copy sits one below their read depth
    assert {rule: RULES[rule].depth for rule in ATOMIZATION_RULES} == \
        {RuleId.rho_case: 2, RuleId.rho_abort: 1}
    assert Scan(Env(), Var("x"), ATOMIZATION_RULES).depth == 2
    assert Scan(Env(), Var("x"), rules_of_system(SystemId.F)).depth is None
