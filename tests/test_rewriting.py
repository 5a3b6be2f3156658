import random

import pytest

from atomlam import (Env, FVar, RuleId, SystemId, Var, apply_rule,
                     encode_bot, encode_or, find_redexes, free_vars,
                     match_rule, normalize, parse_formula, parse_term, replay,
                     step, typecheck)
from atomlam.errors import (AtomicInstantiation, NotFine, ShapeMismatch,
                            StepLimitExceeded, TypeMismatch, TypingError)
from atomlam.rules import rules_of_system

import corpus

pf, pt = parse_formula, parse_term
IPC, F, FAT = SystemId.IPC, SystemId.F, SystemId.FAT


def apply_eq(rule, src, expect):
    assert apply_rule(rule, pt(src)) == pt(expect)


# ------------------------------------------------------- rule applications

def test_beta_rules():
    apply_eq(RuleId.beta_imp, "(fun x:X => x) y", "y")
    apply_eq(RuleId.beta_and, "<a, b>.2", "b")
    apply_eq(RuleId.beta_or,
             "case in1[X|Y] m of { x:X => <x, x> ; y:Y => <m, m> } : X & X",
             "<m, m>")
    apply_eq(RuleId.beta_all, "(tfun X => fun w:X => w) [Y -> Y]",
             "fun w:Y -> Y => w")


def test_eta_rules():
    apply_eq(RuleId.eta_imp, "fun x:X => f x", "f")
    apply_eq(RuleId.eta_and, "<m.1, m.2>", "m")
    apply_eq(RuleId.eta_or,
             "case m of { x:X => in1[X|Y] x ; y:Y => in2[X|Y] y } : X | Y",
             "m")
    apply_eq(RuleId.eta_all, "tfun X => m [X]", "m")


def test_eta_side_conditions():
    assert match_rule(RuleId.eta_imp, pt("fun x:X => x x")) is None
    assert match_rule(RuleId.eta_and, pt("<m.1, n.2>")) is None
    assert match_rule(RuleId.eta_all, pt("tfun X => (m [X]) [X]")) is None


def test_pi_rules():
    apply_eq(RuleId.pi_imp,
             "(case m of { x:X => p ; y:Y => q } : A -> B) n",
             "case m of { x:X => p n ; y:Y => q n } : B")
    apply_eq(RuleId.pi_and,
             "(case m of { x:X => p ; y:Y => q } : A & B).1",
             "case m of { x:X => p.1 ; y:Y => q.1 } : A")
    apply_eq(RuleId.pi_or,
             "case (case m of { x:X => p ; y:Y => q } : C | D) of"
             " { l:C => r ; k:D => s } : E",
             "case m of { x:X => case p of { l:C => r ; k:D => s } : E"
             " ; y:Y => case q of { l:C => r ; k:D => s } : E } : E")
    apply_eq(RuleId.pi_bot,
             "abort[C] (case m of { x:X => p ; y:Y => q } : bot)",
             "case m of { x:X => abort[C] p ; y:Y => abort[C] q } : C")


def test_varpi_rules():
    apply_eq(RuleId.varpi_imp, "(abort[C -> D] m) n", "abort[D] m")
    apply_eq(RuleId.varpi_and, "(abort[C & D] m).2", "abort[D] m")
    apply_eq(RuleId.varpi_or,
             "case abort[C | D] m of { x:C => p ; y:D => q } : E",
             "abort[E] m")
    apply_eq(RuleId.varpi_bot, "abort[C] (abort[bot] m)", "abort[C] m")


def test_atomization_abort():
    apply_eq(RuleId.rho_abort, "z [X -> Y]", "fun w:X => z [Y]")
    apply_eq(RuleId.rho_abort, "z [X1 & X2]", "<z [X1], z [X2]>")
    apply_eq(RuleId.rho_abort, "z [forall Y. Y -> Y]",
             "tfun Y => z [Y -> Y]")


def test_atomization_case():
    apply_eq(RuleId.rho_case,
             "m [C1 -> C2] <fun x:A => p, fun y:B => q>",
             "fun w:C1 => m [C2] <fun x:A => p w, fun y:B => q w>")
    apply_eq(RuleId.rho_case,
             "m [C1 & C2] <fun x:A => p, fun y:B => q>",
             "<m [C1] <fun x:A => p.1, fun y:B => q.1>,"
             " m [C2] <fun x:A => p.2, fun y:B => q.2>>")
    apply_eq(RuleId.rho_case,
             "m [forall Y. Y & D] <fun x:A => p, fun y:B => q>",
             "tfun Y => m [Y & D] <fun x:A => p [Y], fun y:B => q [Y]>")


def test_atomization_refuses_atomic():
    with pytest.raises(AtomicInstantiation):
        apply_rule(RuleId.rho_abort, pt("z [X]"))
    with pytest.raises(AtomicInstantiation):
        apply_rule(RuleId.rho_case, pt("m [X] <fun x:A => p, fun y:B => q>"))
    with pytest.raises(ShapeMismatch):
        apply_rule(RuleId.rho_abort, pt("z y"))


def test_rules_by_name():
    # a rule's name works wherever its RuleId does; an unknown name does not
    t = pt("z [X -> Y]")
    assert match_rule("rho_abort", t) == match_rule(RuleId.rho_abort, t)
    assert match_rule("beta_imp", t) is None
    assert apply_rule("rho_abort", t) == apply_rule(RuleId.rho_abort, t)
    for call in (match_rule, apply_rule):
        with pytest.raises(ValueError):
            call("no_such_rule", t)
    # a Redex that names its rule gets each caller's own error where the
    # redex does not match
    from atomlam import Redex, decompose_delta, simulate_step
    from atomlam.errors import NotARedex, StaleRedex
    with pytest.raises(StaleRedex, match=r"^no beta_imp redex at \[\]$"):
        step(F, Env(), pt("s"), Redex((), "beta_imp", Env(), True))
    with pytest.raises(NotARedex, match=r"got rho_case$"):
        decompose_delta(Env(), pt("s"), Redex((), "rho_case", Env(), True))
    with pytest.raises(NotARedex, match=r"^no beta_imp redex at \[\]$"):
        simulate_step(Env([("x", FVar("X"))]), pt("x"),
                      Redex((), "beta_imp", Env(), True))


def test_delta_rules():
    apply_eq(RuleId.delta,
             "m [C1 -> C2] <fun x:A => fun z:C1 => p, fun y:B => fun z:C1 => q>",
             "fun z:C1 => m [C2] <fun x:A => p, fun y:B => q>")
    apply_eq(RuleId.delta,
             "m [C1 & C2] <fun x:A => <p1, p2>, fun y:B => <q1, q2>>",
             "<m [C1] <fun x:A => p1, fun y:B => q1>,"
             " m [C2] <fun x:A => p2, fun y:B => q2>>")
    apply_eq(RuleId.delta,
             "m [forall Y. Y -> Y] <fun x:A => tfun Y => p, fun y:B => tfun Y => q>",
             "tfun Y => m [Y -> Y] <fun x:A => p, fun y:B => q>")


def test_delta_requires_literal_introductions():
    # conjunction case matches only branches that are pair literals
    assert match_rule(RuleId.delta,
                      pt("m [C1 & C2] <fun x:A => p, fun y:B => <q1, q2>>")) is None
    # implication case requires the binder annotation to match C1
    assert match_rule(RuleId.delta,
                      pt("m [C1 -> C2] <fun x:A => fun z:C2 => p,"
                         " fun y:B => fun z:C1 => q>")) is None


def test_eps_case_rules():
    apply_eq(RuleId.eps_case,
             "(m [C1 -> C2] <fun x:A => p, fun y:B => q>) n",
             "m [C2] <fun x:A => p n, fun y:B => q n>")
    apply_eq(RuleId.eps_case,
             "(m [C1 & C2] <fun x:A => p, fun y:B => q>).1",
             "m [C1] <fun x:A => p.1, fun y:B => q.1>")
    apply_eq(RuleId.eps_case,
             "(m [forall Y. Y -> C] <fun x:A => p, fun y:B => q>) [D]",
             "m [D -> C] <fun x:A => p [D], fun y:B => q [D]>")


def test_eps_abort_rules():
    apply_eq(RuleId.eps_abort, "(m [C1 -> C2]) n", "m [C2]")
    apply_eq(RuleId.eps_abort, "(m [C1 & C2]).2", "m [C2]")
    # instantiation of an instantiated universal: m [forall Y. C'] [C'']
    apply_eq(RuleId.eps_abort, "(m [forall Y. Y -> Y]) [Z -> Z]",
             "m [(Z -> Z) -> Z -> Z]")
    apply_eq(RuleId.eps_abort, "(m [forall Y. Y]) [Z]", "m [Z]")
    apply_eq(RuleId.eps_abort, "(m [forall Y. Y -> Y]) [Z]", "m [Z -> Z]")


_COMMUTING = frozenset(r for r in RuleId
                       if r.value.startswith(("pi_", "varpi_", "eps_")))

# (rule, redex, contractum as printed, fresh names included): one redex
# per commuting shape, then three where a branch binder must be renamed
# away from a name free in the context pushed under it.
COMMUTING_SHAPES = [
    ("pi_imp", "(case m of { x:X => p ; y:Y => q } : A -> B) n",
     "case m of { x:X => p n ; y:Y => q n } : B"),
    ("pi_and", "(case m of { x:X => p ; y:Y => q } : A & B).2",
     "case m of { x:X => p.2 ; y:Y => q.2 } : B"),
    ("pi_or", "case (case m of { x:X => p ; y:Y => q } : C | D) of"
     " { l:C => r ; k:D => s } : E",
     "case m of { x:X => case p of { l:C => r ; k:D => s } : E"
     " ; y:Y => case q of { l:C => r ; k:D => s } : E } : E"),
    ("pi_bot", "abort[E] (case m of { x:X => p ; y:Y => q } : bot)",
     "case m of { x:X => abort[E] p ; y:Y => abort[E] q } : E"),
    ("varpi_imp", "(abort[A -> B] u) n", "abort[B] u"),
    ("varpi_and", "(abort[A & B] u).1", "abort[A] u"),
    ("varpi_or", "case (abort[C | D] u) of { l:C => r ; k:D => s } : E",
     "abort[E] u"),
    ("varpi_bot", "abort[E] (abort[bot] u)", "abort[E] u"),
    ("eps_case", "h [A -> B] <fun x:X => p, fun y:Y => q> n",
     "h [B] <fun x:X => p n, fun y:Y => q n>"),
    ("eps_case", "(h [A & B] <fun x:X => p, fun y:Y => q>).2",
     "h [B] <fun x:X => p.2, fun y:Y => q.2>"),
    ("eps_case", "h [forall Z. Z -> A] <fun x:X => p, fun y:Y => q> [B]",
     "h [B -> A] <fun x:X => p [B], fun y:Y => q [B]>"),
    ("eps_abort", "h [A -> B] n", "h [B]"),
    ("eps_abort", "(h [A & B]).1", "h [A]"),
    ("eps_abort", "h [forall Z. Z -> A] [B]", "h [B -> A]"),
    ("pi_imp", "(case m of { x:X => p x ; y:Y => q } : A -> B) x",
     "case m of { x':X => p x' x ; y:Y => q x } : B"),
    ("pi_or", "case (case m of { x:X => p x ; y:Y => q } : C | D) of"
     " { l:C => r x ; k:D => s } : E",
     "case m of { x':X => case p x' of { l:C => r x ; k:D => s } : E"
     " ; y:Y => case q of { l:C => r x ; k:D => s } : E } : E"),
    ("eps_case", "h [A -> B] <fun x:X => p x, fun y:Y => q> x",
     "h [B] <fun x':X => p x' x, fun y:Y => q x>"),
]


@pytest.mark.parametrize("rule, src, expect", COMMUTING_SHAPES)
def test_commuting_shapes_contract_exactly(rule, src, expect):
    from atomlam import print_term
    t = pt(src)
    assert print_term(apply_rule(RuleId(rule), t)) == expect
    assert {r for r in _COMMUTING if match_rule(r, t) is not None} == {rule}


def test_capture_avoidance_in_rules():
    # pi_imp pushes n under the branch binders; x free in n forces a rename
    out = apply_rule(RuleId.pi_imp,
                     pt("(case m of { x:X => p ; y:Y => q } : A -> B) x"))
    assert out == pt("case m of { v:X => p' x ; y:Y => q x } : B"
                     .replace("p'", "p"))
    lbranch = out.lbody
    assert out.lvar != "x"
    # rho_case fresh binder never captures names free in the branches
    redex = pt("m [C1 -> C2] <fun x:A => w, fun y:B => w>")
    out2 = apply_rule(RuleId.rho_case, redex)
    assert out2.var not in free_vars(redex)


def test_freshness_side_conditions_on_corpus():
    rng = random.Random(5)
    for rule in (RuleId.rho_case, RuleId.rho_abort, RuleId.delta):
        for _ in range(40):
            t = corpus.make_f_redex(rng, rule)
            out = apply_rule(rule, t)
            binder = getattr(out, "var", None)
            if binder is not None:
                assert binder not in free_vars(t)


# ----------------------------------------------------------- find_redexes

def test_find_redex_root():
    rs = find_redexes(IPC, Env([("y", FVar("X"))]), pt("(fun x:X => x) y"),
                      {RuleId.beta_imp})
    assert [(r.position, r.fine) for r in rs] == [((), True)]


def test_find_redex_under_binder_threads_env():
    env = Env([("z", encode_bot())])
    rs = find_redexes(F, env, pt("fun w:Y => z [X & X]"), {RuleId.rho_abort})
    assert len(rs) == 1
    r = rs[0]
    assert r.position == (0,) and r.fine
    assert r.local_env.lookup("w") == FVar("Y")
    assert r.local_env.lookup("z") == encode_bot()


def test_find_redex_not_fine():
    env = Env([("z", pf("forall X. X -> X"))])
    rs = find_redexes(F, env, pt("z [X & X]"), {RuleId.rho_abort})
    assert len(rs) == 1 and not rs[0].fine


def test_step_requires_fine():
    env = Env([("z", pf("forall X. X -> X"))])
    [r] = find_redexes(F, env, pt("z [X & X]"), {RuleId.rho_abort})
    with pytest.raises(NotFine):
        step(F, env, pt("z [X & X]"), r)
    out = step(F, env, pt("z [X & X]"), r, require_fine=False)
    assert out == pt("<z [X], z [X]>")


def test_fine_step_under_lambda():
    env = Env([("z", encode_bot())])
    t = pt("fun w:Y => z [X & X]")
    [r] = find_redexes(F, env, t, {RuleId.rho_abort})
    assert step(F, env, t, r) == pt("fun w:Y => <z [X], z [X]>")


def test_rules_validated_against_system():
    with pytest.raises(ValueError):
        find_redexes(IPC, Env(), pt("x"), {RuleId.rho_abort})
    with pytest.raises(ValueError):
        find_redexes(FAT, Env(), pt("x"), {RuleId.eps_case})


# -------------------------------------------------------------- normalize

def test_normalize_single_beta():
    env = Env([("y", FVar("X"))])
    tr = normalize(IPC, env, pt("(fun x:X => x) y"), {RuleId.beta_imp})
    assert len(tr) == 1 and tr.final == Var("y")
    assert replay(tr)


def test_normalize_exhaustive_atomization():
    env = Env([("z", encode_bot())])
    tr = normalize(F, env, pt("z [(X -> X) & X]"), {RuleId.rho_abort})
    assert len(tr) == 2
    assert tr.final == pt("<fun w:X => z [X], z [X]>")


def test_normalize_step_cap():
    env = Env([("z", encode_bot())])
    with pytest.raises(StepLimitExceeded) as exc:
        normalize(F, env, pt("z [(X -> X) & X]"), {RuleId.rho_abort}, max_steps=1)
    assert len(exc.value.trace) == 1


def test_strategies_reach_alpha_equal_nf():
    env = Env([("z", encode_bot())])
    t = pt("<z [(X -> X) & X], z [X -> X & X]>")
    finals = []
    for strat, seed in (("leftmost-outermost", None), ("leftmost-innermost", None),
                        ("random", 1), ("random", 2)):
        finals.append(normalize(F, env, t, {RuleId.rho_abort},
                                strategy=strat, seed=seed).final)
    assert all(f == finals[0] for f in finals)


# --------------------------------------------- subject reduction & Eq-style

def _assert_subject_reduction(sys, env, t, rules):
    before = typecheck(sys, env, t)
    for r in find_redexes(sys, env, t, rules):
        if not r.fine:
            continue
        after = step(sys, env, t, r)
        assert typecheck(sys, env, after) == before, (t, r)


def test_subject_reduction_ipc_corpus():
    rules = rules_of_system(IPC)
    for env, t, r in corpus.ipc_redex_corpus(23, 120):
        _assert_subject_reduction(IPC, env, t, rules)


def test_subject_reduction_f_corpus():
    rules = rules_of_system(F)
    for env, t in corpus.f_corpus(29, 120):
        _assert_subject_reduction(F, env, t, rules)


def test_unconstrained_context_rule_would_break_subject_reduction():
    # The annotated commuting rule determines the contractum annotation from
    # the redex; pushing a context into the branches with an unconstrained
    # annotation D (the would-be context formulation) breaks typability.
    env = Env([("s", pf("X | Y")), ("n", FVar("E")),
               ("p", pf("E -> F")), ("q", pf("E -> F"))])
    t = pt("(case s of { x:X => p ; y:Y => q } : E -> F) n")
    [r] = find_redexes(IPC, env, t, {RuleId.pi_imp})
    stepped = step(IPC, env, t, r)
    assert typecheck(IPC, env, stepped) == FVar("F")
    assert stepped.ann == FVar("F")  # the engine offers only D = F
    # the same contractum with any other annotation is ill-typed
    from atomlam import Case
    wrong = Case(stepped.scrut, stepped.lvar, stepped.lann, stepped.lbody,
                 stepped.rvar, stepped.rann, stepped.rbody, FVar("E"))
    with pytest.raises(TypingError):
        typecheck(IPC, env, wrong)


def test_traces_replay_on_corpus():
    rng = random.Random(31)
    for env, t in corpus.f_corpus(37, 40):
        tr = normalize(F, env, t, {RuleId.rho_case, RuleId.rho_abort},
                       strategy="random", seed=rng.randrange(1000))
        assert replay(tr)


# ------------------------------------------- the traversal against references

def _collapse(t):
    """t with every binder and variable renamed to its first letter, so
    that binders shadow one another and the environment."""
    from atomlam import (Abort, App, Case, Inj, Lam, Pair, Proj, TyApp,
                         TyLam)
    c = _collapse
    if isinstance(t, Var):
        return Var(t.name[0])
    if isinstance(t, Lam):
        return Lam(t.var[0], t.ann, c(t.body))
    if isinstance(t, App):
        return App(c(t.fun), c(t.arg))
    if isinstance(t, Pair):
        return Pair(c(t.fst), c(t.snd))
    if isinstance(t, Proj):
        return Proj(t.index, c(t.body))
    if isinstance(t, Inj):
        return Inj(t.index, c(t.body), t.left, t.right)
    if isinstance(t, Case):
        return Case(c(t.scrut), t.lvar[0], t.lann, c(t.lbody),
                    t.rvar[0], t.rann, c(t.rbody), t.ann)
    if isinstance(t, Abort):
        return Abort(c(t.body), t.ann)
    if isinstance(t, TyLam):
        return TyLam(t.var, c(t.body))
    return TyApp(c(t.fun), t.arg)


def _reference_env_and_subterm(env, m, pos):
    """Walk to pos renaming each shadowing binder, and each type binder
    that captures, by substitution into its body (the reference
    typechecker's binder handling)."""
    from atomlam import Case, Lam, TyLam
    from atomlam.syntax import term_children
    from reference_typecheck import enter_binder, enter_type_binder
    cur = m
    for i in pos:
        if isinstance(cur, Lam):
            env, _, cur = enter_binder(env, cur.var, cur.ann, cur.body)
        elif isinstance(cur, TyLam):
            cur = enter_type_binder(env, cur.var, cur.body)[1]
        elif isinstance(cur, Case) and i:
            var, ann, body = ((cur.lvar, cur.lann, cur.lbody) if i == 1
                              else (cur.rvar, cur.rann, cur.rbody))
            env, _, cur = enter_binder(env, var, ann, body)
        else:
            cur = term_children(cur)[i]
    return env, cur


def _reference_fine(env, sub, rule):
    from atomlam.rules import RULES
    payload = match_rule(rule, sub)
    kind = RULES[rule].fineness
    if kind == "always":
        return True
    from reference_typecheck import reference_typecheck
    try:
        head = reference_typecheck(F, env, payload["head"])
    except TypingError:
        return False
    if kind == "sum":
        return head == encode_or(payload["lann"], payload["rann"])
    return head == encode_bot()


def test_redex_search_matches_substituting_binder_walk():
    # the traversal renames shadowing binders through a map; the printed
    # local environments and the fineness flags must be those of renaming
    # by substitution, primed names included. The binder u below shadows
    # the environment's u, and its body mentions the undeclared u', which
    # the new name must avoid too. The type binders X and Y wrapped around
    # the terms capture the environment's X and Y, and are renamed too.
    from atomlam import Lam, Pair, TyLam
    rules = rules_of_system(F)
    renamed = captured = 0
    for env, t in corpus.f_corpus(41, 60) + [
            (e, t) for e, t, _ in corpus.f_redex_corpus(43, 60, rules)]:
        for term in (t, _collapse(t),
                     Lam("u", FVar("X"), Pair(_collapse(t), Var("u'"))),
                     TyLam("X", t), TyLam("Y", TyLam("X", _collapse(t)))):
            for r in find_redexes(F, env, term, rules):
                ref_env, sub = _reference_env_and_subterm(env, term, r.position)
                assert list(r.local_env.items()) == list(ref_env.items())
                assert r.fine == _reference_fine(ref_env, sub, r.rule)
                renamed += any("'" in name for name in r.local_env.names())
                captured += any("'" in v for v in ref_env.free_type_vars())
    assert renamed > 100 and captured > 100


def test_scripted_step_under_a_shadowing_binder_is_not_fine():
    # the binder z shadows the environment's z:forall X.X, so the head of
    # z [X & X] has type X -> X and the atomization step is not fine
    from atomlam import apply_script
    env = Env([("z", encode_bot())])
    t = pt("fun z:X -> X => z [X & X]")
    with pytest.raises(NotFine):
        apply_script(F, env, t, [(RuleId.rho_abort, (0,))], require_fine=True)
    [s] = apply_script(F, env, t, [(RuleId.rho_abort, (0,))]).steps
    assert not s.fine and list(s.local_env.names()) == ["z", "z'"]


def test_scripted_steps_agree_with_redex_search():
    # apply_script must give each step the local environment and fineness
    # that find_redexes gives the same redex, also where binders shadow the
    # heads u and s of the environment with other types
    from atomlam import Lam, Pair, apply_script
    rules = rules_of_system(F)
    shadowed = 0
    for env, t in corpus.f_corpus(41, 60) + [
            (e, t) for e, t, _ in corpus.f_redex_corpus(43, 60, rules)]:
        for term in (t, _collapse(t),
                     Lam("u", FVar("X"), Lam("s", FVar("Y"), t)),
                     Lam("u", FVar("X"), Pair(_collapse(t), Var("u'")))):
            for r in find_redexes(F, env, term, rules):
                [s] = apply_script(F, env, term, [(r.rule, r.position)]).steps
                assert s.fine == r.fine, (term, r)
                assert list(s.local_env.items()) == list(r.local_env.items())
                shadowed += any("'" in name for name in r.local_env.names())
    assert shadowed > 100


def test_rule_roots_cover_every_match():
    from atomlam.rules import RULES
    from atomlam.syntax import term_children

    def nodes(t):
        yield t
        for child in term_children(t):
            yield from nodes(child)

    terms = ([t for _, t, _ in corpus.ipc_redex_corpus(47, 80)]
             + [t for _, t, _ in corpus.f_redex_corpus(
                 53, 80, rules_of_system(F))])
    matched = set()
    for t in terms:
        for node in nodes(t):
            for rule in RuleId:
                if match_rule(rule, node) is not None:
                    assert type(node) in RULES[rule].roots, (rule, node)
                    matched.add(rule)
    assert matched == set(RuleId)


def test_renamed_binder_follows_the_free_names_of_its_body():
    # the shadowing binder y is renamed away from the undeclared y' in its
    # body; once a step drops y', later steps see it renamed to y'
    env = Env([("y", FVar("X"))])
    t = pt("fun y:X => <(fun v:Y => y) y', (fun w:X => w) y>")
    tr = normalize(IPC, env, t, {RuleId.beta_imp})
    assert [(s.position, list(s.local_env.names())) for s in tr.steps] == \
        [((0, 0), ["y", "y''"]), ((0, 1), ["y", "y'"])]
    assert replay(tr)
