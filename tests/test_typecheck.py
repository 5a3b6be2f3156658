import random

import pytest

from atomlam import (AppHole, AbortHole, CaseHole, Env, FVar, ProjHole,
                     RuleId, SystemId, TyAppHole, Var, encode_bot,
                     encode_or, is_fine_redex, parse_formula, parse_term,
                     typecheck, typecheck_elim_context)
from atomlam.typecheck import formula_in_system
from atomlam.errors import (DuplicateDeclaration, ForallProvisoViolated,
                            HoleTypeMismatch, NonAtomicInstantiation,
                            NotARedex, NotInSystem, TypeMismatch,
                            TypingError, UnboundVariable)

import corpus

pf, pt = parse_formula, parse_term
IPC, F, FAT = SystemId.IPC, SystemId.F, SystemId.FAT


def test_assumption():
    assert typecheck(IPC, Env([("x", FVar("X"))]), Var("x")) == FVar("X")


def test_polymorphic_identity():
    assert typecheck(F, Env(), pt("tfun X => fun w:X => w")) == pf("forall X. X -> X")


def test_universal_instantiation():
    env = Env([("z", pf("forall X. X"))])
    assert typecheck(F, env, pt("z [Y -> Y]")) == pf("Y -> Y")


def test_fat_rejects_non_atomic():
    env = Env([("z", pf("forall X. X"))])
    with pytest.raises(NonAtomicInstantiation):
        typecheck(FAT, env, pt("z [Y -> Y]"))
    assert typecheck(FAT, env, pt("z [Y]")) == FVar("Y")


def test_ipc_connectives():
    env = Env([("x", FVar("X")), ("u", pf("bot"))])
    assert typecheck(IPC, env, pt("in1[X|Y] x")) == pf("X | Y")
    assert typecheck(IPC, env, pt("abort[X & Y] u")) == pf("X & Y")
    t = pt("case in1[X|Y] x of { l:X => <l, l> ; r:Y => abort[X & X] u } : X & X")
    assert typecheck(IPC, env, t) == pf("X & X")


def test_not_in_system():
    with pytest.raises(NotInSystem):
        typecheck(IPC, Env(), pt("tfun X => fun w:X => w"))
    with pytest.raises(NotInSystem):
        typecheck(F, Env([("u", pf("bot"))]), pt("abort[X] u"))
    with pytest.raises(NotInSystem):  # IPC formula in an F annotation
        typecheck(F, Env(), pt("fun x:X | Y => x"))


def test_unbound_and_mismatch_position():
    with pytest.raises(UnboundVariable):
        typecheck(IPC, Env(), Var("nope"))
    env = Env([("f", pf("X -> Y")), ("b", FVar("Y"))])
    with pytest.raises(TypeMismatch) as exc:
        typecheck(IPC, env, pt("f (f b)"))
    assert exc.value.position == (1, 1)  # the inner argument b
    assert exc.value.expected == FVar("X")
    assert exc.value.found == FVar("Y")


def test_duplicate_declaration_rejected():
    with pytest.raises(DuplicateDeclaration):
        Env([("x", FVar("X")), ("x", FVar("Y"))])
    with pytest.raises(DuplicateDeclaration):
        Env([("x", FVar("X"))]).extend("x", FVar("X"))


def test_shadowing_binder_is_renamed_not_rejected():
    env = Env([("x", FVar("X"))])
    assert typecheck(IPC, env, pt("fun x:Y => x")) == pf("Y -> Y")


def test_forall_proviso():
    env = Env([("z", FVar("X"))])
    # default: the colliding binder is silently alpha-renamed
    assert typecheck(F, env, pt("tfun X => fun w:X => w")) == pf("forall X. X -> X")
    # the literal on-demand check is available as strict mode
    with pytest.raises(ForallProvisoViolated):
        typecheck(F, env, pt("tfun X => fun w:X => w"), strict_proviso=True)
    assert typecheck(F, env, pt("tfun Y => fun w:Y => w"),
                     strict_proviso=True) == pf("forall Y. Y -> Y")
    # the generalized variable is the bound one, never the environment's
    assert typecheck(F, env, pt("tfun X => fun w:X => z")) == pf("forall W. W -> X")


def test_nested_capturing_type_binders_built_once(monkeypatch):
    # every binder captures the environment's X and is renamed through the
    # scan's map: typing, and redex search in F, visit each node once, in
    # one scan
    from atomlam import Forall, TyLam, find_redexes, rules_of_system
    from atomlam.typecheck import Scan
    builds, scans = [], []
    build, init = Scan._build, Scan.__init__
    monkeypatch.setattr(Scan, "_build",
                        lambda self, *a: builds.append(1) or build(self, *a))
    monkeypatch.setattr(Scan, "__init__", lambda self, *a, **k: scans.append(
        1) or init(self, *a, **k))
    env, t, want = Env([("z", FVar("X"))]), Var("z"), FVar("X")
    for _ in range(12):
        t, want = TyLam("X", t), Forall("X'", want)
    assert repr(typecheck(F, env, t)) == repr(want)
    assert (len(builds), len(scans)) == (13, 1)
    del builds[:], scans[:]
    assert find_redexes(F, env, t, rules_of_system(F)) == []
    assert (len(builds), len(scans)) == (13, 1)


def test_capturing_binder_chains_take_linear_work(monkeypatch):
    # each capturing binder avoids the free type variables of its body,
    # which the scan's memo walks once for the whole chain: the work
    # doubles with the depth (free_type_vars of each body was 3,240 /
    # 12,880 / 51,360 calls of syntax._collect)
    import sys
    from atomlam import Forall, TyLam
    calls = []
    for module, name in (("atomlam.syntax", "_collect"),
                         ("atomlam.typecheck", "_vars")):
        walk = getattr(sys.modules[module], name)
        monkeypatch.setattr(sys.modules[module], name,
                            lambda *args, _walk=walk: calls.append(1)
                            or _walk(*args))
    env, work = Env([("z", FVar("X"))]), []
    for depth in (80, 160, 320):
        t = Var("z")
        for _ in range(depth):
            t = TyLam("X", t)
        del calls[:]
        ty, names = typecheck(F, env, t), []
        work.append(len(calls))
        while ty.__class__ is Forall:
            names.append(ty.var)
            ty = ty.body
        assert (names, ty) == (["X'"] * depth, FVar("X"))
    assert work == [80, 160, 320]
    assert work[1] <= 2 * work[0] and work[2] <= 2 * work[1]


def test_system_of_formula():
    assert formula_in_system(pf("X -> Y & X"), IPC)
    assert formula_in_system(pf("X -> Y & X"), F)
    assert not formula_in_system(pf("X | Y"), F)
    assert not formula_in_system(pf("forall X. X"), IPC)
    assert formula_in_system(encode_bot(), F)
    assert formula_in_system(encode_or(FVar("X"), FVar("Y")), F)


def test_elim_context_typing():
    assert typecheck_elim_context(IPC, Env(), ProjHole(1), pf("X & Y")) == FVar("X")
    assert typecheck_elim_context(F, Env(), TyAppHole(FVar("Y")),
                                  pf("forall X. X -> X")) == pf("Y -> Y")
    with pytest.raises(HoleTypeMismatch):
        typecheck_elim_context(IPC, Env([("n", FVar("X"))]),
                               AppHole(Var("n")), FVar("X"))
    env = Env([("u", pf("bot"))])
    assert typecheck_elim_context(IPC, env, AbortHole(pf("X | Y")), pf("bot")) == pf("X | Y")
    hole = CaseHole("x", FVar("X"), Var("x"), "y", FVar("X"), Var("y"), FVar("X"))
    assert typecheck_elim_context(IPC, env, hole, pf("X | X")) == FVar("X")


def test_fat_instantiation_context():
    with pytest.raises(NonAtomicInstantiation):
        typecheck_elim_context(FAT, Env(), TyAppHole(pf("Y -> Y")),
                               pf("forall X. X"))


def test_elim_context_annotations_checked_against_system():
    # the context's own formulas are checked like those of the filled term
    with pytest.raises(NotInSystem):
        typecheck_elim_context(F, Env(), TyAppHole(pf("X | Y")),
                               pf("forall X. X"))
    with pytest.raises(NotInSystem):
        typecheck_elim_context(IPC, Env(), AbortHole(pf("forall X. X")),
                               pf("bot"))
    a = pf("forall X. X")
    with pytest.raises(NotInSystem):
        typecheck_elim_context(IPC, Env(), CaseHole("x", a, Var("x"), "y", a,
                                                    Var("y"), a), pf("X | X"))


def test_elim_context_errors_positioned_in_filled_term():
    # the context argument sits at (1,) of the filled term; the hole's
    # variable avoids the context's free variables
    with pytest.raises(TypeMismatch) as exc:
        typecheck_elim_context(IPC, Env([("n", FVar("X"))]),
                               AppHole(Var("n")), pf("Y -> Z"))
    assert exc.value.position == (1,)
    with pytest.raises(UnboundVariable) as exc:
        typecheck_elim_context(IPC, Env(), AppHole(Var("h")), pf("Y -> Z"))
    assert exc.value.position == (1,)


# ------------------------------------------------------------- fineness

def test_fine_abort_redex():
    env = Env([("z", encode_bot())])
    assert is_fine_redex(env, pt("z [X -> Y]"), RuleId.rho_abort)
    env2 = Env([("z", pf("forall X. X -> X"))])
    assert not is_fine_redex(env2, pt("z [X -> Y]"), RuleId.rho_abort)


def test_fine_case_redex():
    env = Env([("m", encode_or(FVar("X"), FVar("Y"))),
               ("a", FVar("X")), ("b", FVar("Y"))])
    t = pt("m [C1 & C2] <fun x:X => <a, a>, fun y:Y => <a, a>>".replace(
        "C1", "X").replace("C2", "X"))
    assert is_fine_redex(env, t, RuleId.rho_case)
    # annotations that do not match the head's encoded components
    t2 = pt("m [X & X] <fun x:Y => <a, a>, fun y:Y => <a, a>>")
    assert not is_fine_redex(env, t2, RuleId.rho_case)


def test_fineness_requires_redex_shape():
    with pytest.raises(NotARedex):
        is_fine_redex(Env(), Var("x"), RuleId.rho_abort)


def test_beta_always_fine():
    assert is_fine_redex(Env(), pt("(fun x:X => x) y"), RuleId.beta_imp)


# --------------------------------------------------- corpus-level properties

def test_alpha_invariance_of_typecheck():
    rng = random.Random(7)
    for env, t in corpus.ipc_corpus(11, 60):
        a = typecheck(IPC, env, t)
        # rename one bound variable family by re-parsing a printed variant
        from atomlam import print_term
        t2 = pt(print_term(t))
        assert t == t2
        assert typecheck(IPC, env, t2) == a


def test_fat_typable_implies_f_typable():
    for env, t in corpus.f_corpus(13, 120, fat=True):
        tf = typecheck(FAT, env, t)
        assert typecheck(F, env, t) == tf


# ------------------------------------- differential against the oracle

def _outcome(check, sys_id, env, t, strict):
    """The formula, or the error's class, message, position, expected and
    found, compared by repr so that binder names must agree too."""
    try:
        return repr(check(sys_id, env, t, strict))
    except TypingError as e:
        return (type(e).__name__, str(e), e.position,
                repr(getattr(e, "expected", None)),
                repr(getattr(e, "found", None)))


def _capturing_chains(rng, count):
    """Hand-written and seeded terms whose type binders nest over X, X',
    X'' and Y, in environments that mention X and X' or Y: most binders
    capture, annotations and instantiations mention both the bound
    variables and the environment's, and some binders are the target of
    an outer binder's renaming (tfun X => tfun X' => ... X ...), which
    substitution renames too."""
    from atomlam import And, App, Forall, Imp, Lam, Pair, TyApp, TyLam
    envs = [Env([("z", FVar("X"))]),
            Env([("z", FVar("X")), ("y", FVar("X'"))]),
            Env([("z", pf("X -> Y")), ("y", pf("forall X'. X'"))])]
    out = [(envs[0], pt(text)) for text in (
        "tfun X => tfun X' => fun w:X -> X' => w",
        "tfun X => tfun X' => tfun X'' => fun w:X -> X' -> X'' => <w, z>",
        "tfun X => fun w:forall X'. X' -> X => tfun X' => w [X']",
        "tfun X => tfun X => fun w:X => fun v:X' => <w, z>",
        "tfun X => tfun X' => tfun X => fun w:X' -> X => w",
        "tfun X => (tfun X' => fun w:X -> X' => w) [X]")]
    out += [(envs[1], t) for _, t in out]
    names = ["X", "X'", "X''", "Y"]

    def formula(d):
        r = rng.random()
        if d == 0 or r < 0.4:
            return FVar(rng.choice(names))
        if r < 0.75:
            return (Imp if r < 0.6 else And)(formula(d - 1), formula(d - 1))
        return Forall(rng.choice(names), formula(d - 1))

    def term(names_in_scope, d):
        r = rng.random()
        if d == 0 or r < 0.2:
            return Var(rng.choice(names_in_scope))
        if r < 0.45:
            return TyLam(rng.choice(names), term(names_in_scope, d - 1))
        if r < 0.65:
            v = rng.choice("wvz")
            return Lam(v, formula(2), term(names_in_scope + [v], d - 1))
        if r < 0.75:
            return Pair(term(names_in_scope, d - 1), term(names_in_scope, d - 1))
        if r < 0.9:
            return TyApp(term(names_in_scope, d - 1), formula(1))
        return App(term(names_in_scope, d - 1), term(names_in_scope, d - 1))

    for _ in range(count):
        env = rng.choice(envs)
        out.append((env, term(list(env.names()), 6)))
    return out


def test_typecheck_agrees_with_reference_checker():
    # the corpora in each system, their rp/at images and seeded mutants
    # (wrong annotations, unbound variables, non-atomic instantiations,
    # IPC constructs in F, capture-prone type binders), checked in every
    # system with the strict proviso off and on
    from atomlam import at_term, rp_env, rp_term
    from reference_typecheck import reference_typecheck
    rng = random.Random(17)
    ipc = corpus.ipc_corpus(19, 80)
    terms = (ipc + [(rp_env(e), rp_term(t)) for e, t in ipc]
             + [(rp_env(e), at_term(t)) for e, t in ipc]
             + corpus.f_corpus(23, 80) + corpus.f_corpus(29, 80, fat=True))
    terms += [(e, corpus.mutant(rng, t)) for e, t in terms for _ in range(4)]
    terms += _capturing_chains(rng, 400)
    errors = {}
    for env, t in terms:
        for sys_id in (IPC, F, FAT):
            for strict in (False, True):
                got = _outcome(typecheck, sys_id, env, t, strict)
                assert got == _outcome(reference_typecheck, sys_id, env, t,
                                       strict), (sys_id, strict, t)
                if isinstance(got, tuple):
                    errors[got[0]] = errors.get(got[0], 0) + 1
    assert set(errors) == {"UnboundVariable", "NotInSystem", "TypeMismatch",
                           "NonAtomicInstantiation", "ForallProvisoViolated"}
