import random

import pytest

from atomlam import (Env, FVar, RuleId, SystemId, Var, at_term,
                     encode_bot, encode_or, find_redexes, mk_abort,
                     mk_abort_at, mk_case, mk_case_at, mk_in, parse_formula,
                     parse_term, rp_env, rp_formula, rp_term, subst_term,
                     typecheck)
from atomlam.errors import NotIPCFormula, NotIPCTerm

import corpus

pf, pt = parse_formula, parse_term
IPC, F, FAT = SystemId.IPC, SystemId.F, SystemId.FAT


def test_rp_formula_table():
    assert rp_formula(FVar("X")) == FVar("X")
    assert rp_formula(pf("bot")) == pf("forall X. X")
    assert rp_formula(pf("X | Y")) == encode_or(FVar("X"), FVar("Y"))
    # composing the table by hand: (X | Y) -> bot
    assert rp_formula(pf("(X | Y) -> bot")) == \
        pf("(forall Z. ((X -> Z) & (Y -> Z)) -> Z) -> forall Z. Z")


def test_rp_formula_rejects_polymorphic_input():
    with pytest.raises(NotIPCFormula):
        rp_formula(pf("forall X. X"))


def test_mk_in():
    out = mk_in(1, Var("m"), FVar("Y"), FVar("Z"))
    assert out == pt("tfun X => fun w:(Y -> X) & (Z -> X) => w.1 m")
    # derivable introduction typing
    env = Env([("m", FVar("Y"))])
    assert typecheck(F, env, out) == encode_or(FVar("Y"), FVar("Z"))
    # alpha-independence of the fresh variable choice
    assert mk_in(1, Var("m"), FVar("X"), FVar("X")) == \
        pt("tfun W => fun w:(X -> W) & (X -> W) => w.1 m")


def test_mk_case_and_abort():
    out = mk_case(Var("m"), "x", FVar("Y"), Var("p"), "y", FVar("Z"), Var("q"),
                  FVar("W"))
    assert out == pt("m [W] <fun x:Y => p, fun y:Z => q>")
    env = Env([("m", encode_or(FVar("Y"), FVar("Z"))), ("p", FVar("W")),
               ("q", FVar("W"))])
    assert typecheck(F, env, out) == FVar("W")
    # derivable elimination typing for abort, and rho-normality at atoms
    env2 = Env([("m", encode_bot())])
    ab = mk_abort(Var("m"), pf("X -> X"))
    assert typecheck(F, env2, ab) == pf("X -> X")
    at_root = mk_abort(Var("m"), FVar("X"))
    assert find_redexes(F, env2, at_root,
                        {RuleId.rho_abort, RuleId.rho_case}) == []


def test_mk_case_result_can_be_encoded_bot():
    env = Env([("m", encode_or(FVar("Y"), FVar("Z"))), ("p", encode_bot()),
               ("q", encode_bot())])
    out = mk_case(Var("m"), "x", FVar("Y"), Var("p"), "y", FVar("Z"), Var("q"),
                  encode_bot())
    assert typecheck(F, env, out) == encode_bot()


def test_rp_term_examples():
    assert rp_term(Var("x")) == Var("x")
    assert rp_term(pt("abort[X] m")) == pt("m [X]")
    got = rp_term(pt("case m of { x:X => p ; y:Y => q } : X & Y"))
    assert got == pt("m [X & Y] <fun x:X => p, fun y:Y => q>")


def test_rp_term_rejects_polymorphic_terms():
    with pytest.raises(NotIPCTerm):
        rp_term(pt("tfun X => fun w:X => w"))


def test_mk_case_at_clauses():
    m, p, q = Var("m"), Var("p"), Var("q")
    a, b = FVar("A"), FVar("B")
    assert mk_case_at(m, "x", a, p, "y", b, q, FVar("Z")) == \
        pt("m [Z] <fun x:A => p, fun y:B => q>")
    assert mk_case_at(m, "x", a, p, "y", b, q, pf("C1 -> C2")) == \
        pt("fun z:C1 => m [C2] <fun x:A => p z, fun y:B => q z>")
    assert mk_case_at(m, "x", a, p, "y", b, q, pf("forall Z. Z")) == \
        pt("tfun Z => m [Z] <fun x:A => p [Z], fun y:B => q [Z]>")
    assert mk_case_at(m, "x", a, p, "y", b, q, pf("C1 & C2")) == \
        pt("<m [C1] <fun x:A => p.1, fun y:B => q.1>,"
           "  m [C2] <fun x:A => p.2, fun y:B => q.2>>")


def test_mk_abort_at_clauses():
    m = Var("m")
    assert mk_abort_at(m, FVar("Z")) == pt("m [Z]")
    assert mk_abort_at(m, pf("B -> C")) == pt("fun z:B => m [C]")
    assert mk_abort_at(m, pf("X1 & X2")) == pt("<m [X1], m [X2]>")
    assert mk_abort_at(m, pf("forall Z. Z -> Z")) == \
        pt("tfun Z => fun z:Z => m [Z]")


def test_at_term_examples():
    assert at_term(Var("x")) == Var("x")
    assert at_term(pt("abort[X -> Y] m")) == pt("fun z:X => m [Y]")
    # atomic result annotation: the two translations coincide on case
    t = pt("case m of { x:X => p ; y:Y => q } : Z")
    assert at_term(t) == rp_term(t)


def test_substitution_commutes_with_translation():
    rng = random.Random(43)
    for env, t in corpus.ipc_corpus(47, 60, fuel=3):
        n = corpus.gen_ipc(rng, env, FVar("X"), 2)
        direct = rp_term(subst_term(n, "a", t))
        staged = subst_term(rp_term(n), "a", rp_term(t))
        assert direct == staged
        assert at_term(subst_term(n, "a", t)) == \
            subst_term(at_term(n), "a", at_term(t))


def test_type_soundness_of_both_translations():
    for env, t in corpus.ipc_corpus(53, 150):
        a = typecheck(IPC, env, t)
        target = rp_formula(a)
        assert typecheck(F, rp_env(env), rp_term(t)) == target
        assert typecheck(FAT, rp_env(env), at_term(t)) == target


def test_at_output_is_fat_and_atomization_normal():
    for env, t in corpus.ipc_corpus(59, 120):
        out = at_term(t)
        renv = rp_env(env)
        typecheck(FAT, renv, out)  # legality: every instantiation atomic
        fine = [r for r in find_redexes(F, renv, out,
                                        {RuleId.rho_case, RuleId.rho_abort})
                if r.fine]
        assert fine == []


@pytest.mark.parametrize("text", [
    "fun x:X => a",
    "f a",
    "<a, b>",
    "p.1",
    "in1[X|Y] a",
    "case s of { x:X => a ; y:Y => b } : X",
    "case s of { x:X => a ; y:Y => b } : X & Y",
    "abort[X] u",
    "abort[X -> Y] u",
])
def test_layout_table_locates_each_child(text):
    from atomlam import RP_CHILD
    from atomlam.diagram import at_copy_positions
    from atomlam.syntax import subterm_at, term_children
    m = pt(text)
    children = term_children(m)
    assert len({str(c) for c in children}) == len(children)
    assert len(RP_CHILD[type(m)]) == len(children)
    for i, child in enumerate(children):
        assert subterm_at(rp_term(m), RP_CHILD[type(m)][i]) == rp_term(child)
        # the atomic translation puts the child's image at every copy
        for cp in at_copy_positions(m, (i,)):
            assert subterm_at(at_term(m), cp) == at_term(child)
