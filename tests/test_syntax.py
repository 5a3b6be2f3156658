import dataclasses
import itertools
import random

from hypothesis import given, settings, strategies as st

from atomlam import (Abort, And, App, AppHole, Bot, Case, Forall, Formula,
                     FVar, Imp, Inj, Lam, Or, Pair, Proj, ProjHole, Term,
                     TyApp, TyAppHole, TyLam, Var, encode_bot,
                     encode_or, fill, free_type_vars, free_vars, hole_result,
                     match_encoded_or, parse_formula, parse_term,
                     print_formula, print_term, split, subst_term,
                     subst_type)

pf, pt = parse_formula, parse_term


# --------------------------------------------------- oracle: substitution
# Independent oracle: rename every binder in the whole term to a globally
# unique name first, then substitute naively (no capture checks needed).

_counter = itertools.count()


def _uniquify(t):
    def go(t, ren):
        if isinstance(t, Var):
            return Var(ren.get(t.name, t.name))
        if isinstance(t, Lam):
            new = f"u{next(_counter)}"
            return Lam(new, t.ann, go(t.body, {**ren, t.var: new}))
        if isinstance(t, App):
            return App(go(t.fun, ren), go(t.arg, ren))
        if isinstance(t, Pair):
            return Pair(go(t.fst, ren), go(t.snd, ren))
        if isinstance(t, Proj):
            return Proj(t.index, go(t.body, ren))
        if isinstance(t, Inj):
            return Inj(t.index, go(t.body, ren), t.left, t.right)
        if isinstance(t, Case):
            nl = f"u{next(_counter)}"
            nr = f"u{next(_counter)}"
            return Case(go(t.scrut, ren),
                        nl, t.lann, go(t.lbody, {**ren, t.lvar: nl}),
                        nr, t.rann, go(t.rbody, {**ren, t.rvar: nr}), t.ann)
        if isinstance(t, Abort):
            return Abort(go(t.body, ren), t.ann)
        if isinstance(t, TyLam):
            return TyLam(t.var, go(t.body, ren))
        if isinstance(t, TyApp):
            return TyApp(go(t.fun, ren), t.arg)
        raise AssertionError(t)

    return go(t, {})


def _naive_subst(n, x, t):
    if isinstance(t, Var):
        return n if t.name == x else t
    if isinstance(t, Lam):
        return Lam(t.var, t.ann, _naive_subst(n, x, t.body))
    if isinstance(t, App):
        return App(_naive_subst(n, x, t.fun), _naive_subst(n, x, t.arg))
    if isinstance(t, Pair):
        return Pair(_naive_subst(n, x, t.fst), _naive_subst(n, x, t.snd))
    if isinstance(t, Proj):
        return Proj(t.index, _naive_subst(n, x, t.body))
    if isinstance(t, Inj):
        return Inj(t.index, _naive_subst(n, x, t.body), t.left, t.right)
    if isinstance(t, Case):
        return Case(_naive_subst(n, x, t.scrut),
                    t.lvar, t.lann, _naive_subst(n, x, t.lbody),
                    t.rvar, t.rann, _naive_subst(n, x, t.rbody), t.ann)
    if isinstance(t, Abort):
        return Abort(_naive_subst(n, x, t.body), t.ann)
    if isinstance(t, TyLam):
        return TyLam(t.var, _naive_subst(n, x, t.body))
    if isinstance(t, TyApp):
        return TyApp(_naive_subst(n, x, t.fun), t.arg)
    raise AssertionError(t)


def subst_oracle(n, x, t):
    return _naive_subst(n, x, _uniquify(t))


# ----------------------------------------------------- hypothesis strategies

def node_strategies(names, tnames):
    """Formulas and terms whose variables and binders are drawn from the
    pools `names` (term) and `tnames` (type)."""
    formulas = st.recursive(
        st.one_of(tnames.map(FVar), st.just(Bot())),
        lambda inner: st.one_of(
            st.builds(Imp, inner, inner),
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
            st.builds(Forall, tnames, inner)),
        max_leaves=8)
    terms = st.recursive(
        names.map(Var),
        lambda inner: st.one_of(
            st.builds(Lam, names, formulas, inner),
            st.builds(App, inner, inner),
            st.builds(Pair, inner, inner),
            st.builds(Proj, st.sampled_from([1, 2]), inner),
            st.builds(Inj, st.sampled_from([1, 2]), inner, formulas, formulas),
            st.builds(Case, inner, names, formulas, inner, names, formulas,
                      inner, formulas),
            st.builds(Abort, inner, formulas),
            st.builds(TyLam, tnames, inner),
            st.builds(TyApp, inner, formulas)),
        max_leaves=10)
    return formulas, terms


names = st.sampled_from(["x", "y", "z", "w"])
tnames = st.sampled_from(["X", "Y", "Z"])
formulas, terms = node_strategies(names, tnames)


# ------------------------------------------------------------------ alpha

def test_alpha_eq_renaming():
    assert pt("fun x:X => x") == pt("fun y:X => y")
    assert pt("tfun X => fun w:X => w") == pt("tfun Y => fun w:Y => w")
    assert pt("fun x:X => x") != pt("fun x:Y => x")


def test_alpha_distinguishes_free_vars():
    assert pt("fun x:X => y") != pt("fun x:X => z")
    assert pt("x") != pt("y")


@settings(max_examples=150)
@given(terms)
def test_alpha_reflexive(t):
    assert t == t


@settings(max_examples=100)
@given(terms, terms)
def test_alpha_symmetric(a, b):
    assert (a == b) == (b == a)


@settings(max_examples=60)
@given(terms, terms, terms)
def test_alpha_transitive(a, b, c):
    if a == b and b == c:
        assert a == c


# ------------------------------------------------------------ substitution

def test_subst_capture_forces_rename():
    out = subst_term(Var("y"), "x", pt("fun y:X => x"))
    assert out == pt("fun w:X => y")
    assert out != pt("fun y:X => y")


def test_subst_var():
    assert subst_term(pt("a b"), "x", Var("x")) == pt("a b")


def test_subst_matches_oracle_on_example():
    # [z/x](fun z:X => x z) must rename the binder
    t = pt("fun z:X => x z")
    out = subst_term(Var("z"), "x", t)
    assert out == subst_oracle(Var("z"), "x", t)
    assert out == pt("fun w:X => z w")


@settings(max_examples=150)
@given(terms, names, terms)
def test_subst_matches_oracle(n, x, t):
    assert subst_term(n, x, t) == subst_oracle(n, x, t)


@settings(max_examples=100)
@given(terms, names)
def test_subst_identity_when_not_free(t, x):
    if x not in free_vars(t):
        assert subst_term(Var("q"), x, t) == t


@settings(max_examples=100)
@given(terms, names, tnames)
def test_subst_of_a_variable_for_itself_is_the_identity(t, x, a):
    assert subst_term(Var(x), x, t) is t
    assert subst_type(FVar(a), a, t) is t


@settings(max_examples=100)
@given(st.lists(terms, max_size=3))
def test_free_names_of_several_nodes_are_the_union(ts):
    union = frozenset().union(*map(free_vars, ts))
    assert free_vars(*ts) == union
    type_union = frozenset().union(*map(free_type_vars, ts))
    assert free_type_vars(*ts) == type_union


def test_substitution_leaves_no_reference_cycle():
    # with the collector off, a substitution into a term with binders
    # leaves nothing behind for it to collect
    import gc
    t = pt("tfun Y => fun w:X -> Y => tfun Z => w [X]")
    gc.collect()
    gc.disable()
    try:
        assert print_term(subst_type(FVar("Y"), "X", t)) == \
            "tfun Y' => fun w:Y -> Y' => tfun Z => w [Y]"
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_translations_and_residuals_leave_no_reference_cycle():
    # the same for both translations of a term with a case, and for the
    # copies of the abort under the case's rho_case redex in the rp image
    import gc
    from atomlam import RuleId, at_term, rp_term
    from atomlam.analysis import residuals
    m = pt("case s of { x:X => <x, x> ; y:Y => abort[X & X] u } : X & X")
    gc.collect()
    gc.disable()
    try:
        image = rp_term(m)
        assert print_term(image) == \
            "s [X & X] <fun x:X => <x, x>, fun y:Y => u [X & X]>"
        assert print_term(at_term(m)).startswith("<s [X] <")
        assert residuals(image, (), RuleId.rho_case, (1, 1, 0)) == \
            [(0, 1, 1, 0, 0), (1, 1, 1, 0, 0)]
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_type_subst_in_formula():
    assert subst_type(FVar("Y"), "X", pf("forall X. X")) == pf("forall X. X")
    assert subst_type(pf("Y -> Y"), "X", pf("X & X")) == pf("(Y -> Y) & (Y -> Y)")
    # capture avoidance: [X/Y](forall X. Y -> X) renames the binder
    out = subst_type(FVar("X"), "Y", pf("forall X. Y -> X"))
    assert out == pf("forall Z. X -> Z")
    assert out != pf("forall X. X -> X")


def test_type_subst_in_term():
    assert subst_type(FVar("Y"), "X", pt("fun w:X => w")) == \
        pt("fun w:Y => w")
    assert subst_type(FVar("Y"), "X", pt("tfun X => fun w:X => w")) == \
        pt("tfun X => fun w:X => w")
    assert subst_type(pf("forall Z. Z"), "X", pt("z [X]")) == \
        pt("z [forall Z. Z]")


# Type substitution against an oracle: rename every type binder (forall,
# tfun) to a globally unique name first, then substitute naively.

def _uniquify_types(node):
    def f(a, ren):
        if isinstance(a, FVar):
            return FVar(ren.get(a.name, a.name))
        if isinstance(a, Bot):
            return a
        if isinstance(a, (Imp, And, Or)):
            return type(a)(f(a.left, ren), f(a.right, ren))
        new = f"U{next(_counter)}"
        return Forall(new, f(a.body, {**ren, a.var: new}))

    def go(t, ren):
        if isinstance(t, Var):
            return t
        if isinstance(t, Lam):
            return Lam(t.var, f(t.ann, ren), go(t.body, ren))
        if isinstance(t, App):
            return App(go(t.fun, ren), go(t.arg, ren))
        if isinstance(t, Pair):
            return Pair(go(t.fst, ren), go(t.snd, ren))
        if isinstance(t, Proj):
            return Proj(t.index, go(t.body, ren))
        if isinstance(t, Inj):
            return Inj(t.index, go(t.body, ren), f(t.left, ren), f(t.right, ren))
        if isinstance(t, Case):
            return Case(go(t.scrut, ren), t.lvar, f(t.lann, ren),
                        go(t.lbody, ren), t.rvar, f(t.rann, ren),
                        go(t.rbody, ren), f(t.ann, ren))
        if isinstance(t, Abort):
            return Abort(go(t.body, ren), f(t.ann, ren))
        if isinstance(t, TyLam):
            new = f"U{next(_counter)}"
            return TyLam(new, go(t.body, {**ren, t.var: new}))
        if isinstance(t, TyApp):
            return TyApp(go(t.fun, ren), f(t.arg, ren))
        raise AssertionError(t)

    return f(node, {}) if isinstance(node, Formula) else go(node, {})


def _naive_type_subst(b, x, node):
    """[b/x]node with no capture check: node's type binders are unique."""
    if isinstance(node, FVar):
        return b if node.name == x else node
    if isinstance(node, (Var, Bot)):
        return node
    if isinstance(node, (Forall, TyLam)):
        return type(node)(node.var, _naive_type_subst(b, x, node.body))
    return type(node)(*[_naive_type_subst(b, x, v)
                        if isinstance(v, (Formula, Term)) else v
                        for v in (getattr(node, f.name)
                                  for f in dataclasses.fields(node))])


def type_subst_oracle(b, x, node):
    return _naive_type_subst(b, x, _uniquify_types(node))


@settings(max_examples=200)
@given(formulas, tnames, formulas)
def test_type_subst_on_formulas_matches_oracle(b, x, a):
    assert subst_type(b, x, a) == type_subst_oracle(b, x, a)


@settings(max_examples=150)
@given(formulas, tnames, terms)
def test_type_subst_on_terms_matches_oracle(b, x, m):
    assert subst_type(b, x, m) == type_subst_oracle(b, x, m)


def _substituted_free(free, x, free_b):
    """The free names of [b/x]t, from those of t and of b."""
    return (free - {x}) | (free_b if x in free else frozenset())


@settings(max_examples=150)
@given(formulas, tnames, st.one_of(formulas, terms))
def test_type_subst_free_type_variable_law(b, x, node):
    assert free_type_vars(subst_type(b, x, node)) == _substituted_free(
        free_type_vars(node), x, free_type_vars(b))


@settings(max_examples=150)
@given(terms, names, terms)
def test_subst_free_variable_law(n, x, m):
    assert free_vars(subst_term(n, x, m)) == _substituted_free(
        free_vars(m), x, free_vars(n))


def test_fresh_names_are_pinned():
    # replayable traces print these names, so they are pinned as printed,
    # not up to alpha: a capturing binder becomes its smallest primed
    # variant free in neither the substituted term nor the binder's scope
    cases = [
        ("y", "x", "fun y:X => x y", "fun y':X => y y'"),
        ("y", "x", "fun y:X => fun y':Y => x y y'",
         "fun y':X => fun y'':Y => y y' y''"),
        ("y", "x", "case s of { y:A => x y ; z:B => z } : C",
         "case s of { y':A => y y' ; z:B => z } : C"),
        ("y", "x", "case s of { z:A => z ; y:B => x y } : C",
         "case s of { z:A => z ; y':B => y y' } : C"),
        ("y y'", "x", "case x of { y:A => x y ; y':B => x y' } : C",
         "case y y' of { y'':A => y y' y'' ; y'':B => y y' y'' } : C"),
        ("y", "x", "fun x:X => fun y:X => x y", "fun x:X => fun y:X => x y"),
    ]
    for n, x, m, out in cases:
        assert print_term(subst_term(pt(n), x, pt(m))) == out
    cases = [
        ("Y", "X", "forall Y. X -> Y", "forall Y'. Y -> Y'"),
        ("Y -> Y'", "X", "forall Y. forall Y'. X -> Y -> Y'",
         "forall Y''. forall Y'''. (Y -> Y') -> Y'' -> Y'''"),
        ("X", "Y", "forall X. Y -> X", "forall X'. X -> X'"),
        ("Y", "X", "forall X. X -> Y", "forall X. X -> Y"),
    ]
    for b, x, a, out in cases:
        assert print_formula(subst_type(pf(b), x, pf(a))) == out
    cases = [
        ("Y", "X", "tfun Y => fun w:X => w [Y]", "tfun Y' => fun w:Y => w [Y']"),
        ("Y & Y'", "X", "tfun Y => tfun Y' => fun w:X -> Y => w [Y']",
         "tfun Y'' => tfun Y''' => fun w:Y & Y' -> Y'' => w [Y''']"),
        ("Y", "X", "fun w:forall Y. X -> Y => tfun Y => w [Y]",
         "fun w:forall Y'. Y -> Y' => tfun Y => w [Y]"),
    ]
    for b, x, m, out in cases:
        assert print_term(subst_type(pf(b), x, pt(m))) == out


# -------------------------------------------------------------- encodings

def test_encode_or():
    assert encode_or(FVar("Y"), FVar("Z")) == pf("forall X. ((Y -> X) & (Z -> X)) -> X")
    # freshness forced when X occurs in the components
    assert encode_or(FVar("X"), FVar("X")) == pf("forall W. ((X -> W) & (X -> W)) -> W")


def test_encode_bot():
    assert encode_bot() == pf("forall X. X")
    assert encode_bot() == pf("forall Y. Y")


def test_match_encoded_or():
    assert match_encoded_or(encode_or(FVar("X"), pf("X -> Y"))) == (FVar("X"), pf("X -> Y"))
    assert match_encoded_or(encode_bot()) is None
    assert match_encoded_or(pf("forall X. ((Y -> X) & (Z -> X)) -> Y")) is None


@settings(max_examples=60)
@given(formulas, formulas)
def test_encode_or_alpha_invariant_roundtrip(a, b):
    got = match_encoded_or(encode_or(a, b))
    assert got is not None and got[0] == a and got[1] == b


# ------------------------------------------------------------------- fill

def test_fill():
    m, n = Var("m"), Var("n")
    assert fill(AppHole(n), m) == App(m, n)
    assert fill(ProjHole(1), m) == Proj(1, m)
    assert fill(TyAppHole(FVar("B")), m) == TyApp(m, FVar("B"))


def test_fill_puts_the_premiss_where_the_grammar_has_the_main_premiss():
    # fill builds each root directly; the grammar inserts the premiss at
    # the root's first term field among the hole's fields
    from atomlam.syntax import _HOLES, _SHAPES, AbortHole, CaseHole
    m, a, b = Var("m"), FVar("A"), FVar("B")
    holes = [AppHole(Var("n")), ProjHole(2), AbortHole(a), TyAppHole(b),
             CaseHole("x", a, Var("p"), "y", b, Var("q"), a)]
    for root, hole in _HOLES.items():
        [e] = [e for e in holes if type(e) is hole]
        args = list(_SHAPES[hole].values(e))
        args.insert(_SHAPES[root].kids[0], m)
        assert repr(fill(e, m)) == repr(root(*args))


def test_split_inverts_fill_and_hole_result_follows_the_connective():
    # (term, hole type, what the context yields, a hole type it rejects)
    cases = [("m n", "A -> B", "B", "A & B"),
             ("m.2", "A & B", "B", "A -> B"),
             ("case m of { x:A => p ; y:B => q } : C", "A | B", "C", "bot"),
             ("abort[C] m", "bot", "C", "A | B"),
             ("m [A -> A]", "forall X. X & B", "(A -> A) & B", "A")]
    for src, hole, yields, wrong in cases:
        t = pt(src)
        e, principal = split(t)
        assert principal == Var("m") and fill(e, principal) == t
        assert hole_result(e, pf(hole)) == pf(yields)
        assert hole_result(t, pf(hole)) == pf(yields)
        assert hole_result(e, pf(wrong)) is None
    assert split(pt("fun x:A => m")) is None


# ------------------------------------------------------------- round trip

def test_elimination_chains_associate_left():
    t = parse_term("m [X] n .1")
    assert t == Proj(1, App(TyApp(Var("m"), FVar("X")), Var("n")))
    assert parse_term("abort[X -> Y] m n") == \
        App(Abort(Var("m"), pf("X -> Y")), Var("n"))


def test_bracket_formulas_need_parens_above_or():
    assert parse_term("in1[X & Y|Z] m") == \
        Inj(1, Var("m"), And(FVar("X"), FVar("Y")), FVar("Z"))
    t = parse_term("in2[(X -> Y)|(A | B)] m")
    assert t.left == pf("X -> Y") and t.right == pf("A | B")
    import pytest
    from atomlam.errors import ParseError
    with pytest.raises(ParseError):
        parse_term("in1[X -> Y|Z] m")


def test_redundant_parens_accepted():
    assert parse_term("((x))") == Var("x")
    assert parse_formula("((X)) -> ((Y))") == pf("X -> Y")


@settings(max_examples=200)
@given(terms)
def test_parse_print_roundtrip(t):
    from atomlam import print_term
    assert parse_term(print_term(t)) == t


@settings(max_examples=200)
@given(formulas)
def test_formula_roundtrip(f):
    from atomlam import print_formula
    assert parse_formula(print_formula(f)) == f


@settings(max_examples=150)
@given(terms)
def test_printing_is_a_fixpoint(t):
    from atomlam import print_term
    once = print_term(t)
    assert print_term(parse_term(once)) == once
