"""Alpha-equivalence: `==`, `hash` and `canonical_key` against the canonical
keys of tests/reference_alpha.py, binder-scope edge cases pinned by hand,
and deep chains."""

import dataclasses

from hypothesis import given, settings, strategies as st

from atomlam import (Abort, App, Case, ElimContext, Forall, Formula, FVar,
                     Imp, Lam, Proj, Term, TyApp, TyLam, Var, canonical_key,
                     fill, split)
from reference_alpha import _key as oracle_key
from test_syntax import _uniquify, _uniquify_types, node_strategies

# a two-name pool per sort, so that shadowing and capture are common
names, tnames = st.sampled_from(["x", "y"]), st.sampled_from(["X", "Y"])
formulas, terms = node_strategies(names, tnames)
contexts = st.one_of(
    st.builds(App, terms, terms),
    st.builds(Proj, st.sampled_from([1, 2]), terms),
    st.builds(Case, terms, names, formulas, terms, names, formulas, terms,
              formulas),
    st.builds(Abort, terms, formulas),
    st.builds(TyApp, terms, formulas)).map(lambda t: split(t)[0])
nodes = st.one_of(formulas, terms, contexts)


def agrees(a, b):
    """Check `==`, `!=`, `hash` and `canonical_key` on a and b against the
    oracle's key equality, which is returned."""
    equal = oracle_key(a) == oracle_key(b)
    assert (a == b) is equal and (b == a) is equal
    assert (a != b) is (not equal)
    assert (canonical_key(a) == canonical_key(b)) is equal
    if equal:
        assert hash(a) == hash(b)
    return equal


# each binder field and the field it scopes over
_SCOPE = {"var": "body", "lvar": "lbody", "rvar": "rbody"}


def _rename(node, pick, tren=None, yren=None):
    """node with each binder renamed to pick(name, is a type binder) and
    the occurrences it binds renamed with it, with no capture check."""
    tren, yren = tren or {}, yren or {}
    if isinstance(node, Var):
        return Var(tren.get(node.name, node.name))
    if isinstance(node, FVar):
        return FVar(yren.get(node.name, node.name))
    args, scoped = {}, {}
    for f in dataclasses.fields(node):
        v = getattr(node, f.name)
        if f.name in _SCOPE:
            new = pick(v, isinstance(node, (Forall, TyLam)))
            scoped[_SCOPE[f.name]] = ((tren, {**yren, v: new})
                                      if isinstance(node, (Forall, TyLam))
                                      else ({**tren, v: new}, yren))
            v = new
        elif isinstance(v, (Formula, Term, ElimContext)):
            v = _rename(v, pick, *scoped.get(f.name, (tren, yren)))
        args[f.name] = v
    return type(node)(**args)


def _rename_one(node, n, new):
    """node with its n-th binder (in field order, counting from 0) and the
    occurrences it binds renamed to `new`."""
    seen = [-1]

    def pick(old, _):
        seen[0] += 1
        return new if seen[0] == n else old

    return _rename(node, pick)


# ------------------------------------------------- against the oracle

@settings(max_examples=200)
@given(nodes, nodes)
def test_eq_hash_and_key_agree_with_the_oracle_on_pairs(a, b):
    agrees(a, b)


@settings(max_examples=150)
@given(terms)
def test_every_binder_renamed_is_equal(t):
    assert agrees(t, _uniquify_types(_uniquify(t)))
    assert agrees(_uniquify_types(t), _uniquify(t))


@settings(max_examples=100)
@given(formulas)
def test_every_type_binder_renamed_is_equal(f):
    assert agrees(f, _uniquify_types(f))


@settings(max_examples=200)
@given(nodes, st.integers(0, 6), st.sampled_from(["x", "y", "X", "Y", "f"]))
def test_one_binder_renamed_agrees_with_the_oracle(node, n, new):
    agrees(node, _rename_one(node, n, new))


@settings(max_examples=150)
@given(nodes)
def test_binders_collapsed_agree_with_the_oracle(node):
    agrees(node, _rename(node, lambda old, is_type: "X" if is_type else "x"))


@settings(max_examples=60)
@given(formulas, terms, contexts)
def test_different_sorts_are_never_equal(f, t, e):
    assert not agrees(f, t)
    assert not agrees(e, fill(e, t))
    assert not agrees(Var("X"), FVar("X"))


# ------------------------------------------------- binder scopes by hand

def test_one_subterm_under_differently_named_binders():
    x, s = FVar("X"), App(Var("x"), Var("y"))
    assert not agrees(Lam("x", x, s), Lam("y", x, s))
    assert agrees(Lam("x", x, s), Lam("x", x, s))
    body = Imp(FVar("X"), FVar("Y"))
    assert not agrees(Forall("X", body), Forall("Y", body))
    inst = TyApp(Var("m"), body)
    assert not agrees(TyLam("X", inst), TyLam("Y", inst))
    # an identical subterm that mentions neither binder is still equal
    z = Var("z")
    assert agrees(Lam("x", x, z), Lam("y", x, z))


def test_case_branch_annotation_lies_outside_its_binder():
    def case(lvar, lann, lbody):
        return Case(Var("m"), lvar, lann, lbody, "y", FVar("Y"), Var("y"),
                    FVar("Z"))

    assert agrees(case("X", FVar("X"), Var("X")),
                  case("W", FVar("X"), Var("W")))
    assert not agrees(case("X", FVar("X"), Var("X")),
                      case("W", FVar("W"), Var("W")))
    assert agrees(Lam("X", FVar("X"), Var("X")), Lam("W", FVar("X"), Var("W")))
    assert not agrees(Lam("X", FVar("X"), Var("X")),
                      Lam("W", FVar("W"), Var("W")))
    # a type binder does scope over the annotation
    assert agrees(TyLam("X", case("x", FVar("X"), Var("x"))),
                  TyLam("W", case("x", FVar("W"), Var("x"))))


def test_term_and_type_variables_do_not_bind_each_other():
    assert agrees(TyLam("X", Var("X")), TyLam("Y", Var("X")))
    assert not agrees(TyLam("X", Var("X")), TyLam("Y", Var("Y")))
    m = Var("m")
    assert agrees(Lam("X", FVar("A"), TyApp(m, FVar("X"))),
                  Lam("Y", FVar("A"), TyApp(m, FVar("X"))))
    assert not agrees(Lam("X", FVar("A"), TyApp(m, FVar("X"))),
                      Lam("Y", FVar("A"), TyApp(m, FVar("Y"))))


# ---------------------------------------------------------------- depth

DEPTH = 800


def _chains(n):
    """A `forall`, a `->` and a `fun` chain DEPTH deep, each ending in the
    variable numbered n (bound in the `forall` and `fun` chains)."""
    forall, imp, fun = FVar(f"X{n}"), FVar(f"X{n}"), Var(f"x{n}")
    for i in range(DEPTH):
        forall = Forall(f"X{i}", forall)
        imp = Imp(FVar("A"), imp)
        fun = Lam(f"x{i}", FVar("A"), fun)
    return forall, imp, fun


def test_deep_chains_compare_and_hash():
    for x, y, z in zip(_chains(0), _chains(0), _chains(1)):
        assert x is not y and x == y and hash(x) == hash(y)
        assert canonical_key(x) == canonical_key(y)
        assert x != z and canonical_key(x) != canonical_key(z)
