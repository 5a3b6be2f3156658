"""The rule catalogue and the connective table behind the atomization
rules, and the fresh names the rules and the atomic translation choose
where names clash."""

import dataclasses
import re
from pathlib import Path

import pytest

from atomlam import (Env, RuleId, SystemId, Var, apply_rule, apply_script,
                     encode_bot, encode_or, expand_rho, fill, find_redexes,
                     free_vars, hole_result, match_rule, mk_abort_at,
                     mk_case_at, parse_formula, parse_term, print_term,
                     replace_at, step, subst_term, subterm_at, typecheck)
from atomlam.diagram import OR_BOT_RULES
from atomlam.rules import (CONNECTIVES, F_BETA_ETA, RULES, Rule, expansion,
                           matchers_by_class, rules_of_system)
from atomlam.syntax import _SHAPES, _with_child, term_children
from atomlam.typecheck import Scan

import corpus

pf, pt = parse_formula, parse_term
F = SystemId.F


# --------------------------------------------------------- the rule table

def test_one_row_per_rule_in_ruleid_order():
    assert list(RULES) == list(RuleId)
    assert all(type(row) is Rule for row in RULES.values())


def _ids(names):
    return frozenset(RuleId(n) for n in names.split())


def test_derived_rule_sets_are_the_catalogue():
    # the sets as they were written out before they were read off RULES
    shared = "beta_imp beta_and eta_imp eta_and"
    assert rules_of_system(SystemId.IPC) == _ids(
        shared + " beta_or eta_or pi_imp pi_and pi_or pi_bot"
        " varpi_imp varpi_and varpi_or varpi_bot")
    assert rules_of_system(SystemId.F) == _ids(
        shared + " beta_all eta_all rho_case rho_abort delta"
        " eps_case eps_abort")
    assert rules_of_system(SystemId.FAT) == _ids(shared + " beta_all eta_all")
    assert F_BETA_ETA == _ids(shared + " beta_all eta_all")
    assert OR_BOT_RULES == _ids(
        "beta_or eta_or pi_imp pi_and pi_or pi_bot"
        " varpi_imp varpi_and varpi_or varpi_bot")
    with pytest.raises(ValueError):
        rules_of_system("stlc")


def _nodes(t):
    yield t
    for child in term_children(t):
        yield from _nodes(child)


def test_no_match_off_the_rule_roots():
    # match_rule tests the root class once for every rule, so no matcher
    # is asked about a node it cannot be rooted at; the traversal's
    # per-class table offers each class exactly the rules rooted there
    from atomlam import at_term, rp_term
    by_class = matchers_by_class(frozenset(RuleId))
    terms = [t for _, t in corpus.f_corpus(61, 60)]
    for _, t in corpus.ipc_corpus(67, 60):
        terms += [t, rp_term(t), at_term(t)]
    off = 0
    for t in terms:
        for node in _nodes(t):
            offered = [rule for rule, _, _ in by_class.get(node.__class__, ())]
            assert offered == [rule for rule, row in RULES.items()
                               if node.__class__ in row.roots]
            for rule in RuleId:
                if rule not in offered:
                    assert match_rule(rule, node) is None, (rule, node)
                    off += 1
    assert off > 10000


def _catalogue_rows():
    """(ids, systems) per row of README's "Rule catalogue" table."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    table = text.split("## Rule catalogue", 1)[1].split("\n\n")[1]
    rows = [[cell.strip() for cell in line.strip("|").split(" | ")]
            for line in table.splitlines()[2:]]
    systems = {"all": {"ipc", "f", "fat"}, "IPC": {"ipc"}, "F": {"f"},
               "Fat": {"fat"}}
    return [(re.findall(r"`(\w+)`", ids),
             set().union(*(systems[s] for s in sys.split(", "))))
            for ids, sys, _ in rows]


def test_readme_catalogue_systems_agree_with_the_rule_table():
    listed = []
    for ids, systems in _catalogue_rows():
        for name in ids:
            listed.append(name)
            assert systems == {s.value for s in SystemId
                               if RuleId(name) in rules_of_system(s)}, name
    assert sorted(listed) == sorted(r.value for r in RuleId)


# ------------------------------------------------------ the table's columns

# (C, its components as the eliminations over the binder yield them)
ROWS = [("A -> B", ["B"]), ("A & B", ["A", "B"]),
        ("forall X. X -> Y", ["X -> Y"])]


@pytest.mark.parametrize("c, components", ROWS, ids=[c for c, _ in ROWS])
def test_connective_columns_agree(c, components):
    c = pf(c)
    x = Var("x")
    row, name, elims = expansion(c, "z", (x,))
    assert row is CONNECTIVES[type(c)]
    env = Env([("x", c)] + ([(name, c.left)] if row.sort == 0 else []))
    # hole_result gives the row's components, and each elimination of x
    # has that type (a term binder typed by C's antecedent)
    assert [hole_result(e, c) for e in elims] == [pf(ci) for ci in components]
    for e, ci in zip(elims, components):
        assert typecheck(F, env, fill(e, x)) == pf(ci)
    # beta law: elimination i of the introduction contracts to component i
    parts = [Var(f"b{i}") for i in range(len(elims))]
    intro = row.intro(c, name, *parts)
    assert row.introduces(intro, c) and not row.introduces(x, c)
    for e, b in zip(elims, parts):
        assert apply_rule(row.beta, fill(e, intro)) == b
    # eta law: the introduction of x's eliminations contracts back to x
    expanded = row.intro(c, name, *[fill(e, x) for e in elims])
    assert typecheck(F, env, expanded) == c
    assert apply_rule(row.eta, expanded) == x


# ------------------------------------------- fresh names, where they clash
#
# Contracta are compared as printed, names included: each case makes the
# binder's base name clash with a free name, a branch binder, or (for a
# type binder) a type variable free in the redex.

CONTRACTA = [
    ("rho_case", "m [A -> B] <fun x:P => w, fun y:Q => w' x>",
     "fun w'':A => m [B] <fun x:P => w w'', fun y:Q => w' x w''>"),
    ("rho_case", "m [A -> B] <fun w:P => w, fun y:Q => y>",
     "fun w':A => m [B] <fun w:P => w w', fun y:Q => y w'>"),
    ("rho_case", "m [A & B] <fun w:P => w, fun y:Q => y>",
     "<m [A] <fun w:P => w.1, fun y:Q => y.1>,"
     " m [B] <fun w:P => w.2, fun y:Q => y.2>>"),
    ("rho_case", "m [forall X. X -> Y] <fun x:X => p, fun y:Q => q>",
     "tfun X' => m [X' -> Y] <fun x:X => p [X'], fun y:Q => q [X']>"),
    ("rho_case", "f [X] [forall X. X -> X'] <fun x:P => p, fun y:Q => q>",
     "tfun X'' => f [X] [X'' -> X'] <fun x:P => p [X''], fun y:Q => q [X'']>"),
    ("rho_abort", "w [A -> B]", "fun w':A => w [B]"),
    ("rho_abort", "u [A & B]", "<u [A], u [B]>"),
    ("rho_abort", "f [X] [forall X. X & X']", "tfun X'' => f [X] [X'' & X']"),
    ("delta", "m [A -> B] <fun x:P => fun x:A => x, fun y:Q => fun y:A => y>",
     "fun x':A => m [B] <fun x:P => x', fun y:Q => x'>"),
    ("delta",
     "m [A -> B] <fun x:P => fun w:A => x w, fun y:Q => fun z:A => w z>",
     "fun w':A => m [B] <fun x:P => x w', fun y:Q => w w'>"),
    ("delta", "m [A & B] <fun x:P => <x, p>, fun y:Q => <q, y>>",
     "<m [A] <fun x:P => x, fun y:Q => q>, m [B] <fun x:P => p, fun y:Q => y>>"),
    ("delta",
     "m [forall X. X -> X] <fun x:X => tfun Y => p [Y], fun y:Q => tfun Z => q>",
     "tfun X' => m [X' -> X'] <fun x:X => p [X'], fun y:Q => q>"),
]


@pytest.mark.parametrize("rule, redex, contractum", CONTRACTA)
def test_contractum_names(rule, redex, contractum):
    assert print_term(apply_rule(RuleId(rule), pt(redex))) == contractum


# ------------------------------------------ one contraction per redex object

def _rebuilt(t, i, new):
    """t with child i replaced by `new`, in each way a node is rebuilt."""
    field = _SHAPES[t.__class__].kid_fields[i]
    return [_with_child(t, i, new), replace_at(t, (i,), new),
            dataclasses.replace(t, **{field: new})]


def test_a_node_rebuilt_from_a_contracted_redex_contracts_afresh():
    # each child with a free variable renamed: the rebuilt node starts
    # with no contractum, so it contracts as a freshly parsed copy does
    found = (corpus.f_redex_corpus(53, 44, rules_of_system(F))
             + corpus.ipc_redex_corpus(59, 32))
    changed = 0
    for _, t, r in found:
        sub = subterm_at(t, r.position)
        stale = apply_rule(r.rule, sub)
        assert apply_rule(r.rule, sub) is stale
        for i, kid in enumerate(term_children(sub)):
            free = sorted(free_vars(kid))
            if not free:
                continue
            new = subst_term(Var("renamed"), free[0], kid)
            for node in _rebuilt(sub, i, new):
                fresh = pt(print_term(node))
                if match_rule(r.rule, fresh) is None:
                    assert match_rule(r.rule, node) is None
                    continue
                got = print_term(apply_rule(r.rule, node))
                assert got == print_term(apply_rule(r.rule, fresh))
                changed += got != print_term(stale)
    assert changed > 100


def test_a_patched_row_is_obeyed_on_a_contracted_redex(monkeypatch):
    env = Env([("y", pf("X")), ("p", pf("X"))])
    t = pt("(fun x:X => x) y")
    first = apply_rule(RuleId.beta_imp, t)
    [r] = find_redexes(F, env, t, {RuleId.beta_imp})
    row = RULES[RuleId.beta_imp]
    monkeypatch.setitem(RULES, RuleId.beta_imp,
                        row._replace(contract=lambda t: Var("p")))
    assert apply_rule(RuleId.beta_imp, t) == Var("p")
    assert step(F, env, t, r) == Var("p")
    assert apply_script(F, env, t, [(RuleId.beta_imp, ())]).final == Var("p")
    assert Scan(env, t, {RuleId.beta_imp}).after(
        (), RuleId.beta_imp).root.term == Var("p")
    monkeypatch.undo()
    assert apply_rule(RuleId.beta_imp, t) is first


CASES_AT = [
    ("A -> B", "fun z'':A => z [B] <fun x:A => p z'', fun y:B => q z' z''>"),
    ("(A -> B) -> C & (forall X. X -> D)",
     "fun z'':A -> B => <z [C] <fun x:A => p z''.1, fun y:B => q z' z''.1>,"
     " tfun X => fun z''':X => z [D] <fun x:A => p z''.2 [X] z''',"
     " fun y:B => q z' z''.2 [X] z'''>>"),
    ("A & B", "<z [A] <fun x:A => p.1, fun y:B => q z'.1>,"
              " z [B] <fun x:A => p.2, fun y:B => q z'.2>>"),
]


@pytest.mark.parametrize("c, expected", CASES_AT)
def test_mk_case_at_names(c, expected):
    out = mk_case_at(Var("z"), "x", pf("A"), Var("p"), "y", pf("B"),
                     pt("q z'"), pf(c))
    assert print_term(out) == expected


def test_mk_case_at_type_binder_avoids_branch_annotation():
    out = mk_case_at(Var("m"), "x", pf("X"), Var("p"), "y", pf("Q"), Var("q"),
                     pf("forall X. X -> X"))
    assert print_term(out) == \
        "tfun X' => fun z:X' => m [X'] <fun x:X => p [X'] z, fun y:Q => q [X'] z>"


@pytest.mark.parametrize("a, expected", [
    ("A -> B -> C", "fun z':A => fun z':B => z [X] [C]"),
    ("A & (B -> C)", "<z [X] [A], fun z':B => z [X] [C]>"),
    ("forall X. X -> X'", "tfun X'' => fun z':X'' => z [X] [X']"),
])
def test_mk_abort_at_names(a, expected):
    assert print_term(mk_abort_at(pt("z [X]"), pf(a))) == expected


SUM = encode_or(pf("P"), pf("Q"))
EXPANSIONS = [
    ([("s", SUM), ("z", "A -> B"), ("g", "Q -> A -> B")],
     "s [A -> B] <fun x:P => z, fun y:Q => g y>",
     "s [A -> B] <fun x:P => fun z':A => z z', fun y:Q => fun z:A => g y z>",
     "fun z':A => s [B] <fun x:P => z z', fun y:Q => g y z'>"),
    ([("s", SUM), ("z", "P -> A & B"), ("x0", "P")],
     "s [A & B] <fun x:P => z x, fun y:Q => z x0>",
     "s [A & B] <fun x:P => <z x.1, z x.2>, fun y:Q => <z x0.1, z x0.2>>",
     "<s [A] <fun x:P => z x.1, fun y:Q => z x0.1>,"
     " s [B] <fun x:P => z x.2, fun y:Q => z x0.2>>"),
    ([("s", SUM), ("i", "forall X. X -> X"), ("k", "X")],
     "s [forall X. X -> X] <fun x:P => (fun u:X => i) k, fun y:Q => i>",
     "s [forall X. X -> X] <fun x:P => tfun X' => (fun u:X => i) k [X'],"
     " fun y:Q => tfun X => i [X]>",
     "tfun X' => s [X' -> X'] <fun x:P => (fun u:X => i) k [X'],"
     " fun y:Q => i [X']>"),
    ([("z", encode_bot())], "z [A -> B]",
     "fun z':A => z [A -> B] z'", "fun z':A => z [B]"),
    ([("z", encode_bot())], "z [A & B]",
     "<z [A & B].1, z [A & B].2>", "<z [A], z [B]>"),
    ([("f", "forall Y. forall X. X")], "f [X] [forall X. X -> X]",
     "tfun X' => f [X] [forall X. X -> X] [X']", "tfun X' => f [X] [X' -> X']"),
]


@pytest.mark.parametrize("decls, term, expansion_, final", EXPANSIONS,
                         ids=[t for _, t, _, _ in EXPANSIONS])
def test_expand_rho_names(decls, term, expansion_, final):
    env = Env([(x, pf(f) if isinstance(f, str) else f) for x, f in decls])
    t = pt(term)
    rules = {RuleId.rho_case, RuleId.rho_abort}
    [r] = [r for r in find_redexes(F, env, t, rules) if r.fine]
    expanded, trace = expand_rho(env, t, r)
    assert print_term(expanded) == expansion_
    assert print_term(trace.final) == final


def test_expand_rho_type_binder_avoids_the_instantiation():
    # the left branch mentions X, so its type binder is primed; it must
    # also avoid the X' free in C, which the expansion would capture
    env = Env([("h", pf("forall W. ((Y -> W) & (Z -> W)) -> W")),
               ("g", pf("forall X. X -> X'")), ("k", pf("X"))])
    rules = {RuleId.rho_case, RuleId.rho_abort}
    for right, binder in (("g", "X"), ("(fun v:X => g) k", "X''")):
        t = pt("h [forall X. X -> X'] "
               f"<fun a:Y => (fun u:X => g) k, fun b:Z => {right}>")
        [r] = [r for r in find_redexes(F, env, t, rules) if r.fine]
        expanded, trace = expand_rho(env, t, r)
        assert print_term(expanded) == (
            "h [forall X. X -> X'] <fun a:Y => tfun X'' => (fun u:X => g) k"
            f" [X''], fun b:Z => tfun {binder} => {right} [{binder}]>")
        assert print_term(trace.final) == (
            "tfun X'' => h [X'' -> X'] <fun a:Y => (fun u:X => g) k [X''],"
            f" fun b:Z => {right} [X'']>")
    # with no binder named after a type variable of the environment, the
    # expansion types under the strict proviso
    assert typecheck(F, env, expanded, strict_proviso=True) == \
        typecheck(F, env, t)
