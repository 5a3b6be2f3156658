"""Every operation is safe for concurrent use: threads running the engine
on one shared set of terms get exactly what a sequential run gets."""

import sys
import threading

from atomlam import (RuleId, SystemId, atomic_nf, build_diagram,
                     check_local_confluence, normalize, print_formula,
                     print_term, rp_env, rp_term)
from atomlam.cli import build_parser
from atomlam.diagram import OR_BOT_RULES

import corpus

RHO = {RuleId.rho_case, RuleId.rho_abort}


def _in_threads(run, count=4):
    """run(k) in `count` threads at once, switching often; each finished."""
    threads = [threading.Thread(target=run, args=(k,)) for k in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)


def _suite():
    # built afresh per call: the threads get terms that no run has touched
    return corpus.f_corpus(151, 25) + [
        (rp_env(env), rp_term(t)) for env, t in corpus.ipc_corpus(157, 25)]


def _steps(trace):
    return [(s.rule, s.position, s.fine, print_term(s.result),
             [(name, print_formula(f)) for name, f in s.local_env.items()])
            for s in trace.steps]


def _work(env, t):
    _, trace = atomic_nf(env, t, strategy="random", seed=5)
    inner = normalize(SystemId.F, env, t, RHO, strategy="leftmost-innermost")
    report = check_local_confluence(env, t)
    return (_steps(trace), trace.weights, _steps(inner),
            [(p.left, p.right, p.joined) for p in report.pairs])


def _race(work, make):
    """work(*item) over make()'s items in four threads at once, odd ones in
    reverse order, against a sequential run over items built afresh; the
    sequential results."""
    expected = [work(*item) for item in make()]
    shared = make()
    results = [[None] * len(shared) for _ in range(4)]
    errors = []

    def run(k):
        order = list(range(len(shared)))
        if k % 2:
            order.reverse()
        try:
            for i in order:
                results[k][i] = work(*shared[i])
        except Exception as e:  # reported below, with the thread's result
            errors.append(e)

    _in_threads(run)
    assert errors == []
    for got in results:
        assert got == expected
    return expected


def test_threads_on_shared_terms_match_a_sequential_run():
    _race(_work, _suite)


def _diagrams():
    # built afresh per call, like _suite: three redexes per disjunction or
    # absurdity rule, each embedded in a small context
    return corpus.ipc_redex_corpus(163, 30, OR_BOT_RULES)


def _diagram_work(env, t, r):
    d = build_diagram(env, t, r)
    return (d.verify(), [print_term(d.corner(name)) for name in
                         ("m_rp", "n_rp", "m_at", "n_at", "q1", "q2")],
            sorted((name, len(leg.steps)) for name, leg in d.legs.items()),
            d.notes)


def test_threads_building_diagrams_share_each_contraction():
    # every thread contracts the same redex objects, and each row keeps
    # its contractum on the node: the legs and corners are a sequential
    # run's
    expected = _race(_diagram_work, _diagrams)
    assert all(problems == [] for problems, _, _, _ in expected)


# command lines over every subcommand and flag kind: choices, appended and
# typed values, store_true, required flags and the positional term
_ARGVS = [
    ["check", "--sys", "f", "--env", "z:forall X.X", "z [X]"],
    ["check", "x", "--format", "json", "--env", "x:X"],
    ["reduce", "--sys", "f", "--rules", "rho_abort", "--env", "z:forall X.X",
     "--env", "y:Y", "--strategy", "random", "--seed", "7", "--max-steps",
     "3", "z [X & X]"],
    ["reduce", "--rules", "beta_imp", "--verify", "(fun x:X => x) y"],
    ["translate", "--target", "at", "abort[X -> Y] m"],
    ["nf", "--strategy", "li", "--file", "term.txt"],
    ["weight", "--env-file", "env.txt", "z [X]", "--format", "json"],
    ["simulate", "--rule", "beta_or", "--pos", "0,1", "--env", "a:X", "a"],
    ["diagram", "--rule", "eta_or", "s", "--env", "s:X | Y", "--verify"],
]


def _parsed(parser, argv):
    # a snapshot: a list that a later parse appends to would still compare equal
    return repr(sorted(vars(parser.parse_args(argv)).items()))


def test_threads_share_the_cli_parser():
    parser, parses = build_parser(), 3000
    expected = [_parsed(parser, argv) for argv in _ARGVS]
    results = [[] for _ in range(4)]
    errors = []

    def run(k):
        try:
            for r in range(parses):
                i = (k + r) % len(_ARGVS)
                results[k].append((i, _parsed(parser, _ARGVS[i])))
        except Exception as e:  # reported below, with the thread's result
            errors.append(e)

    _in_threads(run)
    assert errors == []
    for got in results:
        assert len(got) == parses
        assert all(ns == expected[i] for i, ns in got)
