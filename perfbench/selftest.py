"""Self-test of the benchmark's counts and its traced run.

    python3 -m pytest -q perfbench/selftest.py

Not part of the repository's test suite: the hand-worked counts below
describe today's engine and change when the engine's algorithm does.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

gen, tracing, workloads = run._load()

import atomlam  # noqa: E402  (from the checkout's src/, put on the path by _load)
import atomlam.analysis  # noqa: E402
import atomlam.diagram  # noqa: E402
import atomlam.syntax  # noqa: E402

assert Path(atomlam.__file__).resolve().parent == run.SRC / "atomlam"

COUNT_UNITS = ("count", "bytes")


def _traced_counts(workload, seed):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=170)
    doc = json.loads(out.stdout.splitlines()[-1])
    assert doc["correct"] and doc["failed"] == 0
    return {k: v["value"] for k, v in doc["metrics"].items()
            if v["unit"] in COUNT_UNITS}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_across_runs_of_one_seed(workload):
    first = _traced_counts(workload, 11)
    assert first == _traced_counts(workload, 11)
    assert first["rules.match_rule.calls"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_pass_matches_untraced_pass(workload):
    items = gen.make_rounds(workload, 12, 1)[0]
    _, oks, plain, plain_out = run._pass(workloads, workload, items)
    tracer = tracing.Tracer()
    _, traced_oks, traced, traced_out = run._pass(workloads, workload, items, tracer)
    assert tracer._patched == []
    assert all(oks) and all(traced_oks)
    assert traced == plain
    assert not tracer.absent
    if workload == "atomize":
        steps = sum(out[1] for out in plain_out)
        assert tracer.counts["analysis.atomic_nf.steps"] == steps
    if workload == "diagram":
        legs = sum(len(leg.steps) for d in plain_out for leg in d.legs.values())
        assert tracer.counts["diagram.leg_steps"] == legs
    if workload == "cli-mix":
        stdout_bytes = lambda outs: sum(len(text.encode()) for _, text in outs)
        assert stdout_bytes(traced_out) == stdout_bytes(plain_out)
    again = tracing.Tracer()
    run._pass(workloads, workload, items, again)
    assert run._calls(again.per_function()) == run._calls(tracer.per_function())
    assert again.counts == tracer.counts


def test_tracer_restores_every_binding():
    before = (atomlam.find_redexes, atomlam.diagram.search_beta_eta,
              atomlam.syntax._Node.__dict__["__eq__"])
    tracer = tracing.Tracer()
    tracer.install()
    assert atomlam.diagram.search_beta_eta is not before[1]
    tracer.uninstall()
    assert (atomlam.find_redexes, atomlam.diagram.search_beta_eta,
            atomlam.syntax._Node.__dict__["__eq__"]) == before


def test_smallest_rung_counts_by_hand():
    """case^1/1, in any variant. Its rp image (12 nodes) is

        r [C] <fun y:Q => u [C], fun x:P => fun z:P => <x, z>>,  C = P -> P & P

    (or the unmirrored twin over s). Its fine redexes are rho_case at the
    root and rho_abort on u [C]; rho_abort also matches r [C], whose head
    has the sum type, so that match is not fine.
    """
    env, m, _ = gen.ladder_item(random.Random(3), 1, 1)
    item = {"env": env, "term": m, "expect_nf": atomlam.at_term(m)}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ok, (nf, steps, pairs) = workloads.run_atomize(item)
    finally:
        tracer.uninstall()
    calls = run._calls(tracer.per_function())
    assert ok
    # Fine steps: rho_case splits C at "->" and again at "&", which copies
    # the abort branch once per conjunct; each copy of u [C] then takes
    # rho_abort at "->" and at "&": 2 + 2 * 2.
    assert steps == 6 == tracer.counts["analysis.atomic_nf.steps"]
    # One pair of fine redexes for the confluence check.
    assert pairs == 1
    # weight: once up front, then once per step to check the decrease.
    assert calls["analysis.weight"] == 1 + 6
    # find_redexes: normalize scans the start term and each of the 6
    # results; the confluence check scans the start term, and its join
    # search expands each side once (side b's first successor is already
    # in side a's seen-set).
    assert calls["rewriting.find_redexes"] == 7 + 1 + 2
    # Redexes found, (all, fine) per scan. normalize, by node count of the
    # scanned term: 12: (3, 2), 17: (3, 2), 38: (2, 2), 39: (2, 2),
    # 42: (1, 1), 43: (1, 1), 46: (0, 0). Confluence start term (3, 2);
    # join search: contracted by rho_case, 17 nodes (3, 2); contracted by
    # rho_abort, 13 nodes (3, 2).
    assert tracer.counts["rewriting.redexes_found"] == 12 + 3 + 3 + 3
    assert tracer.counts["rewriting.redexes_fine"] == 10 + 2 + 2 + 2
    # Contractions: 6 normalization steps, the 2 sides of the pair, and 3
    # join steps (side a's 2 successors, side b's first).
    assert calls["rewriting.step"] == calls["rules.apply_rule"] == 6 + 2 + 3
    # match_rule: 2 atomization rules at every scanned node, plus one call
    # per redex found (is_fine_redex) and two per contraction (step checks
    # the match, apply_rule checks it again). Scanned nodes:
    # 12+17+38+39+42+43+46 (normalize) + 12 (confluence) + 17+13 (join).
    nodes = (12 + 17 + 38 + 39 + 42 + 43 + 46) + 12 + (17 + 13)
    assert calls["rules.match_rule"] == 2 * nodes + 21 + 2 * 11


def test_deleted_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(atomlam.analysis, "search_beta_eta")
    items = gen.make_rounds("cli-mix", 13, 1)[0]
    elapsed, oks, _, _ = run._pass(workloads, "cli-mix", items)
    tracer = tracing.Tracer()
    traced_s, traced_oks, _, outputs = run._pass(workloads, "cli-mix", items, tracer)
    assert all(oks) and all(traced_oks)
    assert tracer.absent == ["analysis.search_beta_eta"]
    metrics = run.per_layer(gen, items, (tracer, outputs),
                            [(tracer.per_function(), tracer.counts, traced_s)],
                            [elapsed])
    assert not any(name.startswith("analysis.search_beta_eta") for name in metrics)
    assert metrics["cli.main.self_s"][0] > 0
