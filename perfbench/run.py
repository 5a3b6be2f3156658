"""atomlam benchmark: one workload per run, a closed loop with one client.

    python3 perfbench/run.py --workload {atomize,diagram,cli-mix} \
        --seed N --seconds S --trace {0,1}

Run from anywhere; the package is imported from `src/` next to this
directory. Inputs are generated from --seed (gen.py). Every item's output
is checked (workloads.py); a failing or raising item is counted and the
run goes on.

--trace 0 runs items, one after another, in whole rounds until --seconds
have passed and prints the end-to-end metrics. --trace 1 instead runs a
fixed prefix of the corpus in alternating untraced and traced passes
(tracing.py) for --seconds, checks that every pass gives identical item
outputs, writes the spans of the first traced pass under .perfbench_out/
and prints the per-layer metrics. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import os
import sys
import time

if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    # Pin string hashing: dict and set layouts then repeat from run to run,
    # which keeps counts exact across processes and removes about 10% of
    # run-to-run time noise. exec replaces this process; it starts none.
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable] + sys.argv)

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("atomize", "diagram", "cli-mix")
# distinct rounds generated per run, and rounds in the traced prefix
CORPUS_ROUNDS = {"atomize": 8, "diagram": 18, "cli-mix": 60}
TRACE_ROUNDS = {"atomize": 1, "diagram": 1, "cli-mix": 15}
SETUP_REPEATS = 3


def _warmup_items(workload, first_round):
    if workload == "atomize":
        return [it for it in first_round if it["rung"] == "1/1"]
    return first_round


def _load():
    """Import atomlam from this checkout's src/ and the benchmark modules."""
    if not (SRC / "atomlam" / "__init__.py").is_file():
        sys.exit(f"perfbench: no atomlam package under {SRC}; "
                 "run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import atomlam
    if Path(atomlam.__file__).resolve().parent != SRC / "atomlam":
        sys.exit(f"perfbench: imported atomlam from {atomlam.__file__}, "
                 f"not from {SRC}")
    import gen
    import tracing
    import workloads
    return gen, tracing, workloads


class ItemError:
    """Output of an item that raised."""

    def __init__(self, exc):
        self.text = f"error: {type(exc).__name__}: {exc}"


def _run_item(run, item):
    try:
        return run(item)
    except Exception as e:  # an item that raises is a failed item
        return False, ItemError(e)


def setup(gen, workloads, workload, seed):
    """Generate the inputs and warm up; repeated, and the median reported."""
    run, _ = workloads.RUNNERS[workload]
    times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        rounds = gen.make_rounds(workload, seed, CORPUS_ROUNDS[workload])
        for item in _warmup_items(workload, rounds[0]):
            _run_item(run, item)
        times.append(time.perf_counter() - t)
    return rounds, statistics.median(times)


def timed_loop(workloads, workload, rounds, seconds):
    """Whole rounds until `seconds` have passed: (latencies, failed)."""
    run, _ = workloads.RUNNERS[workload]
    clock = time.perf_counter
    latencies, failed = [], 0
    start = clock()
    r = 0
    while True:
        for item in rounds[r % len(rounds)]:
            t = clock()
            ok, _ = _run_item(run, item)
            latencies.append(clock() - t)
            failed += not ok
        r += 1
        if clock() - start >= seconds:
            break
    return latencies, failed, clock() - start


def end_to_end(args, gen, workloads):
    import_s = time.perf_counter() - _T0
    rounds, setup_once = setup(gen, workloads, args.workload, args.seed)
    # the inputs live for the whole run: keep the collector from rescanning them
    gc.collect()
    gc.freeze()
    latencies, failed, elapsed = timed_loop(workloads, args.workload, rounds,
                                            args.seconds)
    n = len(latencies)
    deciles = statistics.quantiles(latencies, n=10)
    metrics = {
        "setup_s": (import_s + setup_once, "s"),
        "items_per_s": (n / elapsed, "1/s"),
        "item_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "item_p90_ms": (deciles[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"samples = {n} items ({n - int(n * 0.9)} beyond p90) "
          f"in {elapsed:.2f} s")
    print(f"failed_ratio = {failed / n:.6g} ratio ({failed} failed of {n} attempted)")
    return failed == 0, n, failed, metrics


# ------------------------------------------------------------ traced run

def _pass(workloads, workload, items, tracer=None):
    run, digest = workloads.RUNNERS[workload]
    outputs, oks = [], []
    clock = time.perf_counter
    if tracer is not None:
        tracer.install()
    start = clock()
    try:
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.item_id = i
            ok, out = _run_item(run, item)
            oks.append(ok)
            outputs.append(out)
    finally:
        elapsed = clock() - start
        if tracer is not None:
            tracer.uninstall()
    digests = [out.text if isinstance(out, ItemError) else digest(out)
               for out in outputs]
    return elapsed, oks, digests, outputs


def _us_per_step(tracer, items, outputs, rung):
    """Microseconds per fine step of atomic_nf on the items of one rung."""
    ids = {i for i, it in enumerate(items)
           if it.get("rung") == rung and not isinstance(outputs[i], ItemError)}
    steps = sum(outputs[i][1] for i in ids)
    spent = sum(d for i, d in tracer.spans_for("analysis.atomic_nf") if i in ids)
    return spent / steps * 1e6 if steps else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


PER_FUNCTION = (  # (metric, function prefix, "calls" | "self_s")
    ("rewriting.find_redexes.calls", "rewriting.find_redexes", "calls"),
    ("rewriting.find_redexes.self_s", "rewriting.find_redexes", "self_s"),
    ("rewriting.step.self_s", "rewriting.step", "self_s"),
    ("rewriting.apply_script.self_s", "rewriting.apply_script", "self_s"),
    ("rewriting.env_at.self_s", "rewriting.env_at", "self_s"),
    ("rewriting.replay.self_s", "rewriting.replay", "self_s"),
    ("analysis.weight.calls", "analysis.weight", "calls"),
    ("analysis.weight.self_s", "analysis.weight", "self_s"),
    ("analysis.check_local_confluence.self_s", "analysis.check_local_confluence", "self_s"),
    ("analysis.search_beta_eta.calls", "analysis.search_beta_eta", "calls"),
    ("analysis.search_beta_eta.self_s", "analysis.search_beta_eta", "self_s"),
    ("analysis.simulate_step.self_s", "analysis.simulate_step", "self_s"),
    ("typecheck.typecheck.calls", "typecheck.typecheck", "calls"),
    ("typecheck.typecheck.self_s", "typecheck.typecheck", "self_s"),
    ("typecheck.is_fine_redex.calls", "typecheck.is_fine_redex", "calls"),
    ("syntax.eq.calls", "syntax.eq", "calls"),
    ("syntax.eq.self_s", "syntax.eq", "self_s"),
    ("syntax.hash.calls", "syntax.hash", "calls"),
    ("syntax.canonical_key.calls", "syntax.canonical_key", "calls"),
    ("syntax.subst_term.calls", "syntax.subst_term", "calls"),
    ("syntax.subst_term.self_s", "syntax.subst_term", "self_s"),
    ("syntax.free_vars.calls", "syntax.free_vars", "calls"),
    ("syntax.replace_at.self_s", "syntax.replace_at", "self_s"),
    ("rules.match_rule.calls", "rules.match_rule", "calls"),
    ("rules.apply_rule.calls", "rules.apply_rule", "calls"),
    ("translate.rp_term.self_s", "translate.rp_term", "self_s"),
    ("translate.at_term.self_s", "translate.at_term", "self_s"),
    ("surface.parse_term.calls", "surface.parse_term", "calls"),
    ("surface.parse_term.self_s", "surface.parse_term", "self_s"),
    ("surface.print_term.calls", "surface.print_term", "calls"),
    ("surface.print_term.self_s", "surface.print_term", "self_s"),
    ("diagram.build_diagram.self_s", "diagram.build_diagram", "self_s"),
    ("diagram.verify.self_s", "diagram.verify", "self_s"),
    ("diagram.bridge_script.self_s", "diagram.bridge_script", "self_s"),
    ("cli.main.self_s", "cli.main", "self_s"),
)


def _calls(funcs):
    return {prefix: calls for prefix, (calls, _, _) in funcs.items()}


def per_layer(gen, items, first, passes, untraced_times):
    """Per-layer metrics: counts from the first traced pass (`first` is its
    tracer and item outputs), self times as the median over `passes`."""
    tracer, outputs = first
    funcs = [f for f, _, _ in passes]
    counts = tracer.counts
    out = {}
    for metric, prefix, kind in PER_FUNCTION:
        if prefix not in funcs[0]:
            continue
        if kind == "calls":
            out[metric] = (funcs[0][prefix][0], "count")
        else:
            out[metric] = (statistics.median(f[prefix][2] for f in funcs), "s")
    present = set(funcs[0])
    if "rewriting.find_redexes" in present:
        out["rewriting.redexes_found"] = (counts["rewriting.redexes_found"], "count")
        out["rewriting.fine_ratio"] = (_ratio(counts["rewriting.redexes_fine"],
                                              counts["rewriting.redexes_found"]), "ratio")
    if "analysis.atomic_nf" in present:
        out["analysis.atomic_nf.steps"] = (counts["analysis.atomic_nf.steps"], "count")
        for size, (d, k) in (("small", gen.RUNGS[0]), ("large", gen.RUNGS[-1])):
            out[f"analysis.atomic_nf.us_per_step.{size}"] = (
                _us_per_step(tracer, items, outputs, f"{d}/{k}"), "us")
    if "analysis.search_beta_eta" in present:
        out["analysis.search_beta_eta.found_ratio"] = (
            _ratio(counts["analysis.search_beta_eta.found"],
                   funcs[0]["analysis.search_beta_eta"][0]), "ratio")
    if present & {"surface.print_term", "surface.print_formula"}:
        out["surface.bytes_out"] = (counts["surface.bytes_out"], "bytes")
    if "diagram.build_diagram" in present:
        out["diagram.leg_steps"] = (counts["diagram.leg_steps"], "count")
    out["trace.overhead_ratio"] = (
        statistics.median(elapsed for _, _, elapsed in passes)
        / statistics.median(untraced_times), "ratio")
    return out


def traced(args, gen, tracing, workloads):
    rounds = gen.make_rounds(args.workload, args.seed, TRACE_ROUNDS[args.workload])
    items = [it for rnd in rounds for it in rnd]
    for item in _warmup_items(args.workload, rounds[0]):
        _run_item(workloads.RUNNERS[args.workload][0], item)
    reference, first, problems = None, None, []
    untraced_times, passes = [], []   # passes: (funcs, counts, seconds)
    attempted = failed = 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        for tracer in (None, tracing.Tracer()):
            elapsed, oks, digests, outputs = _pass(workloads, args.workload,
                                                   items, tracer)
            attempted += len(oks)
            failed += oks.count(False)
            if reference is None:
                reference = digests
            elif digests != reference:
                problems.append("item outputs differ between passes")
            if tracer is None:
                untraced_times.append(elapsed)
                continue
            funcs = tracer.per_function()
            if passes and (_calls(funcs), tracer.counts) != (_calls(passes[0][0]),
                                                             passes[0][1]):
                problems.append("call counts differ between traced passes")
            passes.append((funcs, tracer.counts, elapsed))
            if first is None:
                first = (tracer, outputs)
                out_dir = ROOT / ".perfbench_out"
                out_dir.mkdir(exist_ok=True)
                tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.tsv")
    metrics = per_layer(gen, items, first, passes, untraced_times)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    absent = first[0].absent
    print(f"traced passes = {len(passes)} over {len(items)} items; "
          f"absent: {', '.join(absent) if absent else 'none'}")
    for p in sorted(set(problems)):
        print(f"problem: {p}")
    return not problems and failed == 0, attempted, failed, metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    gen, tracing, workloads = _load()
    if args.trace:
        correct, attempted, failed, metrics = traced(args, gen, tracing, workloads)
    else:
        correct, attempted, failed, metrics = end_to_end(args, gen, workloads)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
