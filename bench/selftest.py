"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Runs every workload end to end, untraced and traced, on a tiny recipe,
and checks that the result line carries every metric BENCHMARK.json
names, and that a traced layer whose callable is gone is reported as
absent instead of failing. Then it tampers with valid outputs and checks that each output
check fires: a perturbed score, a non-finite score, a flipped flag cell,
and a constrained-search output with one constraint removed. Exits 0
when every case behaves, 1 otherwise.
"""

import contextlib
import dataclasses
import io
import json
import os
import sys
import tempfile

import run

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")

TINY_RECIPE = {"split_sizes": (24, 6, 6), "epochs": 1, "dim": 16,
               "heads": 2, "enc_layers": 1, "dec_layers": 1, "ff": 32}
TINY_INPUT_SPLIT_SIZES = (24, 6, 60)


def run_workload(name, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace)])
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def tampered(out, checker, rec, x_tokens):
    """(case, tampered output, check that must fire) triples."""
    from restate import flags

    flipped = out.flag_matrix.copy()
    flipped[0, -1] = 1 if flipped[0, -1] != 1 else 2
    cases = [
        ("perturbed score", dataclasses.replace(out, score=out.score + 1e-6),
         "score_differs_from_rescoring"),
        ("non-finite score", dataclasses.replace(out, score=float("nan")),
         "score_not_finite"),
        ("flipped flag cell", dataclasses.replace(out, flag_matrix=flipped),
         "flags_differ_from_replay"),
    ]
    # drop the first constraint's tokens, then make flags and score agree
    # with the shorter output so only the constraint check can object
    first = [x_tokens[i] for i in rec["constraint_rows"][0]]
    toks = list(out.tokens)
    for i in range(len(toks) - len(first) + 1):
        if toks[i:i + len(first)] == first:
            del toks[i:i + len(first)]
            break
    m = flags.replay_flags(x_tokens, [tuple(r) for r in rec["constraint_rows"]],
                           toks, checker.config, scorer=checker.scorer)
    short = dataclasses.replace(out, tokens=toks, flag_matrix=m.matrix())
    short = dataclasses.replace(short, score=checker.rescore(rec, short))
    cases.append(("constraint removed", short, "constraint_missing"))
    return cases


def main():
    run._import_program()
    import workloads as wl
    from checks import Checker, Output

    wl.RECIPE.update(TINY_RECIPE)
    wl.INPUT_SPLIT_SIZES = TINY_INPUT_SPLIT_SIZES
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    wanted = {0: {m["name"] for m in spec["end_to_end"]},
              1: {m["name"] for m in spec["per_layer"]}}
    problems = []

    for name in wl.WORKLOADS:
        for trace in (0, 1):
            code, result = run_workload(name, trace)
            missing = wanted[trace] - set(result["metrics"])
            print("selftest: %-16s trace %d exit %d correct %s missing %s"
                  % (name, trace, code, result["correct"],
                     sorted(missing)))
            if code != 0 or not result["correct"] or missing:
                problems.append("%s trace %d" % (name, trace))

    # a layer whose module or callable is gone is reported, not fatal
    import tracing
    gone = [("gone.module", "restate.gone", None, "f"),
            ("gone.callable", "restate.decode", None, "no_such_function")]
    tracing.LAYERS.extend(gone)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.uninstall()
    finally:
        del tracing.LAYERS[-len(gone):]
    print("selftest: absent layers %s" % tracer.absent)
    if tracer.absent != [name for name, *_ in gone]:
        problems.append("absent layers reported as %s" % tracer.absent)

    workload = wl.WORKLOADS["cbs_semantic"]
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as workdir:
        bench = wl.setup_decode(workload, 3, workdir)
    checker = Checker(bench.model, bench.config, constrained=True)
    for inst, rec in bench.inputs:
        out = Output.of(inst.id, wl.run_one(bench, rec))
        if out.finished and not out.unsatisfiable:
            break
    else:
        problems.append("no finished constrained output to tamper with")
        out = None
    if out is not None:
        if checker.failures(rec, out):
            problems.append("the untampered output fails its checks")
        for case, bad, check in tampered(out, checker, rec, rec["x_tokens"]):
            fired = checker.failures(rec, bad)
            print("selftest: %-18s fired %s" % (case, fired))
            if check not in fired:
                problems.append("%s did not fire %s" % (case, check))

    for p in problems:
        print("selftest: FAILED %s" % p)
    print("selftest: %s" % ("ok" if not problems else "FAILED"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
