"""Benchmark of restate, driven from outside the package.

    python3 bench/run.py --workload greedy_semantic --seed 1 --seconds 10 --trace 0

Run from the repository root. Set-up trains the recipe checkpoint
(three times; setup_s is the median), the measured loop decodes (or
trains) for --seconds with a reference kernel between items that scales
the throughput to a nominal host (calibration.py), and every output is
checked afterwards. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. Progress
and the run record (machine, recipe, sample counts, digests) go to the
lines before it and to .bench_out/. Exit code 0 when every check
passes, 1 when one fails, 2 when the benchmark cannot run at all.
"""

import os

# One BLAS thread, set before numpy loads, so every commit runs the same
# arithmetic in the same order.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import json
import math
import platform
import resource
import statistics
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")

DEFAULT_SEED = 1
# Claims made on DEFAULT_SEED must also hold on this seed.
HELDOUT_SEED = 2
# Set-ups per untraced run; setup_s is their median.
SETUP_REPEATS = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
# End-to-end figures kept in the run record but not gated, with units.
RECORDED = {"instances_per_s": "1/s", "instance_ms_p50": "ms",
            "output_token_ms": "ms", "epoch_s": "s", "bleu": "BLEU",
            "coverage_lexical": "ratio", "fail_rate": "ratio"}


def _import_program():
    """Put the checkout's src/ first on the path and import the program."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "restate", "__init__.py")):
        raise ImportError("no restate package under %s" % src)
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import restate  # noqa: F401


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="workload seed (default %d; held-out seed %d)"
                        % (DEFAULT_SEED, HELDOUT_SEED))
    p.add_argument("--seconds", type=float, default=10.0,
                   help="length of the measured loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics, tracing every item "
                        "once more right beside its untraced run")
    return p.parse_args(argv)


def machine():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "platform": platform.platform()}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(samples_ms):
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(samples_ms)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            return {"percentile": p, "ms": float(np.percentile(samples_ms, p)),
                    "samples": n}
    return None


def quality(outputs, pairs):
    """Quality of the leading outputs against gold.

    output_nll, the mean length-normalized negative log-likelihood that
    beam and constrained search minimise, is gated: it never reads 0 and
    barely moves between seeds. BLEU and verbatim constraint coverage are
    recorded only, because beam outputs of one or two tokens put both at
    or near 0. build_report is not used: it rejects empty outputs.
    """
    from restate.evaluation import bleu, coverage_audit
    from restate.vocab import tokenize
    hyps = [out.tokens if out else [] for out in outputs]
    instances = [inst for inst, _ in pairs]
    cov = coverage_audit([{"id": inst.id, "output_tokens": h}
                          for h, inst in zip(hyps, instances)], instances)
    nll = [-out.normalized_score for out in outputs if out]
    return {"output_nll": statistics.fmean(nll) if nll else 0.0,
            "bleu": bleu(hyps, [tokenize(i.target) for i in instances]),
            "coverage_lexical": cov["lexical"]}


def check_all(checker, outputs, pairs, errors):
    """Run every output check; returns (item, reason) pairs."""
    failures = list(errors)
    for out, (inst, rec) in zip(outputs, pairs):
        if out is not None:
            failures += [(inst.id, name) for name in checker.failures(rec, out)]
    return failures


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def timed_setups(make, repeats):
    """Set up `repeats` times; returns the last set-up and the seconds
    each took."""
    seconds, obj = [], None
    for _ in range(repeats):
        obj = None  # let the previous set-up go before building the next
        t0 = time.perf_counter()
        obj = make()
        seconds.append(time.perf_counter() - t0)
    return obj, seconds


def run_decode(args, workload, workdir, tracer):
    import workloads as wl
    from calibration import HostClock
    from checks import Checker, digest

    bench, setup_s = timed_setups(
        lambda: wl.setup_decode(workload, args.seed, workdir),
        1 if tracer else SETUP_REPEATS)
    clock = HostClock()
    if tracer is None:
        loop = wl.decode_loop(bench, args.seconds, clock)
    else:
        loop, traced = wl.paired_decode_loop(bench, args.seconds, tracer)
    n = len(loop.outputs)
    pairs = bench.inputs[:n]
    record = {"setup_s_samples": setup_s, "instances": n,
              "checkpoint_epoch_samples": len(bench.checkpoint.epoch_s)}

    checker = Checker(bench.model, bench.config, workload.decoder == "cbs")
    failures = check_all(checker, loop.outputs, pairs, loop.errors)
    record["outputs_sha256"] = digest([o for o in loop.outputs if o])
    q = workload.quality_n
    record["quality_sha256"] = digest([o for o in loop.outputs[:q] if o])
    record["quality_instances"] = q

    if tracer is not None:
        record["traced_outputs_sha256"] = digest(
            [o for o in traced.outputs if o])
        if record["traced_outputs_sha256"] != record["outputs_sha256"]:
            failures.append(("trace", "outputs differ from untraced outputs"))
        metrics = tracer.layer_metrics(n, loop.wall_s, traced.wall_s)
        return metrics, record, n, failures

    ok = [(o, s) for o, s in zip(loop.outputs, loop.item_s) if o]
    item_ms = [s * 1e3 for s in loop.item_s]
    qual = quality(loop.outputs[:q], pairs[:q])
    record.update(bleu=qual["bleu"], coverage_lexical=qual["coverage_lexical"],
                  host_clock=clock.record(),
                  instances_per_s=n / clock.work_s,
                  instance_ms_p50=statistics.median(item_ms),
                  instance_ms_tail=tail(item_ms),
                  output_token_ms=sum(s for _, s in ok) * 1e3
                  / max(1, sum(o.chosen_tokens() for o, _ in ok)),
                  epoch_s=statistics.median(bench.checkpoint.epoch_s))
    metrics = {
        "setup_s": metric(statistics.median(setup_s), "s"),
        "norm_instances_per_s": metric(clock.per_nominal_s(n), "1/s"),
        "final_loss": metric(bench.checkpoint.final_loss, "nats"),
        "output_nll": metric(qual["output_nll"], "nats"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    return metrics, record, n, failures


def run_train(args, workload, tracer):
    import workloads as wl
    from calibration import HostClock
    from checks import Checker

    bench, setup_s = timed_setups(lambda: wl.setup_train(workload, args.seed),
                                  1 if tracer else SETUP_REPEATS)
    clock = HostClock()
    if tracer is None:
        loop = wl.train_loop(bench, args.seconds, clock)
    else:
        loop, traced = wl.paired_train_loop(bench, args.seconds, tracer)
    rounds = len(loop.runs)
    epochs = sum(len(r.epoch_s) for r in loop.runs)
    failures = []
    first = loop.runs[0]
    for i, (run, dig) in enumerate(zip(loop.runs, loop.digests)):
        if not all(math.isfinite(x) for x in run.losses):
            failures.append(("round %d" % i, "non-finite loss"))
        if run.losses != first.losses or dig != loop.digests[0]:
            failures.append(("round %d" % i, "training is not deterministic"))
    record = {"setup_s_samples": setup_s, "rounds": rounds,
              "epoch_samples": epochs,
              "step_samples": sum(len(r.step_s) for r in loop.runs),
              "params_sha256": loop.digests[0]}

    # quality: the CLI's default decoding with the trained model, checked
    # like the output of any decode workload
    greedy = dataclasses.replace(wl.WORKLOADS["greedy_semantic"],
                                 quality_n=len(bench.quality_inputs))
    config = wl.satisfier(greedy.mode)
    decoding = wl.DecodeBench(greedy, loop.model, config,
                              wl.scorer_for(config), bench.quality_inputs, None)
    quality_loop = wl.decode_loop(decoding, 0)
    decoded = quality_loop.outputs
    failures += check_all(Checker(loop.model, config, False), decoded,
                          bench.quality_inputs, quality_loop.errors)
    attempted = rounds + len(decoded)

    if tracer is not None:
        record["traced_params_sha256"] = traced.digests[0]
        if set(traced.digests) != {loop.digests[0]}:
            failures.append(("trace", "training differs from untraced"))
        metrics = tracer.layer_metrics(
            sum(len(r.epoch_s) for r in traced.runs), loop.wall_s,
            traced.wall_s)
        return metrics, record, attempted, failures

    step_s = [s for r in loop.runs for s in r.step_s]
    epoch_s = [s for r in loop.runs for s in r.epoch_s]
    qual = quality(decoded, bench.quality_inputs)
    record.update(bleu=qual["bleu"], coverage_lexical=qual["coverage_lexical"],
                  instance_ms_p50=statistics.median(step_s) * 1e3,
                  instance_ms_tail=tail([s * 1e3 for s in step_s]),
                  output_token_ms=sum(step_s) * 1e3
                  / (epochs * wl.target_tokens(bench.examples)),
                  epoch_s=statistics.median(epoch_s))
    n_examples = epochs * len(bench.examples)
    record.update(host_clock=clock.record(),
                  instances_per_s=n_examples / clock.work_s)
    metrics = {
        "setup_s": metric(statistics.median(setup_s), "s"),
        "norm_instances_per_s": metric(clock.per_nominal_s(n_examples),
                                       "1/s"),
        "final_loss": metric(first.final_loss, "nats"),
        "output_nll": metric(qual["output_nll"], "nats"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    return metrics, record, attempted, failures


def main(argv=None):
    try:
        _import_program()
        import workloads as wl
    except ImportError as exc:
        print("bench: cannot import the program: %s" % exc, file=sys.stderr)
        return 2
    args = parse_args(argv, wl.WORKLOADS)
    workload = wl.WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.enabled = True

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        if workload.decoder is None:
            metrics, record, attempted, failures = run_train(
                args, workload, tracer)
        else:
            metrics, record, attempted, failures = run_decode(
                args, workload, workdir, tracer)

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    if tracer is not None:
        tracer.uninstall()
        tracer.save(os.path.join(OUT_DIR, "spans-%s.npz" % tag))
        record["absent_layers"] = tracer.absent
    failed = len({item for item, _ in failures})
    record["fail_rate"] = failed / max(attempted, 1)
    result = {"correct": not failures, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    full = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "machine": machine(), "recipe": wl.RECIPE,
            "decoding": wl.DECODING,
            "input_split_sizes": wl.INPUT_SPLIT_SIZES,
            "record": record, "failures": failures, "result": result}
    with open(os.path.join(OUT_DIR, "result-%s.json" % tag), "w") as fh:
        json.dump(full, fh, indent=2, sort_keys=True, default=list)
        fh.write("\n")
    for item, reason in failures:
        print("bench: FAILED %s: %s" % (item, reason))
    print("bench: run %s" % json.dumps(
        {k: full[k] for k in ("workload", "seed", "seconds", "machine",
                              "recipe", "decoding", "record")},
        sort_keys=True, default=list))
    for name, m in metrics.items():
        print("bench: %-40s %14.6g %s" % (name, m["value"], m["unit"]))
    for name, unit in RECORDED.items():
        if name in record:
            print("bench: %-40s %14.6g %s (recorded)"
                  % (name, record[name], unit))
    t = record.get("instance_ms_tail")
    if t:
        print("bench: %-40s %14.6g ms (p%g of %d samples, recorded)"
              % ("instance_ms_tail", t["ms"], t["percentile"], t["samples"]))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
