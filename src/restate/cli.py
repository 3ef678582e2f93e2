"""Command-line surface for the whole pipeline.

Subcommands: datagen, extract-constraints, train, rewrite, evaluate,
inspect-flags. Every run that writes files also drops a resolved-config
snapshot next to them, so any artifact can be regenerated from its
snapshot alone. Exit codes: 0 success, 2 validation problem (bad
arguments, malformed or misaligned inputs), 3 runtime failure (I/O,
checkpoint mismatch, training divergence, out of memory).

Environment overrides: RESTATE_SEED, RESTATE_MODE, RESTATE_THRESHOLD_A,
RESTATE_THRESHOLD_B, RESTATE_STYLE, RESTATE_STYLE_TRIGGER,
RESTATE_DECODER and RESTATE_BEAM replace the defaults of the matching
options; explicit command-line flags always win.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__, datagen
from .decode import run_decoder
from .evaluation import build_report, text_table
from .flags import SatisfierConfig, replay_flags
from .flags import trace as flag_trace
from .model import (CheckpointMismatch, LengthOverflow, ModelConfig,
                    Seq2SeqModel, TrainingConfig, example_from_record,
                    train)
from .similarity import HashedNgramEmbedder, SpanSimilarity
from .vocab import Vocabulary, tokenize

ENV_PREFIX = "RESTATE_"
EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3


def _finite(text):
    """argparse type of every float option: NaN and infinities are usage
    errors, named with their option when parsed."""
    try:
        if math.isfinite(float(text)):
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("%r is not a finite number" % text)


def _rate(text):
    """argparse type of a probability: a finite number in [0, 1]."""
    value = _finite(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError("%r is not in [0, 1]" % text)
    return value


def _env(option, fallback, cast=str, choices=None):
    """Default for an option, overridable via RESTATE_<OPTION>. argparse
    checks no default against the option's choices, so this does."""
    name = ENV_PREFIX + option.upper().replace("-", "_")
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    if choices is not None and raw not in choices:
        raise ValueError("environment override %s=%r is not one of %s"
                         % (name, raw, ", ".join(choices)))
    try:
        return cast(raw)
    except (ValueError, argparse.ArgumentTypeError):
        raise ValueError("environment override %s=%r is not a valid %s"
                         % (name, raw, "number" if cast is _finite
                            else cast.__name__))


def _add_choice(p, option, choices, fallback, **kwargs):
    """A choice option whose RESTATE_<OPTION> default obeys choices."""
    p.add_argument("--" + option, choices=choices,
                   default=_env(option, fallback, choices=choices), **kwargs)


def _write_jsonl(records, path):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, allow_nan=False) + "\n")


def _snapshot(args, path):
    """Record the fully resolved configuration next to the outputs."""
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    payload = {"command": args.command, "version": __version__,
               "resolved": resolved}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _satisfier(args):
    return SatisfierConfig(threshold_a=args.threshold_a,
                           threshold_b=args.threshold_b,
                           mode=args.mode,
                           style_enabled=args.style == "on",
                           style_trigger=args.style_trigger)


def _scorer_for(config):
    if config.mode == "semantic":
        return SpanSimilarity(HashedNgramEmbedder())
    return None


def _add_satisfier_args(p):
    _add_choice(p, "mode", ("semantic", "lexical", "off"), "semantic",
                help="constraint satisfaction rule (default %(default)s)")
    p.add_argument("--threshold-a", type=_finite,
                   default=_env("threshold-a", 0.8, _finite),
                   help="similarity floor a flip must exceed")
    p.add_argument("--threshold-b", type=_finite,
                   default=_env("threshold-b", 0.3, _finite),
                   help="similarity jump a flip must exceed")
    _add_choice(p, "style", ("on", "off"), "off",
                help="track narrative-style flags (default %(default)s)")
    _add_choice(p, "style-trigger", ("first_person", "second_person"),
                "first_person",
                help="pronoun lexicon that drops style flags when emitted")


def _add_seed_arg(p):
    p.add_argument("--seed", type=int, default=_env("seed", 0, int),
                   help="root random seed (default %(default)s)")


def _trace_path(trace_dir, record_id):
    """The trace file of one record; an id that would name a file outside
    trace_dir is a usage error."""
    if (record_id in (".", "..") or os.sep in record_id
            or (os.altsep and os.altsep in record_id)):
        raise ValueError("record id %r cannot name a trace file: it is"
                         " '.' or '..' or holds a path separator"
                         % record_id)
    return os.path.join(trace_dir, record_id + ".tsv")


def _check_report(rep):
    """A decode report as evaluate reads it: an object with a string id
    and a list of strings as output_tokens."""
    if not (isinstance(rep, dict) and isinstance(rep.get("id"), str)):
        raise datagen.MalformedRecord("decode report is not an object"
                                      " with a string id")
    toks = rep.get("output_tokens")
    if not (isinstance(toks, list) and all(isinstance(t, str) for t in toks)):
        raise datagen.MalformedRecord("decode report %r: output_tokens must"
                                      " be a list of strings" % rep["id"])
    return rep


def _filter_split(instances, split):
    if not split or split == "all":
        return instances
    return datagen.split_of(instances, split)


# ---------------------------------------------------------------------------
# subcommands


def _parse_mix(text):
    mix = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise datagen.InvalidMix("mix entries look like category=share,"
                                     " got %r" % part)
        cat, share = part.split("=", 1)
        try:
            mix[cat.strip()] = _finite(share)
        except argparse.ArgumentTypeError:
            raise datagen.InvalidMix("share %r is not a finite number"
                                     % share)
    return mix


def cmd_datagen(args):
    sizes = (args.train_size, args.dev_size, args.test_size)
    mix = _parse_mix(args.mix) if args.mix else None
    instances = datagen.build_corpus(args.seed, sizes, mix,
                                     args.first_person_rate)
    os.makedirs(args.out, exist_ok=True)
    files = {}
    for name in datagen.SPLIT_NAMES:
        path = os.path.join(args.out, name + ".jsonl")
        datagen.write_corpus(datagen.split_of(instances, name), path)
        files[name] = os.path.basename(path)
    counts = {}
    for inst in instances:
        counts[inst.category] = counts.get(inst.category, 0) + 1
    manifest = {"seed": args.seed, "sizes": list(sizes),
                "first_person_rate": args.first_person_rate,
                "category_counts": counts, "files": files}
    with open(os.path.join(args.out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    _snapshot(args, os.path.join(args.out, "config.json"))
    print("wrote %d instances to %s" % (len(instances), args.out))
    return EXIT_OK


def cmd_extract_constraints(args):
    out = [{"id": inst.id, "constraints": list(map(asdict, inst.constraints))}
           for inst in datagen.read_corpus(args.input)]
    _write_jsonl(out, args.out)
    _snapshot(args, args.out + ".config.json")
    print("extracted constraints for %d records -> %s"
          % (len(out), args.out))
    return EXIT_OK


def cmd_train(args):
    # both configs check their values before any record is read
    model_cfg = ModelConfig(dim=args.dim, heads=args.heads,
                            enc_layers=args.enc_layers,
                            dec_layers=args.dec_layers, ff=args.ff,
                            max_len=args.max_len, seed=args.seed)
    train_cfg = TrainingConfig(lr=args.lr, batch_size=args.batch_size,
                               epochs=args.epochs, seed=args.seed)
    out_dir = os.path.dirname(args.out) or "."
    if not os.path.isdir(out_dir):  # fail now, not at the save after training
        raise FileNotFoundError("output directory %r does not exist" % out_dir)
    instances = datagen.read_corpus(args.input)
    records = {id(inst): datagen.model_record(inst) for inst in instances}
    model_records = [records[id(inst)]
                     for inst in _filter_split(instances, args.split)]
    if not model_records:
        raise ValueError("no records in split %r" % args.split)
    for mr in model_records:
        if not mr["target_tokens"]:
            raise datagen.MalformedRecord("record %r has no target to train"
                                          " on" % mr["id"])
        # the decoder reads the start symbol before the target
        if len(mr["x_tokens"]) > args.max_len:
            raise LengthOverflow("record %r: source length %d > --max-len %d"
                                 % (mr["id"], len(mr["x_tokens"]),
                                    args.max_len))
        if len(mr["target_tokens"]) + 1 > args.max_len:
            raise LengthOverflow("record %r: target length %d + 1 (start"
                                 " symbol) > --max-len %d"
                                 % (mr["id"], len(mr["target_tokens"]),
                                    args.max_len))
    # the vocabulary covers the whole file, not just the training split,
    # so later rewriting of held-out records never meets an unknown token
    vocab = Vocabulary.build(toks for mr in records.values()
                             for toks in (mr["x_tokens"], mr["target_tokens"]))
    config = _satisfier(args)
    scorer = _scorer_for(config)
    # in mode off every replayed matrix is all zeros
    examples = [example_from_record(rec, config, scorer)
                for rec in model_records]
    model = Seq2SeqModel(model_cfg, vocab)
    log_rows = train(model, examples, train_cfg, log=_EpochLog())
    model.save(args.out)
    log_path = args.out + ".loss.txt"
    with open(log_path, "w") as fh:
        for epoch, step, loss in log_rows:
            fh.write("%d\t%d\t%.10f\n" % (epoch, step, loss))
    _snapshot(args, args.out + ".config.json")
    print("trained on %d examples, final mean loss %.4f -> %s"
          % (len(examples), log_rows[-1][2], args.out))
    return EXIT_OK


class _EpochLog:
    """train's log callback for the CLI: each epoch's line (epoch, step,
    mean loss) on stderr with the seconds since the last line. The loss
    file is written from train's rows, so it keeps its bytes."""

    def __init__(self):
        self.last = time.perf_counter()

    def __call__(self, line):
        now = time.perf_counter()
        print("%s seconds %.2f" % (line, now - self.last), file=sys.stderr)
        self.last = now


def cmd_rewrite(args):
    # the decoders clamp a budget to the model's positional table; one
    # below 1 is a usage error, not a budget of 1
    if args.max_len < 1:
        raise ValueError("--max-len must be at least 1, got %d"
                         % args.max_len)
    # greedy ignores the width
    if args.decoder != "greedy" and args.beam < 1:
        raise ValueError("--beam must be at least 1 for the %s decoder,"
                         " got %d" % (args.decoder, args.beam))
    model = Seq2SeqModel.load(args.checkpoint)
    instances = _filter_split(datagen.read_corpus(args.input), args.split)
    if not instances:
        raise ValueError("no records to rewrite in split %r" % args.split)
    records = [datagen.model_record(inst) for inst in instances]
    for inst, mr in zip(instances, records):
        if len(mr["x_tokens"]) > model.config.max_len:
            raise LengthOverflow("record %s: source length %d > the"
                                 " checkpoint's max_len %d"
                                 % (inst.id, len(mr["x_tokens"]),
                                    model.config.max_len))
    config = _satisfier(args)
    scorer = _scorer_for(config)
    trace_dir = args.out + ".traces" if args.trace else None
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)
    reports = []
    for inst, mr in zip(instances, records):
        trace_path = _trace_path(trace_dir, inst.id) if trace_dir else None
        try:
            result = run_decoder(args.decoder, model, mr["x_tokens"],
                                 mr["constraint_rows"], config,
                                 scorer=scorer, beam_size=args.beam,
                                 alpha=args.alpha, max_len=args.max_len)
        except FloatingPointError as exc:
            raise type(exc)("record %s: %s" % (inst.id, exc)) from exc
        for warning in result.warnings:
            print("warning: record %s: %s" % (inst.id, warning),
                  file=sys.stderr)
        if trace_path:
            with open(trace_path, "w") as fh:
                fh.write(flag_trace(result.tracker, fmt="tsv"))
        reports.append({
            "id": inst.id,
            "output_tokens": result.tokens,
            "score": result.score,
            "constraints_satisfied": int(sum(result.tracker.satisfied)),
            "flag_trace_path": trace_path,
            "normalized_score": result.normalized_score,
            "finished": result.finished,
            "unsatisfiable": result.unsatisfiable,
            "mode": config.mode,
            "decoder": args.decoder,
        })
    _write_jsonl(reports, args.out)
    _snapshot(args, args.out + ".config.json")
    print("rewrote %d records -> %s" % (len(reports), args.out))
    return EXIT_OK


def cmd_evaluate(args):
    outputs = [_check_report(rep) for rep in datagen.read_jsonl(args.outputs)]
    instances = _filter_split(datagen.read_corpus(args.gold), args.split)
    report = build_report(outputs, instances)
    with open(args.out, "w") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    table = text_table({args.system: report})
    with open(args.out + ".txt", "w") as fh:
        fh.write(table)
    _snapshot(args, args.out + ".config.json")
    print(table, end="")
    return EXIT_OK


def cmd_inspect_flags(args):
    match = [inst for inst in datagen.read_corpus(args.input)
             if inst.id == args.id]
    if not match:
        raise ValueError("no record with id %r in %s" % (args.id, args.input))
    mr = datagen.model_record(match[0])
    if args.output:
        output_tokens = tokenize(args.output)
        if not output_tokens:
            raise ValueError("--output %r holds no tokens" % args.output)
    else:
        output_tokens = mr["target_tokens"]
        if not output_tokens:
            raise ValueError("record has no target and no --output was"
                             " given")
    config = _satisfier(args)
    tracker = replay_flags(mr["x_tokens"], mr["constraint_rows"],
                           output_tokens, config, scorer=_scorer_for(config))
    text = flag_trace(tracker, fmt=args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        _snapshot(args, args.out + ".config.json")
        print("wrote flag trace -> %s" % args.out)
    else:
        print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="restate",
        description="rewrite polar question-answer pairs into standalone"
                    " statements",
        epilog="environment overrides: RESTATE_SEED, RESTATE_MODE,"
               " RESTATE_THRESHOLD_A, RESTATE_THRESHOLD_B, RESTATE_STYLE,"
               " RESTATE_STYLE_TRIGGER, RESTATE_DECODER, RESTATE_BEAM")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datagen", help="generate a synthetic corpus")
    p.add_argument("--out", required=True, help="output directory")
    _add_seed_arg(p)
    for name, size in zip(datagen.SPLIT_NAMES, datagen.DEFAULT_SPLIT_SIZES):
        p.add_argument("--%s-size" % name, type=int, default=size)
    p.add_argument("--mix", default="",
                   help="category shares, e.g. explanation=0.4,condition=0.6")
    p.add_argument("--first-person-rate", type=_rate, default=0.3,
                   help="share of answers written in first person"
                        " (default %(default)s)")
    p.set_defaults(func=cmd_datagen)

    p = sub.add_parser("extract-constraints",
                       help="extract constraint phrases from parses")
    p.add_argument("--input", required=True, help="corpus JSONL")
    p.add_argument("--out", required=True, help="constraints JSONL")
    p.set_defaults(func=cmd_extract_constraints)

    p = sub.add_parser("train", help="train a rewriter")
    p.add_argument("--input", required=True, help="corpus JSONL")
    p.add_argument("--out", required=True, help="checkpoint path (.npz)")
    p.add_argument("--split", default="train",
                   help="split to train on, or 'all' (default train)")
    _add_seed_arg(p)
    _add_satisfier_args(p)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--lr", type=_finite, default=3e-4)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--enc-layers", type=int, default=2)
    p.add_argument("--dec-layers", type=int, default=2)
    p.add_argument("--ff", type=int, default=128)
    p.add_argument("--max-len", type=int, default=96)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("rewrite", help="decode statements for a corpus")
    p.add_argument("--input", required=True, help="corpus JSONL")
    p.add_argument("--checkpoint", required=True, help="model .npz")
    p.add_argument("--out", required=True, help="decode reports JSONL")
    p.add_argument("--split", default="",
                   help="restrict to one split (default: every record)")
    _add_satisfier_args(p)
    _add_choice(p, "decoder", ("greedy", "beam", "cbs"), "greedy")
    p.add_argument("--beam", type=int, default=_env("beam", 4, int),
                   help="beam width for beam/cbs decoding")
    p.add_argument("--alpha", type=_finite, default=0.7,
                   help="length-normalization exponent")
    p.add_argument("--max-len", type=int, default=48,
                   help="decode budget in tokens")
    p.add_argument("--trace", action="store_true",
                   help="write a flag-matrix trace file per instance")
    p.set_defaults(func=cmd_rewrite)

    p = sub.add_parser("evaluate", help="score decode reports against gold")
    p.add_argument("--outputs", required=True, help="decode reports JSONL")
    p.add_argument("--gold", required=True, help="corpus JSONL")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--split", default="",
                   help="restrict gold to one split before aligning")
    p.add_argument("--system", default="system",
                   help="row label in the text table")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("inspect-flags",
                       help="replay and print a flag matrix for one record")
    p.add_argument("--input", required=True, help="corpus JSONL")
    p.add_argument("--id", required=True, help="record id to inspect")
    p.add_argument("--output", default="",
                   help="output text to replay (default: the gold target)")
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.add_argument("--out", default="", help="write the trace here instead"
                                             " of stdout")
    _add_satisfier_args(p)
    p.set_defaults(func=cmd_inspect_flags)
    return parser


def main(argv=None):
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
    except ValueError as exc:  # bad environment override
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse already printed its message
        return 0 if exc.code is None else int(exc.code)
    try:
        # non-finite weights or losses end in one error line below, not
        # in numpy warnings on the way there (training's worker threads
        # run in a copy of this context)
        with np.errstate(all="ignore"):
            return args.func(args)
    # before the ValueError clause: a bad checkpoint is a ValueError too
    except (OSError, CheckpointMismatch, FloatingPointError,
            MemoryError) as exc:
        _error(exc)
        return EXIT_RUNTIME
    except ValueError as exc:
        _error(exc)
        return EXIT_USAGE


def _error(exc):
    """One stderr line, even when the message quotes input text."""
    print("error: %s" % str(exc).replace("\n", "\\n"), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
