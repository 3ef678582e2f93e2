"""End-to-end tests for the command-line interface.

Everything drives cli.main() in-process with tiny corpora and models so
the whole file stays fast. One subprocess test checks the module is
runnable as a script.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import restate
from restate import datagen
from restate.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from restate.flags import SatisfierConfig, replay_flags, trace
from restate.model import ModelConfig, Seq2SeqModel, training
from restate.similarity import HashedNgramEmbedder, SpanSimilarity


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A generated corpus plus a one-epoch checkpoint, shared read-only."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    rc = main(["datagen", "--out", str(corpus), "--seed", "7",
               "--train-size", "12", "--dev-size", "2", "--test-size", "4"])
    assert rc == EXIT_OK
    ckpt = root / "model.npz"
    rc = main(["train", "--input", str(corpus / "train.jsonl"),
               "--out", str(ckpt), "--epochs", "1", "--seed", "3",
               "--dim", "32", "--ff", "64", "--heads", "2"])
    assert rc == EXIT_OK
    return root


class TestParser:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE
        capsys.readouterr()

    def test_version_flag_exits_clean(self, capsys):
        assert main(["--version"]) == 0
        capsys.readouterr()

    def test_missing_required_arg_is_usage_error(self, capsys):
        assert main(["datagen"]) == EXIT_USAGE
        capsys.readouterr()

    def test_module_is_runnable(self):
        proc = subprocess.run(
            [sys.executable, "-m", "restate.cli", "--version"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip()


class TestDatagen:
    def test_writes_splits_manifest_and_snapshot(self, workdir):
        corpus = workdir / "corpus"
        for name in ("train", "dev", "test"):
            assert (corpus / (name + ".jsonl")).exists()
        manifest = json.loads((corpus / "manifest.json").read_text())
        assert manifest["sizes"] == [12, 2, 4]
        assert manifest["seed"] == 7
        assert sum(manifest["category_counts"].values()) == 18
        snap = json.loads((corpus / "config.json").read_text())
        assert snap["command"] == "datagen"
        assert snap["resolved"]["seed"] == 7
        assert "version" in snap

    def test_split_sizes_match_files(self, workdir):
        corpus = workdir / "corpus"
        assert len(read_jsonl(corpus / "train.jsonl")) == 12
        assert len(read_jsonl(corpus / "dev.jsonl")) == 2
        assert len(read_jsonl(corpus / "test.jsonl")) == 4

    def test_rerun_is_byte_identical(self, workdir, tmp_path, capsys):
        rc = main(["datagen", "--out", str(tmp_path / "again"), "--seed", "7",
                   "--train-size", "12", "--dev-size", "2",
                   "--test-size", "4"])
        assert rc == EXIT_OK
        capsys.readouterr()
        for name in ("train.jsonl", "dev.jsonl", "test.jsonl"):
            a = (workdir / "corpus" / name).read_bytes()
            b = (tmp_path / "again" / name).read_bytes()
            assert a == b

    def test_zero_instances_is_usage_error(self, tmp_path, capsys):
        rc = main(["datagen", "--out", str(tmp_path / "z"), "--train-size",
                   "0", "--dev-size", "0", "--test-size", "0"])
        assert rc == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_negative_split_size_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "neg"
        rc = main(["datagen", "--out", str(out), "--train-size", "-5",
                   "--dev-size", "10", "--test-size", "10"])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "negative" in err and err.count("\n") == 1
        assert not out.exists()

    def test_malformed_mix_is_usage_error(self, tmp_path, capsys):
        rc = main(["datagen", "--out", str(tmp_path / "m"),
                   "--mix", "explanation"])
        assert rc == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("args, named", [
        (["--first-person-rate", "nan"], "argument --first-person-rate"),
        (["--mix", "explanation=inf"], "share 'inf'")],
        ids=["first-person-rate", "mix"])
    def test_non_finite_value_is_usage_error(self, tmp_path, capsys, args,
                                             named):
        rc = main(["datagen", "--out", str(tmp_path / "n")] + args)
        assert rc == EXIT_USAGE
        assert named in capsys.readouterr().err
        assert not (tmp_path / "n").exists()

    @pytest.mark.parametrize("rate", ["1.5", "-0.25"])
    def test_rate_outside_unit_interval_names_option_and_value(
            self, tmp_path, capsys, rate):
        rc = main(["datagen", "--out", str(tmp_path / "r"),
                   "--first-person-rate", rate])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "argument --first-person-rate" in err and repr(rate) in err
        assert not (tmp_path / "r").exists()

    def test_mix_shapes_category_counts(self, tmp_path, capsys):
        out = tmp_path / "mixed"
        rc = main(["datagen", "--out", str(out), "--seed", "1",
                   "--train-size", "8", "--dev-size", "0", "--test-size", "0",
                   "--mix", "explanation=0.5,condition=0.5"])
        assert rc == EXIT_OK
        capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["category_counts"] == {"explanation": 4,
                                               "condition": 4}


class TestExtractConstraints:
    def test_matches_gold_extraction(self, workdir, tmp_path, capsys):
        src = workdir / "corpus" / "train.jsonl"
        out = tmp_path / "cons.jsonl"
        assert main(["extract-constraints", "--input", str(src),
                     "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        rows = read_jsonl(out)
        insts = datagen.read_corpus(str(src))
        assert [r["id"] for r in rows] == [i.id for i in insts]
        for row, inst in zip(rows, insts):
            gold = datagen.gold_constraints(inst)
            assert [tuple(c["tokens"]) for c in row["constraints"]] == \
                [c.tokens for c in gold]
            assert [c["source"] for c in row["constraints"]] == \
                [c.source for c in gold]

    def test_parse_free_record_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"id": "x", "question": "does it work ?",
                                   "answer": "yes .",
                                   "context": "the widget"}) + "\n")
        rc = main(["extract-constraints", "--input", str(bad),
                   "--out", str(tmp_path / "o.jsonl")])
        assert rc == EXIT_USAGE
        assert "parses" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda answer: "no , it does not",
        lambda answer: answer.rsplit(" ", 2)[0] + " camera .",
    ], ids=["shorter", "other-words"])
    def test_parse_not_matching_its_text_is_usage_error(self, workdir,
                                                        tmp_path, capsys,
                                                        edit):
        rec = json.loads(
            (workdir / "corpus" / "train.jsonl").read_text().splitlines()[0])
        del rec["constraints"]
        rec["answer"] = edit(rec["answer"])
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(rec) + "\n")
        rc = main(["extract-constraints", "--input", str(bad),
                   "--out", str(tmp_path / "o.jsonl")])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "answer_parse does not yield the tokens of its answer" in err

    def test_deeply_nested_parse_ends_cleanly(self, workdir, tmp_path):
        # 3,000 nested (S levels, far past the interpreter's recursion
        # limit: a parse that does not yield its text is a usage error
        # and one that does is extracted
        rec = json.loads(
            (workdir / "corpus" / "train.jsonl").read_text().splitlines()[0])
        del rec["constraints"]
        rec["question_parse"] = "(S " * 3000 + "(NN a)" + ")" * 3000
        path = tmp_path / "deep.jsonl"
        out = tmp_path / "o.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        argv = ["extract-constraints", "--input", str(path), "--out",
                str(out)]
        rc, err, _ = _run_quietly(argv)
        assert rc == EXIT_USAGE
        assert err.count("\n") == 1
        assert "question_parse does not yield the tokens" in err
        rec["question"] = "a"
        path.write_text(json.dumps(rec) + "\n")
        assert _run_quietly(argv)[0] == EXIT_OK
        [row] = read_jsonl(out)
        assert row["constraints"]
        assert {c["source"] for c in row["constraints"]} == {"answer"}

    @pytest.mark.parametrize("edit", [
        lambda c: c.update(tokens=["totally", "different"]),
        lambda c: c.update(start=40, end=45),
        lambda c: c.update(start=c["end"], end=c["start"]),
        lambda c: c.update(source="context"),
    ], ids=["tokens", "span-past-text", "reversed-span", "source"])
    @pytest.mark.parametrize("command", ["extract-constraints",
                                         "inspect-flags"])
    def test_constraint_not_matching_its_text_is_usage_error(
            self, workdir, tmp_path, command, edit):
        rec = json.loads(
            (workdir / "corpus" / "train.jsonl").read_text().splitlines()[0])
        edit(rec["constraints"][0])
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(rec) + "\n")
        argv = {"extract-constraints": ["--out", str(tmp_path / "o.jsonl")],
                "inspect-flags": ["--id", rec["id"]]}[command]
        rc, err, _ = _run_quietly([command, "--input", str(bad)] + argv)
        assert rc == EXIT_USAGE
        assert err.count("\n") == 1
        assert "record %r: constraint 0 does not match" % rec["id"] in err


# SHA-256 of the mode-off round trip of TestTrain: the checkpoint, its
# loss file and the greedy and beam rewrites. Frozen from the
# implementation whose teacher forcing ran plain cross-attention on a
# batch without flags, with numpy 2.4's bundled OpenBLAS on x86-64
# (another BLAS or CPU kernel may round differently)
MODE_OFF_SHA256 = (
    "429ad941cef25ad21731b165f28c81ff661d697898c5ec13cab5af5fdfaffef9")


class TestTrain:
    def test_artifacts_exist(self, workdir):
        assert (workdir / "model.npz").exists()
        log = (workdir / "model.npz.loss.txt").read_text().splitlines()
        assert log
        for line in log:
            epoch, step, loss = line.split("\t")
            int(epoch), int(step), float(loss)
        snap = json.loads((workdir / "model.npz.config.json").read_text())
        assert snap["command"] == "train"
        assert snap["resolved"]["mode"] == "semantic"

    def test_rerun_is_byte_identical(self, workdir, tmp_path, capsys):
        out = tmp_path / "again.npz"
        rc = main(["train", "--input",
                   str(workdir / "corpus" / "train.jsonl"),
                   "--out", str(out), "--epochs", "1", "--seed", "3",
                   "--dim", "32", "--ff", "64", "--heads", "2"])
        assert rc == EXIT_OK
        capsys.readouterr()
        assert out.read_bytes() == (workdir / "model.npz").read_bytes()

    def test_mode_off_trains_without_flags(self, workdir, tmp_path, capsys,
                                           monkeypatch):
        # two workers, so the one-worker bytes the digest was frozen from
        # must also come out of two blocks
        monkeypatch.setattr(training, "worker_count", lambda: 2)
        out = tmp_path / "plain.npz"
        rc = main(["train", "--input",
                   str(workdir / "corpus" / "train.jsonl"),
                   "--out", str(out), "--epochs", "1", "--seed", "3",
                   "--dim", "32", "--ff", "64", "--heads", "2",
                   "--mode", "off"])
        assert rc == EXIT_OK
        digest = hashlib.sha256(out.read_bytes())
        digest.update((tmp_path / "plain.npz.loss.txt").read_bytes())
        for decoder in ("greedy", "beam"):
            rewritten = tmp_path / (decoder + ".jsonl")
            rc = main(["rewrite", "--input",
                       str(workdir / "corpus" / "test.jsonl"),
                       "--checkpoint", str(out), "--out", str(rewritten),
                       "--mode", "off", "--decoder", decoder])
            assert rc == EXIT_OK
            digest.update(rewritten.read_bytes())
        capsys.readouterr()
        assert digest.hexdigest() == MODE_OFF_SHA256

    def test_diverging_loss_is_one_line(self, workdir, tmp_path):
        out = tmp_path / "m.npz"
        # the first step's update overflows the weights, so the second
        # step's loss is NaN
        rc, err, n_warnings = _run_quietly(
            ["train", "--input", str(workdir / "corpus" / "train.jsonl"),
             "--out", str(out), "--lr", "1e200", "--batch-size", "4",
             "--dim", "8", "--ff", "8", "--heads", "2"])
        assert rc == EXIT_RUNTIME
        assert err == "error: loss became nan at epoch 0 step 1\n"
        assert n_warnings == 0
        assert not out.exists()

    def test_empty_split_is_usage_error(self, workdir, capsys):
        rc = main(["train", "--input",
                   str(workdir / "corpus" / "train.jsonl"),
                   "--out", "/tmp/nowhere.npz", "--split", "dev"])
        assert rc == EXIT_USAGE
        assert "split" in capsys.readouterr().err

    def test_record_without_target_is_usage_error(self, workdir, tmp_path,
                                                  capsys):
        lines = (workdir / "corpus" / "train.jsonl").read_text().splitlines()
        rec = json.loads(lines[1])
        del rec["target"]
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([lines[0], json.dumps(rec)]) + "\n")
        out = tmp_path / "m.npz"
        rc = main(["train", "--input", str(bad), "--out", str(out),
                   "--epochs", "1", "--dim", "8", "--ff", "8", "--heads", "2"])
        assert rc == EXIT_USAGE
        assert "has no target" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_lr_is_usage_error(self, workdir, tmp_path, capsys):
        out = tmp_path / "m.npz"
        rc = main(["train", "--input",
                   str(workdir / "corpus" / "train.jsonl"),
                   "--out", str(out), "--lr", "nan"])
        assert rc == EXIT_USAGE
        assert "argument --lr: 'nan' is not a finite number" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,field", [
        (["--heads", "0"], "heads"), (["--heads", "-4"], "heads"),
        (["--enc-layers", "-1"], "enc_layers"),
        (["--enc-layers", "0"], "enc_layers"),
        (["--dec-layers", "0"], "dec_layers"),
        (["--dim", "0", "--heads", "1"], "dim"), (["--ff", "0"], "ff"),
        (["--max-len", "0"], "max_len"), (["--epochs", "0"], "epochs")])
    def test_size_below_one_is_usage_error(self, workdir, tmp_path, argv,
                                           field):
        out = tmp_path / "m.npz"
        rc, err, n_warnings = _run_quietly(
            ["train", "--input", str(workdir / "corpus" / "train.jsonl"),
             "--out", str(out)] + argv)
        assert rc == EXIT_USAGE
        assert err == "error: %s must be at least 1, got %s\n" \
            % (field, argv[1])
        assert n_warnings == 0
        assert not out.exists()

    def test_each_epoch_logs_one_line(self, workdir, tmp_path, capsys):
        out = tmp_path / "m.npz"
        rc = main(["train", "--input",
                   str(workdir / "corpus" / "train.jsonl"),
                   "--out", str(out), "--epochs", "2", "--batch-size", "5",
                   "--dim", "8", "--ff", "8", "--heads", "2"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().err.splitlines()
        rows = [row.split("\t") for row in
                (tmp_path / "m.npz.loss.txt").read_text().splitlines()]
        # 12 records in batches of 5: three steps an epoch
        assert [r[:2] for r in rows] == [["0", "3"], ["1", "6"]]
        assert len(lines) == 2
        for line, (epoch, step, loss) in zip(lines, rows):
            words = line.split()
            assert words[:6] == ["epoch", epoch, "step", step, "mean_loss",
                                 "%.6f" % float(loss)]
            assert words[6] == "grad_norm" and float(words[7]) > 0.0
            assert words[8] == "workers" and int(words[9]) >= 1
            assert words[10] == "seconds" and float(words[11]) >= 0.0
            assert len(words) == 12

    def test_model_too_large_to_allocate_is_runtime_error(
            self, workdir, tmp_path, capsys):
        lines = (workdir / "corpus" / "train.jsonl").read_text().splitlines()
        small = tmp_path / "four.jsonl"
        small.write_text("\n".join(lines[:4]) + "\n")
        out = tmp_path / "m.npz"
        # a positional table of 10**16 rows of 8 floats (568 PiB) is
        # larger than any x86-64 or arm64 user address space, so the
        # allocation fails at once and is never granted
        rc = main(["train", "--input", str(small), "--out", str(out),
                   "--epochs", "1", "--dim", "8", "--ff", "8", "--heads",
                   "2", "--max-len", str(10 ** 16)])
        assert rc == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("side", ["source", "target"])
    def test_record_longer_than_max_len_names_record_and_option(
            self, workdir, tmp_path, side):
        rec = json.loads((workdir / "corpus" / "train.jsonl").read_text()
                         .splitlines()[1])
        n = len(datagen.model_record(datagen.instance_from_json(rec))[
            "x_tokens"])
        if side == "source":
            limit = n - 1
            message = "source length %d > --max-len %d" % (n, limit)
        else:  # the source fits, the start symbol and target do not
            limit = n
            rec["target"] = " ".join(["yes"] * n)
            message = "target length %d + 1 (start symbol) > --max-len %d" \
                % (n, n)
        path = tmp_path / "long.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        out = tmp_path / "m.npz"
        rc, err, _ = _run_quietly(
            ["train", "--input", str(path), "--out", str(out), "--max-len",
             str(limit), "--dim", "8", "--ff", "8", "--heads", "2"])
        assert rc == EXIT_USAGE
        assert err == "error: record %r: %s\n" % (rec["id"], message)
        assert not out.exists()


@pytest.fixture(scope="module")
def decoded(workdir, tmp_path_factory):
    out = tmp_path_factory.mktemp("rw") / "decoded.jsonl"
    rc = main(["rewrite", "--input",
               str(workdir / "corpus" / "test.jsonl"),
               "--checkpoint", str(workdir / "model.npz"),
               "--out", str(out), "--decoder", "greedy", "--trace"])
    assert rc == EXIT_OK
    return out


@pytest.fixture(scope="module")
def scored(workdir, tmp_path_factory):
    root = tmp_path_factory.mktemp("ev")
    decoded_path = root / "decoded.jsonl"
    rc = main(["rewrite", "--input",
               str(workdir / "corpus" / "test.jsonl"),
               "--checkpoint", str(workdir / "model.npz"),
               "--out", str(decoded_path), "--decoder", "greedy"])
    assert rc == EXIT_OK
    report = root / "report.json"
    rc = main(["evaluate", "--outputs", str(decoded_path),
               "--gold", str(workdir / "corpus" / "test.jsonl"),
               "--out", str(report), "--system", "tiny"])
    assert rc == EXIT_OK
    return root


class TestRewrite:
    def test_report_schema(self, workdir, decoded):
        rows = read_jsonl(decoded)
        gold = read_jsonl(workdir / "corpus" / "test.jsonl")
        assert [r["id"] for r in rows] == [g["id"] for g in gold]
        for row in rows:
            assert isinstance(row["output_tokens"], list)
            assert isinstance(row["score"], float)
            assert isinstance(row["constraints_satisfied"], int)
            assert row["flag_trace_path"]
            assert row["decoder"] == "greedy"

    def test_trace_files_match_replay(self, workdir, decoded):
        rows = read_jsonl(decoded)
        insts = datagen.read_corpus(str(workdir / "corpus" / "test.jsonl"))
        config = SatisfierConfig(mode="semantic")
        scorer = SpanSimilarity(HashedNgramEmbedder())
        for row, inst in zip(rows, insts):
            mr = datagen.model_record(inst)
            tracker = replay_flags(mr["x_tokens"],
                                   [tuple(r) for r in mr["constraint_rows"]],
                                   row["output_tokens"], config, scorer=scorer)
            with open(row["flag_trace_path"]) as fh:
                assert fh.read() == trace(tracker, fmt="tsv")

    def test_rerun_is_byte_identical(self, workdir, decoded, tmp_path,
                                     capsys):
        out = tmp_path / "again.jsonl"
        rc = main(["rewrite", "--input",
                   str(workdir / "corpus" / "test.jsonl"),
                   "--checkpoint", str(workdir / "model.npz"),
                   "--out", str(out), "--decoder", "greedy"])
        assert rc == EXIT_OK
        capsys.readouterr()
        a = [{k: v for k, v in r.items() if k != "flag_trace_path"}
             for r in read_jsonl(decoded)]
        b = [{k: v for k, v in r.items() if k != "flag_trace_path"}
             for r in read_jsonl(out)]
        assert a == b

    def test_missing_checkpoint_is_runtime_error(self, workdir, capsys):
        rc = main(["rewrite", "--input",
                   str(workdir / "corpus" / "test.jsonl"),
                   "--checkpoint", "/tmp/does-not-exist.npz",
                   "--out", "/tmp/nowhere.jsonl"])
        assert rc == EXIT_RUNTIME
        capsys.readouterr()

    def test_cbs_decoder_runs(self, workdir, tmp_path, capsys):
        out = tmp_path / "cbs.jsonl"
        rc = main(["rewrite", "--input",
                   str(workdir / "corpus" / "test.jsonl"),
                   "--checkpoint", str(workdir / "model.npz"),
                   "--out", str(out), "--decoder", "cbs", "--beam", "2",
                   "--max-len", "40"])
        assert rc == EXIT_OK
        capsys.readouterr()
        rows = read_jsonl(out)
        assert all(r["decoder"] == "cbs" for r in rows)


    @pytest.mark.parametrize("decoder", ["greedy", "beam", "cbs"])
    def test_nan_checkpoint_is_runtime_error(self, workdir, tmp_path, capsys,
                                             decoder):
        model = Seq2SeqModel.load(str(workdir / "model.npz"))
        model.params["out.w"][:] = np.nan
        ckpt = tmp_path / "nan.npz"
        model.save(str(ckpt))
        gold = read_jsonl(workdir / "corpus" / "test.jsonl")
        rc = main(["rewrite", "--input",
                   str(workdir / "corpus" / "test.jsonl"),
                   "--checkpoint", str(ckpt), "--out",
                   str(tmp_path / "out.jsonl"), "--decoder", decoder])
        assert rc == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert gold[0]["id"] in err and "NaN" in err

    @pytest.mark.parametrize("fault", [
        "missing", "misshapen", "version", "no-vocab", "vocab-not-strings",
        "config-unknown-key", "config-missing-key", "meta-not-utf8",
        "meta-not-json", "not-npz", "vocab-swapped", "float32",
        "config-heads", "config-no-layers", "config-too-large",
        "header-unclosed"])
    def test_bad_checkpoint_is_runtime_error(self, workdir, tmp_path, capsys,
                                             fault):
        with np.load(workdir / "model.npz") as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(bytes(arrays["__meta__"]).decode())
        raw = None
        if fault == "missing":
            del arrays["out.w"]
        elif fault == "misshapen":
            arrays["out.w"] = arrays["out.w"][:, :-1]
        elif fault == "version":
            meta["format_version"] = 99
        elif fault == "no-vocab":
            del meta["vocab_tokens"]
        elif fault == "vocab-not-strings":
            meta["vocab_tokens"][5] = 5
        elif fault == "config-unknown-key":
            meta["config"]["width"] = 8
        elif fault == "config-missing-key":
            del meta["config"]["ff"]
        elif fault == "meta-not-utf8":
            raw = b"\xff\xfe"
        elif fault == "meta-not-json":
            raw = b"{not json"
        elif fault == "vocab-swapped":
            toks = meta["vocab_tokens"]
            toks[5], toks[6] = toks[6], toks[5]
        elif fault == "float32":
            arrays["out.w"] = arrays["out.w"].astype(np.float32)
        elif fault == "config-heads":
            # no tensor shape depends on the head count
            assert meta["config"]["heads"] == 2
            meta["config"]["heads"] = 4
        elif fault == "config-no-layers":
            meta["config"]["enc_layers"] = 0
        elif fault == "config-too-large":
            # 10**16 positions of 32 floats (2.2 EiB): the tensors' shapes
            # are checked against the config before any model is built, so
            # the first positional table is refused, never allocated
            meta["config"]["max_len"] = 10 ** 16
        if raw is None:
            raw = json.dumps(meta).encode()
        arrays["__meta__"] = np.frombuffer(raw, dtype=np.uint8)
        ckpt = tmp_path / "bad.npz"
        if fault == "not-npz":
            ckpt.write_text("not a checkpoint\n")
        else:
            np.savez(ckpt, **arrays)
        if fault == "header-unclosed":
            # out.w's .npy header dict loses its closing brace; zipfile
            # writes the damaged member with a valid CRC
            with zipfile.ZipFile(ckpt) as zf:
                members = {n: zf.read(n) for n in zf.namelist()}
            members["out.w.npy"] = members["out.w.npy"].replace(b"}", b" ", 1)
            with zipfile.ZipFile(ckpt, "w") as zf:
                for n, raw in members.items():
                    zf.writestr(n, raw)
        rc = main(["rewrite", "--input",
                   str(workdir / "corpus" / "test.jsonl"),
                   "--checkpoint", str(ckpt), "--out",
                   str(tmp_path / "out.jsonl")])
        assert rc == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        if fault in ("vocab-swapped", "float32", "config-heads"):
            assert "digest" in err
        if fault == "config-no-layers":
            assert "enc_layers must be at least 1" in err
        if fault == "config-too-large":
            assert "pos_enc" in err
        if fault == "header-unclosed":
            assert "out.w is unreadable" in err

    def test_config_too_large_for_the_host_is_refused_unallocated(
            self, recipe_checkpoint, workdir, tmp_path):
        # a recipe-shape archive whose config asks for 10**7 positions at
        # dim 64, two 4.77 GiB positional tables; the child alone runs
        # under a 1 GiB address-space limit, so building the model first
        # would fail to allocate instead of naming the misfit tensor
        resource = pytest.importorskip("resource")
        with np.load(recipe_checkpoint) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(bytes(arrays["__meta__"]).decode())
        assert meta["config"]["dim"] == 64
        meta["config"]["max_len"] = 10 ** 7
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(),
                                           dtype=np.uint8)
        ckpt = tmp_path / "huge.npz"
        np.savez(ckpt, **arrays)
        limit = 1 << 30

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS,
                               (limit, resource.getrlimit(
                                   resource.RLIMIT_AS)[1]))

        # one BLAS thread, so the child's own start-up fits the limit
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(
                       [os.path.dirname(os.path.dirname(restate.__file__))]
                       + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-m", "restate.cli", "rewrite", "--input",
             str(workdir / "corpus" / "test.jsonl"), "--checkpoint",
             str(ckpt), "--out", str(tmp_path / "out.jsonl")],
            env=env, preexec_fn=cap_address_space, capture_output=True,
            text=True)
        assert proc.returncode == EXIT_RUNTIME, proc.stderr
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert proc.stderr.startswith("error: ") and "pos_enc" in proc.stderr

    @pytest.mark.parametrize("rid", ["../escaped", "absolute"])
    def test_trace_id_outside_trace_dir_is_usage_error(self, workdir,
                                                       tmp_path, capsys,
                                                       rid):
        if rid == "absolute":
            rid = str(tmp_path / "anywhere")
        rec = read_jsonl(workdir / "corpus" / "test.jsonl")[0]
        rec["id"] = rid
        inp = tmp_path / "in.jsonl"
        inp.write_text(json.dumps(rec) + "\n")
        (tmp_path / "sub").mkdir()
        rc = main(["rewrite", "--input", str(inp),
                   "--checkpoint", str(workdir / "model.npz"),
                   "--out", str(tmp_path / "sub" / "out.jsonl"), "--trace"])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and repr(rid) in err
        assert not list(tmp_path.rglob("*.tsv"))

    @pytest.mark.parametrize("option", ["--alpha", "--threshold-a",
                                        "--threshold-b"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_option_is_usage_error(self, workdir, tmp_path,
                                              capsys, option, value):
        out = tmp_path / "out.jsonl"
        rc = main(["rewrite", "--input",
                   str(workdir / "corpus" / "test.jsonl"),
                   "--checkpoint", str(workdir / "model.npz"),
                   "--out", str(out), "--decoder", "beam",
                   option + "=" + value])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "argument %s: %r is not a finite number" % (option, value) \
            in err
        assert not out.exists()

    # at the default budget of 48 tokens, 49.0 ** 200 and 49.0 ** 2000
    # overflow a float
    @pytest.mark.parametrize("decoder, alpha", [("beam", "200"),
                                                ("cbs", "200"),
                                                ("greedy", "-2000")])
    def test_overflowing_alpha_is_usage_error(self, workdir, tmp_path,
                                              capsys, decoder, alpha):
        out = tmp_path / "out.jsonl"
        rc = main(["rewrite", "--input",
                   str(workdir / "corpus" / "test.jsonl"),
                   "--checkpoint", str(workdir / "model.npz"),
                   "--out", str(out), "--decoder", decoder,
                   "--alpha=" + alpha])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: alpha %r " % float(alpha))
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_budget_below_one_is_usage_error(self, workdir, tmp_path, capsys,
                                             budget):
        out = tmp_path / "out.jsonl"
        rc = main(["rewrite", "--input",
                   str(workdir / "corpus" / "test.jsonl"),
                   "--checkpoint", str(workdir / "model.npz"),
                   "--out", str(out), "--max-len", budget])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == \
            "error: --max-len must be at least 1, got %s\n" % budget
        assert not out.exists()

    def test_input_longer_than_checkpoint_names_record(self, workdir,
                                                        tmp_path):
        corpus = workdir / "corpus" / "test.jsonl"
        instances = datagen.read_corpus(str(corpus))
        lengths = [len(datagen.model_record(inst)["x_tokens"])
                   for inst in instances]
        limit = max(lengths) - 1
        first = next(inst.id for inst, n in zip(instances, lengths)
                     if n > limit)
        vocab = Seq2SeqModel.load(str(workdir / "model.npz")).vocab
        ckpt = tmp_path / "short.npz"
        Seq2SeqModel(ModelConfig(dim=8, heads=2, enc_layers=1, dec_layers=1,
                                 ff=8, max_len=limit), vocab).save(str(ckpt))
        out = tmp_path / "out.jsonl"
        for decoder in ("greedy", "beam", "cbs"):
            rc, err, _ = _run_quietly(
                ["rewrite", "--input", str(corpus), "--checkpoint",
                 str(ckpt), "--out", str(out), "--decoder", decoder])
            assert rc == EXIT_USAGE
            assert err == ("error: record %s: source length %d > the"
                           " checkpoint's max_len %d\n"
                           % (first, limit + 1, limit))
            assert not out.exists()

    @pytest.mark.parametrize("decoder", ["beam", "cbs"])
    def test_width_below_one_is_usage_error(self, tmp_path, capsys,
                                            monkeypatch, decoder):
        # neither the checkpoint nor the input exists: the width is
        # checked before either is read
        out = tmp_path / "out.jsonl"
        argv = ["rewrite", "--input", str(tmp_path / "missing.jsonl"),
                "--checkpoint", str(tmp_path / "missing.npz"),
                "--out", str(out), "--decoder", decoder]
        message = "error: --beam must be at least 1 for the %s decoder," \
                  " got %s\n"
        assert main(argv + ["--beam", "0"]) == EXIT_USAGE
        assert capsys.readouterr().err == message % (decoder, "0")
        monkeypatch.setenv("RESTATE_BEAM", "-1")
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == message % (decoder, "-1")
        assert not out.exists()

    def test_greedy_ignores_the_width(self, tmp_path, capsys):
        rc = main(["rewrite", "--input", str(tmp_path / "missing.jsonl"),
                   "--checkpoint", str(tmp_path / "missing.npz"),
                   "--out", str(tmp_path / "out.jsonl"), "--beam", "0"])
        assert rc == EXIT_RUNTIME
        assert "missing.npz" in capsys.readouterr().err

    def test_cbs_warnings_reach_stderr(self, workdir, tmp_path, capsys):
        out = tmp_path / "cbs.jsonl"
        rc = main(["rewrite", "--input",
                   str(workdir / "corpus" / "test.jsonl"),
                   "--checkpoint", str(workdir / "model.npz"),
                   "--out", str(out), "--decoder", "cbs", "--max-len", "1"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().err.splitlines()
        unsatisfiable = [r["id"] for r in read_jsonl(out)
                         if r["unsatisfiable"]]
        assert unsatisfiable and len(lines) == len(unsatisfiable)
        for rid, line in zip(unsatisfiable, lines):
            assert line.startswith("warning: record %s: " % rid)
            assert "best partial" in line


class TestEvaluate:
    def test_report_fields(self, scored):
        rep = json.loads((scored / "report.json").read_text())
        for key in ("n_instances", "bleu", "bleu_smoothed", "rouge_l_f",
                    "coverage_lexical", "coverage_semantic",
                    "polarity_accuracy", "style_accuracy",
                    "context_accuracy", "per_category"):
            assert key in rep
        assert rep["n_instances"] == 4
        assert 0.0 <= rep["bleu"] <= 100.0

    def test_table_written_with_system_name(self, scored):
        table = (scored / "report.json.txt").read_text()
        assert "tiny" in table
        assert "BLEU" in table

    def test_shuffled_outputs_is_usage_error(self, workdir, scored,
                                             tmp_path, capsys):
        rows = read_jsonl(scored / "decoded.jsonl")
        rows.reverse()
        bad = tmp_path / "bad.jsonl"
        with open(bad, "w") as fh:
            for r in rows:
                fh.write(json.dumps(r) + "\n")
        rc = main(["evaluate", "--outputs", str(bad),
                   "--gold", str(workdir / "corpus" / "test.jsonl"),
                   "--out", str(tmp_path / "r.json")])
        assert rc == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("fault", ["no-output-tokens", "not-object",
                                       "token-not-string",
                                       "tokens-are-a-string"])
    def test_malformed_report_is_usage_error(self, workdir, scored,
                                             tmp_path, capsys, fault):
        rows = read_jsonl(scored / "decoded.jsonl")
        if fault == "no-output-tokens":
            del rows[0]["output_tokens"]
        elif fault == "not-object":
            rows[0] = [rows[0]["id"]]
        elif fault == "token-not-string":
            rows[0]["output_tokens"] = ["yes", 1]
        else:
            rows[0]["output_tokens"] = "yes it has"
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in rows))
        rc = main(["evaluate", "--outputs", str(bad),
                   "--gold", str(workdir / "corpus" / "test.jsonl"),
                   "--out", str(tmp_path / "r.json")])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: decode report") \
            and err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

    def test_empty_output_is_scored(self, workdir, scored, tmp_path,
                                    capsys):
        rows = read_jsonl(scored / "decoded.jsonl")
        rows[0]["output_tokens"] = []  # beam may stop before any token
        outputs = tmp_path / "empty.jsonl"
        with open(outputs, "w") as fh:
            for r in rows:
                fh.write(json.dumps(r) + "\n")
        rc = main(["evaluate", "--outputs", str(outputs),
                   "--gold", str(workdir / "corpus" / "test.jsonl"),
                   "--out", str(tmp_path / "r.json")])
        assert rc == EXIT_OK
        capsys.readouterr()

    @pytest.mark.parametrize("output", ["gold", "empty"])
    def test_gold_record_without_target_is_usage_error(self, tmp_path,
                                                       capsys, output):
        # whatever the output, there is no reference to score it against
        insts = datagen.build_corpus(0, (0, 0, 6))
        outs = [{"id": i.id, "output_tokens": i.target.split()}
                for i in insts]
        insts[2] = dataclasses.replace(insts[2], target="")
        if output == "empty":
            outs[2]["output_tokens"] = []
        gold = tmp_path / "gold.jsonl"
        datagen.write_corpus(insts, str(gold))
        decoded = tmp_path / "decoded.jsonl"
        decoded.write_text("".join(json.dumps(o) + "\n" for o in outs))
        rc = main(["evaluate", "--outputs", str(decoded), "--gold",
                   str(gold), "--out", str(tmp_path / "r.json")])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == \
            "error: record %r has no target to score against\n" % insts[2].id
        assert not (tmp_path / "r.json").exists()


class TestInspectFlags:
    def test_stdout_trace_matches_replay(self, workdir, capsys):
        src = workdir / "corpus" / "train.jsonl"
        inst = datagen.read_corpus(str(src))[0]
        rc = main(["inspect-flags", "--input", str(src), "--id", inst.id])
        assert rc == EXIT_OK
        printed = capsys.readouterr().out
        mr = datagen.model_record(inst)
        tracker = replay_flags(mr["x_tokens"],
                               [tuple(r) for r in mr["constraint_rows"]],
                               mr["target_tokens"],
                               SatisfierConfig(mode="semantic"),
                               scorer=SpanSimilarity(HashedNgramEmbedder()))
        assert printed == trace(tracker, fmt="tsv")

    def test_custom_output_and_file(self, workdir, tmp_path, capsys):
        src = workdir / "corpus" / "train.jsonl"
        inst = datagen.read_corpus(str(src))[0]
        out = tmp_path / "trace.tsv"
        rc = main(["inspect-flags", "--input", str(src), "--id", inst.id,
                   "--output", "yes , it does .", "--out", str(out)])
        assert rc == EXIT_OK
        capsys.readouterr()
        text = out.read_text()
        assert text.startswith("x\\y")
        assert (tmp_path / "trace.tsv.config.json").exists()

    def test_blank_output_is_named(self, workdir, capsys):
        # an --output that tokenizes to nothing is not a missing one
        src = workdir / "corpus" / "train.jsonl"
        inst = datagen.read_corpus(str(src))[0]
        rc = main(["inspect-flags", "--input", str(src), "--id", inst.id,
                   "--output", "   "])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == \
            "error: --output '   ' holds no tokens\n"

    def test_unknown_id_is_usage_error(self, workdir, capsys):
        rc = main(["inspect-flags", "--input",
                   str(workdir / "corpus" / "train.jsonl"),
                   "--id", "pqa-99999"])
        assert rc == EXIT_USAGE
        assert "no record" in capsys.readouterr().err


class TestRecordsCheckedFirst:
    """A record that is not an object is a usage error even where a
    split filter or an id lookup would skip it."""

    @pytest.mark.parametrize("line", ["[1]", "null"])
    def test_inspect_flags(self, tmp_path, line):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(line + "\n")
        rc, err, _ = _run_quietly(["inspect-flags", "--input", str(bad),
                                   "--id", "pqa-00000"])
        assert rc == EXIT_USAGE
        assert err == "error: record is not a JSON object\n"

    @pytest.mark.parametrize("line", ["[1]", "null"])
    def test_rewrite_split(self, workdir, tmp_path, line):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(line + "\n")
        rc, err, _ = _run_quietly(
            ["rewrite", "--input", str(bad), "--split", "test",
             "--checkpoint", str(workdir / "model.npz"),
             "--out", str(tmp_path / "o.jsonl")])
        assert rc == EXIT_USAGE
        assert err == "error: record is not a JSON object\n"


class TestEnvOverrides:
    def test_env_sets_default_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RESTATE_SEED", "42")
        out = tmp_path / "env"
        rc = main(["datagen", "--out", str(out), "--train-size", "4",
                   "--dev-size", "0", "--test-size", "0"])
        assert rc == EXIT_OK
        capsys.readouterr()
        snap = json.loads((out / "config.json").read_text())
        assert snap["resolved"]["seed"] == 42

    def test_explicit_flag_beats_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RESTATE_SEED", "42")
        out = tmp_path / "env2"
        rc = main(["datagen", "--out", str(out), "--seed", "5",
                   "--train-size", "4", "--dev-size", "0",
                   "--test-size", "0"])
        assert rc == EXIT_OK
        capsys.readouterr()
        snap = json.loads((out / "config.json").read_text())
        assert snap["resolved"]["seed"] == 5

    def test_env_sets_mode(self, workdir, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RESTATE_MODE", "lexical")
        out = tmp_path / "lex.npz"
        rc = main(["train", "--input",
                   str(workdir / "corpus" / "train.jsonl"),
                   "--out", str(out), "--epochs", "1",
                   "--dim", "32", "--ff", "64", "--heads", "2"])
        assert rc == EXIT_OK
        capsys.readouterr()
        snap = json.loads((out.parent / "lex.npz.config.json").read_text())
        assert snap["resolved"]["mode"] == "lexical"

    def test_non_finite_env_value_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("RESTATE_THRESHOLD_B", "nan")
        rc = main(["rewrite", "--input", "in.jsonl", "--checkpoint", "m.npz",
                   "--out", "out.jsonl"])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "RESTATE_THRESHOLD_B='nan' is not a valid number" in err

    @pytest.mark.parametrize("variable, value, choices", [
        ("RESTATE_MODE", "bogus", "semantic, lexical, off"),
        ("RESTATE_STYLE", "ON", "on, off"),
        ("RESTATE_STYLE_TRIGGER", "third", "first_person, second_person"),
        ("RESTATE_DECODER", "sampling", "greedy, beam, cbs"),
    ], ids=["mode", "style", "style-trigger", "decoder"])
    def test_env_value_outside_choices_is_usage_error(
            self, tmp_path, monkeypatch, capsys, variable, value, choices):
        monkeypatch.setenv(variable, value)
        # neither file exists: the value is rejected before either is read
        rc = main(["rewrite", "--input", str(tmp_path / "in.jsonl"),
                   "--checkpoint", str(tmp_path / "m.npz"),
                   "--out", str(tmp_path / "out.jsonl")])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: environment override %s=%r is not one of %s\n"
            % (variable, value, choices))

    def test_invalid_env_value_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("RESTATE_SEED", "not-a-number")
        rc = main(["datagen", "--out", "/tmp/x", "--train-size", "1",
                   "--dev-size", "0", "--test-size", "0"])
        assert rc == EXIT_USAGE
        assert "RESTATE_SEED" in capsys.readouterr().err


# Any JSON value, for overwriting a field of a record or checkpoint.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 200)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
DTYPES = ["int8", "float32", "complex128", "bool", "<U3", "S2"]


def _overwrite(obj, path, value):
    """Overwrite the entry of nested dicts and lists that the choice
    indices in path lead to, stopping early at a leaf."""
    for i, choice in enumerate(path):
        keys = sorted(obj) if isinstance(obj, dict) else range(len(obj))
        if not keys:
            return
        key = keys[choice % len(keys)]
        if i == len(path) - 1 or not isinstance(obj[key], (dict, list)):
            obj[key] = value
            return
        obj = obj[key]


@st.composite
def corrupt_checkpoint(draw, raw, arrays):
    """Bytes of the checkpoint with one random fault."""
    kind = draw(st.sampled_from(["bytes", "truncate", "array", "meta"]))
    if kind == "bytes":
        data = bytearray(raw)
        for _ in range(draw(st.integers(1, 4))):
            at = draw(st.integers(0, len(data) - 1))
            data[at] = draw(st.integers(0, 255))
        return bytes(data)
    if kind == "truncate":
        return raw[:draw(st.integers(0, len(raw) - 1))]
    arrays = dict(arrays)
    if kind == "array":
        name = draw(st.sampled_from(sorted(arrays)))
        op = draw(st.sampled_from(["delete", "flatten", "narrow", "dtype",
                                   "scalar", "inf"]))
        a = arrays[name]
        if op == "delete":
            del arrays[name]
        elif op == "flatten":
            arrays[name] = a.reshape(-1)
        elif op == "narrow":
            arrays[name] = a[..., :-1]
        elif op == "dtype":
            arrays[name] = a.astype(draw(st.sampled_from(DTYPES)))
        elif op == "scalar":
            arrays[name] = np.float64(draw(st.floats()))
        elif a.dtype.kind == "f":
            arrays[name] = np.full_like(a, np.inf)
    else:
        meta = json.loads(bytes(arrays["__meta__"]).decode())
        path = draw(st.lists(st.integers(0, 500), min_size=1, max_size=3))
        _overwrite(meta, path, draw(JSON_VALUES))
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(),
                                           dtype=np.uint8)
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


@st.composite
def corrupt_record(draw, record):
    """One input line: the record with one random fault."""
    kind = draw(st.sampled_from(["field", "delete", "line"]))
    if kind == "line":
        return draw(st.text(max_size=20).filter(lambda t: "\n" not in t)
                    | JSON_VALUES.map(json.dumps))
    rec = json.loads(json.dumps(record))
    path = draw(st.lists(st.integers(0, 500), min_size=1, max_size=4))
    if kind == "delete":
        key = sorted(rec)[path[0] % len(rec)]
        del rec[key]
    else:
        _overwrite(rec, path, draw(JSON_VALUES))
    return json.dumps(rec)


def _run_quietly(argv):
    """main(argv) -> (exit code, stderr lines, warnings raised)."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        rc = main(argv)
    return rc, err.getvalue(), len(caught)


@pytest.fixture(scope="module")
def recipe_checkpoint(workdir):
    """A checkpoint in the CLI's default model shape, the recipe's."""
    ckpt = workdir / "recipe.npz"
    rc, _, _ = _run_quietly(["train", "--input",
                             str(workdir / "corpus" / "train.jsonl"),
                             "--out", str(ckpt), "--epochs", "1",
                             "--seed", "3"])
    assert rc == EXIT_OK
    return ckpt


class TestCorruptedInputs:
    """rewrite on a corrupted checkpoint or record, evaluate on a
    corrupted decode report or gold record, and extract-constraints,
    inspect-flags and train on a corrupted record end cleanly: exit 0, 2
    or 3 with at most one line on stderr, never a traceback."""

    @staticmethod
    def _ends_cleanly(argv):
        rc, err, n_warnings = _run_quietly(argv)
        assert rc in (EXIT_OK, EXIT_USAGE, EXIT_RUNTIME)
        assert err.count("\n") + n_warnings <= 1, err
        if rc != EXIT_OK:
            assert err.startswith("error: ") and err.endswith("\n"), err

    def _rewrite(self, workdir, ckpt, records):
        inp = workdir / "fuzz-input.jsonl"
        inp.write_text(records)
        self._ends_cleanly(
            ["rewrite", "--input", str(inp), "--checkpoint", str(ckpt),
             "--out", str(workdir / "fuzz-out.jsonl"), "--max-len", "6"])

    @staticmethod
    def _corrupted_corpus(workdir, split, data):
        """A copy of a corpus file whose first record is corrupted, and
        the id that record had."""
        lines = (workdir / "corpus" / split).read_text().splitlines()
        rec = json.loads(lines[0])
        lines[0] = data.draw(corrupt_record(rec))
        path = workdir / ("fuzz-" + split)
        path.write_text("\n".join(lines) + "\n")
        return path, rec["id"]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_corrupted_record_extract_constraints(self, workdir, data):
        path, _ = self._corrupted_corpus(workdir, "train.jsonl", data)
        self._ends_cleanly(["extract-constraints", "--input", str(path),
                            "--out", str(workdir / "fuzz-cons.jsonl")])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_corrupted_record_inspect_flags(self, workdir, data):
        path, rid = self._corrupted_corpus(workdir, "train.jsonl", data)
        self._ends_cleanly(["inspect-flags", "--input", str(path),
                            "--id", rid,
                            "--out", str(workdir / "fuzz-trace.tsv")])

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_corrupted_record_train(self, workdir, data):
        path, _ = self._corrupted_corpus(workdir, "train.jsonl", data)
        self._ends_cleanly(["train", "--input", str(path),
                            "--out", str(workdir / "fuzz-model.npz"),
                            "--epochs", "1", "--dim", "8", "--ff", "8",
                            "--heads", "2", "--enc-layers", "1",
                            "--dec-layers", "1"])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_corrupted_gold_record(self, workdir, scored, data):
        path, _ = self._corrupted_corpus(workdir, "test.jsonl", data)
        self._ends_cleanly(["evaluate",
                            "--outputs", str(scored / "decoded.jsonl"),
                            "--gold", str(path),
                            "--out", str(workdir / "fuzz-report.json")])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_corrupted_checkpoint(self, workdir, recipe_checkpoint, data):
        raw = recipe_checkpoint.read_bytes()
        with np.load(recipe_checkpoint) as npz:
            arrays = {k: npz[k] for k in npz.files}
        ckpt = workdir / "fuzz.npz"
        ckpt.write_bytes(data.draw(corrupt_checkpoint(raw, arrays)))
        line = (workdir / "corpus" / "test.jsonl").read_text().splitlines()[0]
        self._rewrite(workdir, ckpt, line + "\n")

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_corrupted_record(self, workdir, recipe_checkpoint, data):
        lines = (workdir / "corpus" / "test.jsonl").read_text().splitlines()
        bad = data.draw(corrupt_record(json.loads(lines[0])))
        self._rewrite(workdir, recipe_checkpoint,
                      "\n".join([lines[1], bad, lines[2]]) + "\n")

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_corrupted_report(self, workdir, scored, data):
        lines = (scored / "decoded.jsonl").read_text().splitlines()
        lines[0] = data.draw(corrupt_record(json.loads(lines[0])))
        outputs = workdir / "fuzz-decoded.jsonl"
        outputs.write_text("\n".join(lines) + "\n")
        rc, err, n_warnings = _run_quietly(
            ["evaluate", "--outputs", str(outputs),
             "--gold", str(workdir / "corpus" / "test.jsonl"),
             "--out", str(workdir / "fuzz-report.json")])
        assert rc in (EXIT_OK, EXIT_USAGE)
        assert err.count("\n") + n_warnings <= 1, err
        if rc != EXIT_OK:
            assert err.startswith("error: ") and err.endswith("\n"), err

    def test_message_quoting_a_multiline_id_stays_one_line(
            self, workdir, recipe_checkpoint):
        rec = json.loads(
            (workdir / "corpus" / "test.jsonl").read_text().splitlines()[0])
        rec["id"] = "two\nlines"
        rec["constraints"] = "none"
        self._rewrite(workdir, recipe_checkpoint, json.dumps(rec) + "\n")


class TestPipelineCompose:
    def test_full_chain_produces_report(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        ckpt = tmp_path / "m.npz"
        decoded = tmp_path / "d.jsonl"
        report = tmp_path / "r.json"
        assert main(["datagen", "--out", str(corpus), "--seed", "2",
                     "--train-size", "8", "--dev-size", "0",
                     "--test-size", "3"]) == EXIT_OK
        assert main(["train", "--input", str(corpus / "train.jsonl"),
                     "--out", str(ckpt), "--epochs", "1", "--dim", "32",
                     "--ff", "64", "--heads", "2"]) == EXIT_OK
        assert main(["rewrite", "--input", str(corpus / "test.jsonl"),
                     "--checkpoint", str(ckpt), "--out", str(decoded),
                     "--decoder", "beam", "--beam", "2"]) == EXIT_OK
        assert main(["evaluate", "--outputs", str(decoded),
                     "--gold", str(corpus / "test.jsonl"),
                     "--out", str(report)]) == EXIT_OK
        capsys.readouterr()
        rep = json.loads(report.read_text())
        assert rep["n_instances"] == 3
