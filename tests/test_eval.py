"""Metrics and audits against independently computed reference values.

The 25 fixed sentence pairs and every expected number below were frozen
from a separate scorer written with different algorithmic choices
(exact rational arithmetic for BLEU, memoized-recursion LCS) before
this module existed.
"""

import dataclasses
import hashlib
import json
import random

import pytest

from restate import datagen as dg
from restate.evaluation import (EmptyCorpus, EmptyInput, EvalReport,
                                IdMismatch, bleu, build_report,
                                corpus_rouge_l, coverage_audit, lcs_length,
                                rouge_l, rouge_l_scores, text_table)
from restate.flags import SatisfierConfig
from restate.vocab import tokenize

PAIRS = [
    ("yes the dell xps 13 laptop has a camera .",
     "yes the dell xps 13 laptop has a camera ."),
    ("no the samsung galaxy a20 phone does not have a camera .",
     "no the samsung galaxy a20 phone does not have wireless charging ."),
    ("yes you can install snapchat on the samsung galaxy a20 phone .",
     "yes you can install snapchat on the samsung galaxy a20 phone ."),
    ("the cat sat", "the cat sat down"),
    ("the the the the", "the cat"),
    ("yes it has bluetooth", "yes the sony bravia x80 tv has bluetooth ."),
    ("no but it has a timer instead .",
     "no the instant duo 7 cooker does not have a glass lid ."
     " but it has a timer instead ."),
    ("yes the coleman sundome 4 tent has a rain fly if it is the xl model .",
     "yes the coleman sundome 4 tent has a rain fly if it is the xl model ."),
    ("completely different words here", "nothing matches at all in this one"),
    ("a b c d e f g", "a b c d e f g h i j"),
    ("a b c d e f g h i j", "a b c d e f g"),
    ("yes the oxo steel pro kettle has a keep warm mode .",
     "yes the oxo steel pro kettle has a keep warm mode ."),
    ("no you can not store ice in this cooler",
     "no you can not store ice in the yeti tundra 45 cooler ."),
    ("yes , it does .", "yes , the garmin etrex 32 gps does ."),
    ("the box of cables", "the box of cables"),
    ("ship to brazil", "can be shipped by us to brazil"),
    ("have a camera", "has a camera"),
    ("one", "one two three four five"),
    ("one two three four five", "one"),
    ("repeat repeat repeat something", "repeat something repeat"),
    ("yes the lodge classic 10 skillet is dishwasher safe .",
     "no the lodge classic 10 skillet is not dishwasher safe ."),
    ("also , it has a hip belt .",
     "yes the osprey talon 22 backpack has a hip belt ."),
    ("but you can get twitter on it instead",
     "no you can not get snapchat on it . but you can get twitter on it instead"),
    ("if it is a smart phone",
     "yes you can install snapchat if it is a smart phone"),
    ("yes the apple ipad mini tablet has a touchscreen and a camera .",
     "yes the apple ipad mini tablet has a touchscreen and a camera ."),
]

HYPS = [h.split() for h, _ in PAIRS]
REFS = [r.split() for _, r in PAIRS]

# per-pair ROUGE-L F reference values (beta = 1.2)
ROUGE_F = {0: 1.0, 1: 0.8333333333, 3: 0.8356164384, 4: 0.3546511628,
           8: 0.0, 10: 0.8505976096, 15: 0.3730886850, 24: 1.0}


class TestBleuOracle:
    def test_corpus_value(self):
        assert bleu(HYPS, REFS) == pytest.approx(61.3990891354, abs=1e-8)

    def test_corpus_value_smoothed_equals_unsmoothed_here(self):
        # no zero-count order on this corpus, so smoothing is a no-op
        assert bleu(HYPS, REFS, smooth=True) == \
            pytest.approx(61.3990891354, abs=1e-8)

    def test_subcorpus_value(self):
        assert bleu(HYPS[:5], REFS[:5]) == pytest.approx(84.8886439946,
                                                         abs=1e-8)

    def test_single_pair_zero_without_smoothing(self):
        assert bleu([["the", "cat", "sat"]], [["the", "cat", "sat", "down"]]) \
            == 0.0

    def test_single_pair_smoothed(self):
        got = bleu([["the", "cat", "sat"]], [["the", "cat", "sat", "down"]],
                   smooth=True)
        assert got == pytest.approx(71.6531310574, abs=1e-8)

    def test_perfect_match_is_100(self):
        assert bleu(HYPS, HYPS) == pytest.approx(100.0)

    def test_disjoint_is_zero(self):
        assert bleu([["a", "b", "c", "d"]], [["w", "x", "y", "z"]]) == 0.0

    def test_permutation_invariant(self):
        order = list(range(len(PAIRS)))
        random.Random(4).shuffle(order)
        shuffled = bleu([HYPS[i] for i in order], [REFS[i] for i in order])
        assert shuffled == pytest.approx(bleu(HYPS, REFS), abs=1e-12)

    def test_errors(self):
        with pytest.raises(EmptyCorpus):
            bleu([], [])
        with pytest.raises(EmptyCorpus):
            bleu(HYPS, REFS[:-1])


class TestRougeOracle:
    def test_mean_f(self):
        assert corpus_rouge_l(HYPS, REFS) == pytest.approx(0.6727049730,
                                                           abs=1e-9)

    def test_per_pair_values(self):
        for idx, want in ROUGE_F.items():
            assert rouge_l(HYPS[idx], REFS[idx]) == pytest.approx(want,
                                                                  abs=1e-9)

    def test_hand_lcs_case(self):
        p, r, f = rouge_l_scores("a b c d".split(), "a c d e".split())
        assert (p, r, f) == pytest.approx((0.75, 0.75, 0.75))

    def test_identity_and_disjoint(self):
        assert rouge_l(["x", "y", "z"], ["x", "y", "z"]) == 1.0
        assert rouge_l(["x", "y"], ["p", "q"]) == 0.0

    def test_lcs_length(self):
        assert lcs_length("abcde", "ace") == 3
        assert lcs_length("", "abc") == 0

    def test_permutation_invariant_mean(self):
        order = list(range(len(PAIRS)))
        random.Random(9).shuffle(order)
        shuffled = corpus_rouge_l([HYPS[i] for i in order],
                                  [REFS[i] for i in order])
        assert shuffled == pytest.approx(corpus_rouge_l(HYPS, REFS), abs=1e-12)

    def test_errors(self):
        with pytest.raises(EmptyInput):
            rouge_l([], ["a"])
        with pytest.raises(EmptyCorpus):
            corpus_rouge_l([], [])


ELEC = ("samsung galaxy a20", "phone")


def cam_instance(iid="a1"):
    return dg.make_instance(
        iid, "explanation", "yes", "electronics", ELEC, "have", "it",
        "a camera", "bluetooth", "install", "run", "snapchat", "twitter",
        "pro")


def outputs_for(instances, tokens_fn):
    return [{"id": inst.id, "output_tokens": tokens_fn(inst)}
            for inst in instances]


class TestCoverageAudit:
    def test_paraphrase_splits_modes(self):
        # gold target satisfies "has a camera" verbatim; the question
        # constraint "have a camera" is only reachable semantically
        inst = cam_instance()
        outs = outputs_for([inst], lambda i: tokenize(i.target))
        cov = coverage_audit(outs, [inst])
        assert cov["lexical"] == 0.5
        assert cov["semantic"] == 1.0
        assert cov["n_constraints"] == 2

    def test_empty_output_zero(self):
        inst = cam_instance()
        cov = coverage_audit([{"id": inst.id, "output_tokens": []}], [inst])
        assert cov["lexical"] == 0.0 and cov["semantic"] == 0.0

    def test_verbatim_everything_lexical_one(self):
        inst = cam_instance()
        # emit both constraint spans verbatim
        toks = tokenize(inst.target) + ["have", "a", "camera"]
        cov = coverage_audit([{"id": inst.id, "output_tokens": toks}], [inst])
        assert cov["lexical"] == 1.0

    def test_verbatim_constraints_are_semantically_covered(self):
        # long constraints copied word by word creep past the semantic
        # jump gate (the replay flips few of them), but a verbatim hit
        # is covered in meaning too
        insts = dg.build_corpus(13, (24, 0, 0))
        outs = outputs_for(insts, lambda i: [t for c in i.constraints
                                             for t in c.tokens])
        cov = coverage_audit(outs, insts)
        assert cov["lexical"] == 1.0
        assert cov["semantic"] == 1.0
        for stats in cov["per_category"].values():
            assert stats["semantic"] == 1.0

    def test_lexical_never_beats_semantic_without_jump_gate(self):
        insts = dg.build_corpus(13, (24, 0, 0))
        outs = outputs_for(insts, lambda i: tokenize(i.target))
        cov = coverage_audit(outs, insts,
                             config=SatisfierConfig(threshold_b=0.0))
        assert cov["lexical"] <= cov["semantic"]

    def test_id_mismatch(self):
        insts = [cam_instance("a1"), cam_instance("a2")]
        outs = outputs_for(insts, lambda i: tokenize(i.target))
        outs.reverse()
        with pytest.raises(IdMismatch):
            coverage_audit(outs, insts)
        with pytest.raises(IdMismatch):
            coverage_audit(outs[:1], insts)

    def test_per_category_breakdown(self):
        insts = dg.build_corpus(3, (12, 0, 0))
        outs = outputs_for(insts, lambda i: tokenize(i.target))
        cov = coverage_audit(outs, insts)
        assert set(cov["per_category"]) == {i.category for i in insts}
        for stats in cov["per_category"].values():
            assert 0.0 <= stats["lexical"] <= 1.0
            assert 0.0 <= stats["semantic"] <= 1.0


class TestCorrectnessAudit:
    def test_gold_outputs_score_perfect(self):
        insts = dg.build_corpus(6, (16, 0, 0))
        outs = outputs_for(insts, lambda i: tokenize(i.target))
        rep = build_report(outs, insts)
        assert rep.polarity_accuracy == 1.0
        assert rep.style_accuracy == 1.0
        assert rep.context_accuracy == 1.0

    def test_wrong_polarity_detected(self):
        inst = cam_instance()
        toks = tokenize(inst.target)
        toks[0] = "no"
        rep = build_report([{"id": inst.id, "output_tokens": toks}], [inst])
        assert rep.polarity_accuracy == 0.0
        assert rep.context_accuracy == 1.0

    def test_first_person_output_fails_style(self):
        inst = cam_instance()
        toks = tokenize(inst.target) + ["i"]
        rep = build_report([{"id": inst.id, "output_tokens": toks}], [inst])
        assert rep.style_accuracy == 0.0

    def test_missing_context_detected(self):
        inst = cam_instance()
        rep = build_report(
            [{"id": inst.id, "output_tokens": ["yes", ",", "it", "does", "."]}],
            [inst])
        assert rep.context_accuracy == 0.0
        assert rep.polarity_accuracy == 1.0


# toy systems over a gold instance, and the satisfier configs they are
# audited under
SYSTEMS = {
    "gold": lambda i: tokenize(i.target),
    "every-second": lambda i: tokenize(i.target)[::2],
    "polarity-context": lambda i: [i.polarity, ",", *i.context.split(), "."],
    "constraints": lambda i: [t for c in i.constraints for t in c.tokens],
}
CONFIGS = [None, SatisfierConfig(threshold_b=0.0)]


class TestCategoryRows:
    @pytest.mark.parametrize("seed", [0, 3, 13])
    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_row_is_the_report_of_its_category(self, seed, system):
        insts = dg.build_corpus(seed, (16, 0, 0))
        outs = outputs_for(insts, SYSTEMS[system])
        rep = build_report(outs, insts)
        assert set(rep.per_category) == {i.category for i in insts}
        for cat, row in rep.per_category.items():
            idxs = [k for k, i in enumerate(insts) if i.category == cat]
            alone = dataclasses.asdict(build_report(
                [outs[k] for k in idxs], [insts[k] for k in idxs]))
            del alone["per_category"], alone["bertscore"]
            assert row == {"n": alone.pop("n_instances"), **alone}


# SHA-256 of every report and coverage audit below, frozen from the
# implementation that scored each audit and each category separately
REPORT_BYTES_SHA256 = (
    "5075ec0e7219a09353a2276c2e415fa1f0bfad8a190f238c7debccd669027b92")


def test_report_bytes_pinned():
    digest = hashlib.sha256()
    for seed in (0, 3, 13):
        insts = dg.build_corpus(seed, (0, 0, 24))
        for system in sorted(SYSTEMS):
            outs = outputs_for(insts, SYSTEMS[system])
            for config in CONFIGS:
                digest.update(build_report(outs, insts,
                                           config=config).to_json().encode())
                digest.update(json.dumps(coverage_audit(outs, insts,
                                                        config=config),
                                         sort_keys=True).encode())
    assert digest.hexdigest() == REPORT_BYTES_SHA256


@pytest.fixture(scope="module")
def scored():
    insts = dg.build_corpus(21, (20, 0, 0))
    outs = outputs_for(insts, lambda i: tokenize(i.target))
    return build_report(outs, insts), insts


class TestReport:

    def test_gold_report_is_ceiling(self, scored):
        rep, insts = scored
        assert rep.bleu == pytest.approx(100.0)
        assert rep.rouge_l_f == pytest.approx(1.0)
        assert rep.polarity_accuracy == 1.0
        assert rep.style_accuracy == 1.0
        assert rep.context_accuracy == 1.0
        assert rep.coverage_lexical <= 1.0
        assert rep.bertscore is None

    def test_category_rows_present(self, scored):
        rep, insts = scored
        assert set(rep.per_category) == {i.category for i in insts}
        for row in rep.per_category.values():
            assert row["n"] >= 1

    def test_json_roundtrip(self, scored):
        import json
        rep, _ = scored
        back = json.loads(rep.to_json())
        assert back["bleu"] == pytest.approx(100.0)
        assert "per_category" in back

    def test_json_rejects_nan(self, scored):
        import dataclasses
        rep, _ = scored
        with pytest.raises(ValueError):
            dataclasses.replace(rep, rouge_l_f=float("nan")).to_json()

    def test_text_table(self, scored):
        rep, _ = scored
        table = text_table({"gold": rep, "baseline": rep})
        assert "gold" in table and "baseline" in table
        assert "BLEU" in table and "COV-SEM" in table
        assert len(table.splitlines()) == 3
