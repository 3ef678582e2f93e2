"""Corpus generator: quotas, determinism, template constraints, style variants."""

import gc
import hashlib
import inspect
import json
import weakref
from collections import Counter
from dataclasses import asdict

import pytest

from restate import datagen as dg
from restate.treebank import ParseTree, parse_bracketed
from restate.vocab import tokenize

FIRST_PERSON = {"i", "me", "my", "mine", "we", "us", "our", "ours"}


def jsonify(instances):
    return [asdict(i) for i in instances]


class TestQuotas:
    def test_uniform_mix_exact_counts(self):
        insts = dg.generate(3, 1000)
        counts = Counter(i.category for i in insts)
        assert counts == {"explanation": 250, "complement": 250,
                          "condition": 250, "alternative": 250}

    def test_skewed_mix(self):
        mix = {"explanation": 0.5, "complement": 0.25, "condition": 0.25,
               "alternative": 0.0}
        counts = Counter(i.category for i in dg.generate(1, 8, mix))
        assert counts == {"explanation": 4, "complement": 2, "condition": 2}

    def test_largest_remainder_tiebreak(self):
        # 10 * 0.25 = 2.5 each; the two leftover slots go to the first
        # two categories in declaration order
        counts = Counter(i.category for i in dg.generate(0, 10))
        assert counts["explanation"] == 3 and counts["complement"] == 3
        assert counts["condition"] == 2 and counts["alternative"] == 2

    def test_invalid_mixes(self):
        with pytest.raises(dg.InvalidMix):
            dg.generate(0, 0)
        with pytest.raises(dg.InvalidMix):
            dg.generate(0, 10, {"explanation": 0.9})
        with pytest.raises(dg.InvalidMix):
            dg.generate(0, 10, {"explanation": 1.2, "complement": -0.2})
        with pytest.raises(dg.InvalidMix):
            dg.generate(0, 10, {"banter": 1.0})


class TestDeterminism:
    def test_same_seed_identical(self):
        assert jsonify(dg.generate(7, 60)) == jsonify(dg.generate(7, 60))

    def test_different_seed_differs(self):
        assert jsonify(dg.generate(7, 60)) != jsonify(dg.generate(8, 60))

    def test_corpus_rebuild_identical(self):
        a = dg.build_corpus(5, (30, 5, 10))
        b = dg.build_corpus(5, (30, 5, 10))
        assert jsonify(a) == jsonify(b)

    def test_recipe_corpus_is_pinned(self):
        # the benchmark recipe's corpus, as write_corpus's JSON lines; the
        # corpus holds only strings and ints, so the digest holds on any
        # platform
        h = hashlib.sha256()
        for inst in dg.build_corpus(0, (300, 100, 400)):
            h.update((json.dumps(asdict(inst)) + "\n").encode())
        assert h.hexdigest() == ("891960de2dd9b21f4b8d960250f7901c"
                                 "b3b7508ee251a096c4a684587d325685")


@pytest.fixture(scope="module")
def corpus():
    return dg.build_corpus(11, (120, 20, 40))


class TestInstanceInvariants:
    def test_split_sizes(self, corpus):
        counts = Counter(i.split for i in corpus)
        assert counts == {"train": 120, "dev": 20, "test": 40}

    def test_polarity_matches_target_lead(self, corpus):
        for inst in corpus:
            lead = "Yes," if inst.polarity == "yes" else "No,"
            assert inst.target.startswith(lead)

    def test_category_shapes(self, corpus):
        for inst in corpus:
            if inst.category == "condition":
                assert " if " in inst.target
            elif inst.category == "alternative":
                assert inst.polarity == "no"
                assert ". But " in inst.target and " instead" in inst.target
            elif inst.category == "complement":
                assert ". Also , " in inst.target

    def test_target_contains_context_phrase(self, corpus):
        for inst in corpus:
            ctx = " ".join(tokenize(inst.context))
            assert ctx in " ".join(tokenize(inst.target))

    def test_target_is_second_person(self, corpus):
        for inst in corpus:
            assert not set(tokenize(inst.target)) & FIRST_PERSON

    def test_parses_match_texts(self, corpus):
        for inst in corpus:
            assert parse_bracketed(inst.question_parse).leaves() == \
                tokenize(inst.question)
            assert parse_bracketed(inst.answer_parse).leaves() == \
                tokenize(inst.answer)

    def test_constraints_nonempty_and_reextractable(self, corpus):
        for inst in corpus:
            assert len(inst.constraints) >= 1
            again = dg.gold_constraints(inst)
            assert [c.text for c in again] == [c.text for c in inst.constraints]

    def test_vocabulary_closure(self, corpus):
        pool = set(dg.vocabulary_tokens())
        for inst in corpus:
            rec = dg.model_record(inst)
            x = set(rec["x_tokens"])
            assert set(rec["target_tokens"]) <= x | dg.FUNCTION_WORDS
            assert x - {"<sep>"} <= pool
            assert set(rec["target_tokens"]) <= pool


ELEC = ("samsung galaxy a20", "phone")


class TestDeclaredConstraints:
    """The templates write only parses. These exact constraint lists and
    test_recipe_corpus_is_pinned's digest, over a corpus that draws every
    template shape (test_build_corpus_draws_every_template_shape), are
    what check the constraints extracted from them."""

    def test_have_explanation_pronoun_subject(self):
        inst = dg.make_instance(
            "t1", "explanation", "yes", "electronics", ELEC, "have", "it",
            "a camera", "bluetooth", "install", "run", "snapchat", "twitter",
            "pro")
        assert inst.question == "does it have a camera ?"
        assert inst.answer == "yes , it has a camera ."
        assert inst.target == "Yes, the samsung galaxy a20 phone has a camera ."
        assert [(c.source, c.label, c.text) for c in inst.constraints] == [
            ("question", "VP", "have a camera"),
            ("answer", "VP", "has a camera")]

    def test_verb_condition_negative(self):
        inst = dg.make_instance(
            "t2", "condition", "no", "kitchenware", ("instant duo 7", "cooker"),
            "verb", "this", "a timer", "presets", "make", "cook", "soup",
            "rice", "deluxe")
        assert inst.question == "can you make soup in this cooker ?"
        assert inst.answer == \
            "no , you can not make soup in it if it is not the deluxe model ."
        assert inst.target == ("No, you can not make soup in the instant duo 7"
                               " cooker if it is not the deluxe model .")
        assert [(c.source, c.label, c.text) for c in inst.constraints] == [
            ("question", "VP", "make soup in this cooker"),
            ("question", "PP", "in this cooker"),
            ("answer", "VP", "make soup in it"),
            ("answer", "VP", "is not the deluxe model")]

    def test_have_alternative_named_subject(self):
        inst = dg.make_instance(
            "t3", "alternative", "no", "outdoor", ("osprey talon 22", "backpack"),
            "have", "name", "a rain cover", "a compass", "store", "keep",
            "gear", "ice", "xl")
        assert inst.question == \
            "does the osprey talon 22 backpack have a rain cover ?"
        assert inst.answer == ("no , it does not have a rain cover ."
                               " but it has a compass instead .")
        assert inst.target == ("No, the osprey talon 22 backpack does not have"
                               " a rain cover . But it has a compass instead .")
        assert [(c.source, c.label, c.text) for c in inst.constraints] == [
            ("question", "VP", "have a rain cover"),
            ("answer", "VP", "does not have a rain cover"),
            ("answer", "VP", "has a compass")]

    def test_verb_complement_pronoun_object(self):
        inst = dg.make_instance(
            "t4", "complement", "yes", "electronics", ELEC, "verb", "it",
            "a camera", "bluetooth", "install", "stream", "snapchat",
            "netflix", "pro")
        assert inst.question == "can you install snapchat on it ?"
        assert inst.answer == ("yes , you can install snapchat on it ."
                               " also , you can stream netflix on it .")
        assert inst.target == (
            "Yes, you can install snapchat on the samsung galaxy a20 phone ."
            " Also , you can stream netflix on it .")
        assert [(c.source, c.label, c.text) for c in inst.constraints] == [
            ("question", "VP", "install snapchat on it"),
            ("answer", "VP", "install snapchat on it"),
            ("answer", "VP", "stream netflix on it")]


class TestFirstPersonVariants:
    ARGS = ("explanation", "yes", "electronics", ELEC, "have", "it",
            "a camera", "bluetooth", "install", "run", "snapchat", "twitter",
            "pro")

    def base(self, first_person=False):
        return dg.make_instance("v1", *self.ARGS, first_person=first_person)

    def test_rate_zero_unchanged(self):
        assert self.base() == dg.make_instance("v1", *self.ARGS)
        insts = dg.generate(4, 60, first_person_rate=0.0)
        assert jsonify(insts) == jsonify(dg.generate(4, 60))
        assert not any(set(tokenize(i.answer)) & FIRST_PERSON for i in insts)

    def test_rate_one_swaps_subject(self):
        inst = self.base(first_person=True)
        assert inst.answer == "yes , mine has a camera ."
        assert inst.target == self.base().target
        assert parse_bracketed(inst.answer_parse).leaves() == \
            tokenize(inst.answer)
        assert [c.text for c in inst.constraints] == ["have a camera",
                                                      "has a camera"]

    def test_verb_family_subject_becomes_i(self):
        inst = dg.make_instance(
            "v2", "complement", "no", "electronics", ELEC, "verb", "it",
            "a camera", "bluetooth", "install", "stream", "snapchat",
            "netflix", "pro", first_person=True)
        assert inst.answer == ("no , i can not install snapchat on it ."
                               " also , i can not stream netflix on it .")
        assert not set(tokenize(inst.target)) & FIRST_PERSON

    def test_condition_inner_subject_untouched(self):
        inst = dg.make_instance(
            "v3", "condition", "yes", "electronics", ELEC, "have", "it",
            "a camera", "bluetooth", "install", "run", "snapchat", "twitter",
            "pro", first_person=True)
        assert inst.answer == "yes , mine has a camera if it is the pro model ."

    def test_deterministic_given_rng(self):
        a = dg.generate(9, 60, first_person_rate=0.5)
        assert jsonify(a) == jsonify(dg.generate(9, 60, first_person_rate=0.5))
        # the style draws leave every other field as the rate-0 corpus has it
        plain = dg.generate(9, 60)
        styled = [i for i in a if set(tokenize(i.answer)) & FIRST_PERSON]
        assert 0 < len(styled) < len(a)
        assert [i.target for i in a] == [i.target for i in plain]

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError, match="first_person_rate .* 1.5"):
            dg.generate(0, 5, first_person_rate=1.5)
        # the mix is checked first, as build_corpus always did
        with pytest.raises(dg.InvalidMix):
            dg.generate(0, 0, first_person_rate=1.5)


class TestModelRecord:
    def test_layout_and_rows(self):
        inst = dg.make_instance(
            "r1", "explanation", "yes", "electronics", ELEC, "have", "it",
            "a camera", "bluetooth", "install", "run", "snapchat", "twitter",
            "pro")
        rec = dg.model_record(inst)
        assert rec["x_tokens"] == [
            "does", "it", "have", "a", "camera", "?", "<sep>",
            "yes", ",", "it", "has", "a", "camera", ".", "<sep>",
            "samsung", "galaxy", "a20", "phone"]
        assert rec["constraint_rows"] == [[2, 3, 4], [10, 11, 12]]
        for row, c in zip(rec["constraint_rows"], inst.constraints):
            assert " ".join(rec["x_tokens"][p] for p in row) == c.text
        assert rec["target_tokens"][0] == "yes"


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        insts = dg.build_corpus(2, (12, 3, 5))
        path = tmp_path / "corpus.jsonl"
        dg.write_corpus(insts, path)
        back = dg.read_corpus(path)
        assert jsonify(back) == jsonify(insts)

    def test_absent_domain_and_split_read_as_empty(self, tmp_path):
        rec = asdict(dg.build_corpus(2, (1, 0, 0))[0])
        del rec["domain"], rec["split"]
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        (inst,) = dg.read_corpus(path)
        assert (inst.domain, inst.split) == ("", "")
        assert inst.id == rec["id"] and len(inst.constraints) > 0

    def test_non_string_field_is_rejected(self, tmp_path):
        rec = asdict(dg.build_corpus(2, (1, 0, 0))[0])
        rec["question"] = 5
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(ValueError, match="not a string: question"):
            dg.read_corpus(path)

    def test_rewrite_is_byte_identical(self, tmp_path):
        insts = dg.build_corpus(2, (12, 3, 5))
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        dg.write_corpus(insts, p1)
        dg.write_corpus(dg.build_corpus(2, (12, 3, 5)), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_split_filter(self):
        insts = dg.build_corpus(2, (12, 3, 5))
        assert len(dg.split_of(insts, "dev")) == 3

    def test_json_line_schema(self, tmp_path):
        insts = dg.build_corpus(2, (2, 1, 1))
        path = tmp_path / "c.jsonl"
        dg.write_corpus(insts, path)
        first = json.loads(path.read_text().splitlines()[0])
        assert list(first) == ["id", "question", "answer", "context",
                               "category", "polarity", "target",
                               "question_parse", "answer_parse",
                               "constraints", "domain", "split"]


@pytest.fixture
def parsed_trees(monkeypatch):
    """Weak references to every ParseTree node built while the test
    runs; live() returns those still alive after a collection."""
    refs = []
    init = ParseTree.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(ParseTree, "__init__", recording)

    def live():
        assert refs, "no tree was parsed"
        gc.collect()
        return [r for r in refs if r() is not None]

    return live


def test_build_corpus_leaves_no_parsed_trees_behind(parsed_trees):
    insts = dg.build_corpus(0, (5, 1, 1))
    with pytest.raises(ValueError):
        dg.build_corpus(0, (5, 1, 1), first_person_rate=2.0)
    (inst,) = dg.generate(3, 1)
    dg.gold_constraints(inst)
    assert len(insts) == 7 and parsed_trees() == []


def test_make_instance_leaves_no_parsed_trees_behind(parsed_trees):
    inst = dg.make_instance("t1", *TestFirstPersonVariants.ARGS)
    assert inst.constraints and parsed_trees() == []


def test_build_corpus_draws_every_template_shape(monkeypatch):
    # the recipe corpus that test_recipe_corpus_is_pinned hashes draws
    # every shape the sampler can, so its digest covers every template
    shapes = set()
    make_instance = dg.make_instance
    signature = inspect.signature(make_instance)

    def recording(*args, **kwargs):
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        shapes.add(tuple(call.arguments[k] for k in (
            "family", "qstyle", "category", "polarity", "first_person")))
        return make_instance(*args, **kwargs)

    monkeypatch.setattr(dg, "make_instance", recording)
    dg.build_corpus(0, (300, 100, 400))
    qstyles = {"have": ("name", "this", "it"), "verb": ("this", "it")}
    expected = {(family, qstyle, category, polarity, first_person)
                for family, styles in qstyles.items() for qstyle in styles
                for category in dg.CATEGORIES
                for polarity in ("yes", "no")
                if category != "alternative" or polarity == "no"
                for first_person in (False, True)}
    assert len(expected) == 70
    assert shapes == expected
