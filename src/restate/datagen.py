"""Synthetic polar-question corpus over templated product domains.

Every instance pairs a yes/no product question with a short answer and
a product-title context, plus the decontextualized statement the
rewriter should produce. Templates emit their own bracketed parses, so
gold constraints come straight from the extraction algorithm with no
parser dependency. Four answer shapes are covered: a bare explanation,
a complement clause ("also , ..."), a conditional clause ("if it is
..."), and a negative answer naming an alternative ("but ... instead").
Each answer's sentence subjects may be first person ("mine has ...",
"i can ..."), drawn per instance while the corpus is generated; the
target keeps its second-person framing.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import MISSING, asdict, dataclass, fields, replace

from .treebank import (Constraint, concat_pqa, constraint_token_rows,
                       extract_constraints, parse_bracketed)
from .vocab import tokenize

CATEGORIES = ("explanation", "complement", "condition", "alternative")

# closed-class tokens targets may use even when absent from the inputs
FUNCTION_WORDS = frozenset({
    ",", ".", "?", "the", "a", "an", "it", "this", "you", "yes", "no",
    "not", "is", "does", "do", "can", "has", "have", "also", "but",
    "if", "instead", "on", "in",
})

DEFAULT_SPLIT_SIZES = (1000, 100, 400)
SPLIT_NAMES = ("train", "dev", "test")


class InvalidMix(ValueError):
    """Raised for malformed category mixes or instance counts."""


class MissingParse(ValueError):
    """Raised when an input record has neither parses nor constraints."""


class MalformedRecord(ValueError):
    """Raised when an input record does not follow the corpus schema."""


@dataclass(frozen=True)
class PQAInstance:
    """One question/answer/context triple with its gold rewrite.

    This is the corpus record format: a record is the JSON object of
    these fields, in this order, with the constraints as objects of
    Constraint's fields. A record may leave out any field with a default
    (instance_from_json extracts absent constraints from the parses).
    """

    id: str
    question: str
    answer: str
    context: str
    category: str = ""
    polarity: str = ""
    target: str = ""
    question_parse: str = ""
    answer_parse: str = ""
    constraints: tuple = ()
    domain: str = ""
    split: str = ""


DOMAINS = {
    "electronics": {
        "products": (("samsung galaxy a20", "phone"),
                     ("dell xps 13", "laptop"),
                     ("sony bravia x80", "tv"),
                     ("apple ipad mini", "tablet")),
        "features": ("bluetooth", "a camera", "a touchscreen",
                     "an hdmi port", "wireless charging",
                     "a memory card slot"),
        "things": ("snapchat", "twitter", "netflix", "zoom"),
        "verbs": ("install", "run", "download", "stream"),
        "prep": "on",
        "variants": ("pro", "plus"),
    },
    "kitchenware": {
        "products": (("ninja blast max", "blender"),
                     ("instant duo 7", "cooker"),
                     ("oxo steel pro", "kettle"),
                     ("lodge classic 10", "skillet")),
        "features": ("presets", "a timer", "a glass lid", "a steel blade",
                     "a safety lock", "a steam vent"),
        "things": ("soup", "rice", "oatmeal", "stew"),
        "verbs": ("make", "cook"),
        "prep": "in",
        "variants": ("deluxe", "compact"),
    },
    "outdoor": {
        "products": (("coleman sundome 4", "tent"),
                     ("osprey talon 22", "backpack"),
                     ("yeti tundra 45", "cooler"),
                     ("garmin etrex 32", "gps")),
        "features": ("a compass", "a drain plug", "a rain cover",
                     "a hip belt", "side pockets", "a carry handle"),
        "things": ("gear", "ice", "maps", "food"),
        "verbs": ("store", "keep", "pack"),
        "prep": "in",
        "variants": ("xl", "ultralight"),
    },
}

_DETERMINERS = frozenset({"a", "an", "the"})
_ADJECTIVES = frozenset({"wireless", "side"})
_PLURALS = frozenset({"presets", "pockets", "maps"})


# ---------------------------------------------------------------------------
# parse-fragment builders


def _tag_for(tok):
    if tok in _DETERMINERS:
        return "DT"
    if tok in _ADJECTIVES:
        return "JJ"
    if tok in _PLURALS:
        return "NNS"
    return "NN"


def _np_phrase(text):
    parts = " ".join("(%s %s)" % (_tag_for(t), t) for t in text.split())
    return "(NP %s)" % parts


def _np_product(name, kind):
    parts = " ".join("(NNP %s)" % t for t in name.split())
    return "(NP (DT the) %s (NN %s))" % (parts, kind)


def _np_this(kind):
    return "(NP (DT this) (NN %s))" % kind


_NP_IT = "(NP (PRP it))"
_NP_YOU = "(NP (PRP you))"
_NP_MINE = "(NP (PRP mine))"
_NP_I = "(NP (PRP i))"
_COND_SBAR = ("(SBAR (IN if) (S (NP (PRP it)) (VP (VBZ is)%s "
              "(NP (DT the) (NN %s) (NN model)))))")


def _cond_sbar(variant, polarity):
    return _COND_SBAR % (" (RB not)" if polarity == "no" else "", variant)


def _vp_have(feature, polarity):
    if polarity == "yes":
        return "(VP (VBZ has) %s)" % _np_phrase(feature)
    return "(VP (VBZ does) (RB not) (VB have) %s)" % _np_phrase(feature)


def _vp_can(verb, thing, prep, polarity):
    inner = "(VP (VB %s) %s (PP (IN %s) %s))" % (
        verb, _np_phrase(thing), prep, _NP_IT)
    if polarity == "yes":
        return "(VP (MD can) %s)" % inner
    return "(VP (MD can) (RB not) %s)" % inner


def _sentence(lead, subject, vp, tail=""):
    return "(S %s %s %s%s (. .))" % (lead, subject, vp, tail)


_LEAD_YES = "(INTJ (UH yes)) (, ,)"
_LEAD_NO = "(INTJ (UH no)) (, ,)"
_LEAD_ALSO = "(ADVP (RB also)) (, ,)"
_LEAD_BUT = "(CC but)"
_TAIL_INSTEAD = " (ADVP (RB instead))"


# ---------------------------------------------------------------------------
# instance assembly


def _question(family, qstyle, product, feature, verb, thing, prep):
    """The question's parse; extract_constraints reads its gold
    constraints off it."""
    name, kind = product
    if family == "have":
        subject = {"name": _np_product(name, kind),
                   "this": _np_this(kind),
                   "it": _NP_IT}[qstyle]
        return "(SBARQ (VBZ does) %s (VP (VB have) %s) (. ?))" % (
            subject, _np_phrase(feature))
    obj = _np_this(kind) if qstyle == "this" else _NP_IT
    return ("(SBARQ (MD can) %s (VP (VB %s) %s (PP (IN %s) %s))"
            " (. ?))") % (_NP_YOU, verb, _np_phrase(thing), prep, obj)


def _answer(family, category, polarity, feature, feature2, verb, verb2,
            thing, thing2, prep, variant, first_person):
    """The answer's parse, from which extract_constraints reads its gold
    constraints; with first_person, each sentence's subject is "mine"
    or "i"."""
    lead = _LEAD_YES if polarity == "yes" else _LEAD_NO
    if family == "have":
        first_vp = _vp_have(feature, polarity)
        subject = _NP_MINE if first_person else _NP_IT
        second_vp = {"complement": _vp_have(feature2, polarity),
                     "alternative": _vp_have(feature2, "yes")}
    else:
        first_vp = _vp_can(verb, thing, prep, polarity)
        subject = _NP_I if first_person else _NP_YOU
        second_vp = {"complement": _vp_can(verb2, thing2, prep, polarity),
                     "alternative": _vp_can(verb, thing2, prep, "yes")}
    if category == "explanation":
        return _sentence(lead, subject, first_vp)
    if category == "condition":
        return _sentence(lead, subject, first_vp,
                         " " + _cond_sbar(variant, polarity))
    lead2, tail2 = ((_LEAD_ALSO, "") if category == "complement"
                    else (_LEAD_BUT, _TAIL_INSTEAD))
    return "(S %s %s)" % (_sentence(lead, subject, first_vp),
                          _sentence(lead2, subject, second_vp[category], tail2))


def _target(family, category, polarity, product, feature, feature2,
            verb, verb2, thing, thing2, prep, variant):
    name, kind = product
    full = "the %s %s" % (name, kind)
    lead = "Yes," if polarity == "yes" else "No,"
    if family == "have":
        first = ("%s has %s" % (full, feature) if polarity == "yes"
                 else "%s does not have %s" % (full, feature))
        second = {
            "complement": ("it has %s" % feature2 if polarity == "yes"
                           else "it does not have %s" % feature2),
            "alternative": "it has %s instead" % feature2,
        }
    else:
        core = ("you can %s %s %s" if polarity == "yes"
                else "you can not %s %s %s")
        first = (core % (verb, thing, prep)) + " " + full
        second = {
            "complement": (("you can %s %s %s it" if polarity == "yes"
                            else "you can not %s %s %s it")
                           % (verb2, thing2, prep)),
            "alternative": "you can %s %s %s it instead" % (verb, thing2, prep),
        }
    if category == "explanation":
        return "%s %s ." % (lead, first)
    if category == "condition":
        cond = ("if it is the %s model" if polarity == "yes"
                else "if it is not the %s model") % variant
        return "%s %s %s ." % (lead, first, cond)
    joiner = "Also ," if category == "complement" else "But"
    return "%s %s . %s %s ." % (lead, first, joiner, second[category])


def make_instance(iid, category, polarity, domain, product, family, qstyle,
                  feature, feature2, verb, verb2, thing, thing2, variant,
                  first_person=False, parse=parse_bracketed):
    """Deterministic instance kernel; generate() samples the arguments.

    parse reads the two bracket strings: parse_bracketed, so that no
    tree outlives the call, or the memo generate() keeps for its own
    call."""
    if category not in CATEGORIES:
        raise InvalidMix("unknown category %r" % category)
    prep = DOMAINS[domain]["prep"]
    q_parse = _question(family, qstyle, product, feature, verb, thing, prep)
    a_parse = _answer(family, category, polarity, feature, feature2, verb,
                      verb2, thing, thing2, prep, variant, first_person)
    target = _target(family, category, polarity, product, feature, feature2,
                     verb, verb2, thing, thing2, prep, variant)
    q_tree = parse(q_parse)
    a_tree = parse(a_parse)
    return PQAInstance(
        id=iid,
        question=" ".join(q_tree.leaves()),
        answer=" ".join(a_tree.leaves()),
        context="%s %s" % product,
        category=category,
        polarity=polarity,
        target=target,
        question_parse=q_parse,
        answer_parse=a_parse,
        constraints=tuple(extract_constraints(q_tree, a_tree)),
        domain=domain,
    )


def _sample_instance(iid, category, rng, first_person, parse):
    domain = rng.choice(sorted(DOMAINS))
    inv = DOMAINS[domain]
    product = rng.choice(inv["products"])
    family = rng.choice(("have", "verb"))
    qstyle = rng.choice(("name", "this", "it") if family == "have"
                        else ("this", "it"))
    polarity = "no" if category == "alternative" else rng.choice(("yes", "no"))
    feature, feature2 = rng.sample(inv["features"], 2)
    thing, thing2 = rng.sample(inv["things"], 2)
    verb = rng.choice(inv["verbs"])
    verb2 = rng.choice(inv["verbs"])
    variant = rng.choice(inv["variants"])
    return make_instance(iid, category, polarity, domain, product, family,
                         qstyle, feature, feature2, verb, verb2, thing, thing2,
                         variant, first_person, parse)


def _quotas(mix, n):
    """Largest-remainder apportionment of n over the category mix."""
    shares = [(cat, mix.get(cat, 0.0) * n) for cat in CATEGORIES]
    base = {cat: int(s) for cat, s in shares}
    left = n - sum(base.values())
    by_frac = sorted(shares, key=lambda cs: (-(cs[1] - int(cs[1])),
                                             CATEGORIES.index(cs[0])))
    for cat, _ in by_frac[:left]:
        base[cat] += 1
    return base


def _check_mix(mix, n):
    if n < 1:
        raise InvalidMix("need at least one instance, got %d" % n)
    for cat, p in mix.items():
        if cat not in CATEGORIES:
            raise InvalidMix("unknown category %r" % cat)
        if p < 0:
            raise InvalidMix("negative share for %r" % cat)
    total = sum(mix.values())
    if abs(total - 1.0) > 1e-6:
        raise InvalidMix("mix sums to %g, expected 1" % total)


def generate(seed, n, category_mix=None, first_person_rate=0.0):
    """Produce n instances with category frequencies matching the mix.

    Counts are apportioned exactly (largest remainder), instances are
    shuffled, and all sampling flows from the one seed, so the same
    call always returns the same corpus. Each answer is first person
    with probability first_person_rate, drawn in instance order from a
    stream of its own, so the rate moves no other draw.
    """
    if category_mix is None:
        category_mix = {cat: 1.0 / len(CATEGORIES) for cat in CATEGORIES}
    _check_mix(category_mix, n)
    if not (0.0 <= first_person_rate <= 1.0):
        raise ValueError("first_person_rate must lie in [0, 1], got %r"
                         % first_person_rate)
    quotas = _quotas(category_mix, n)
    slots = [cat for cat in CATEGORIES for _ in range(quotas[cat])]
    rng = random.Random(seed)
    rng.shuffle(slots)
    style_rng = random.Random("%s:style" % seed)
    # each distinct bracket string is parsed once per call (about 1,200 of
    # them at (300, 100, 2000)); ParseTree is frozen, so instances may share
    # a tree, and the memo goes when the call returns
    parse = functools.lru_cache(maxsize=None)(parse_bracketed)
    return [_sample_instance("pqa-%05d" % i, cat, rng,
                             style_rng.random() < first_person_rate, parse)
            for i, cat in enumerate(slots)]


def gold_constraints(instance):
    """Re-extract the constraint list from the instance's stored parses."""
    return extract_constraints(parse_bracketed(instance.question_parse),
                               parse_bracketed(instance.answer_parse))


# ---------------------------------------------------------------------------
# corpus assembly and serialization


def build_corpus(seed, split_sizes=DEFAULT_SPLIT_SIZES, category_mix=None,
                 first_person_rate=0.3):
    """Generate a full train/dev/test corpus from one root seed."""
    if len(split_sizes) != len(SPLIT_NAMES):
        raise InvalidMix("expected %d split sizes" % len(SPLIT_NAMES))
    if min(split_sizes) < 0:
        raise InvalidMix("split sizes must not be negative, got %s"
                         % list(split_sizes))
    instances = generate(seed, sum(split_sizes), category_mix,
                         first_person_rate)
    names = [name for name, size in zip(SPLIT_NAMES, split_sizes)
             for _ in range(size)]
    return [replace(inst, split=name) for inst, name in zip(instances, names)]


def _carried_constraint(c):
    """A record's constraint object as a Constraint, or None when it does
    not have the corpus shape."""
    if not (isinstance(c, dict)
            and isinstance(c.get("tokens"), list)
            and all(isinstance(t, str) for t in c["tokens"])
            and all(type(c.get(k)) is int for k in ("start", "end"))
            and all(isinstance(c.get(k), str) for k in ("label", "source"))):
        return None
    return Constraint(tokens=tuple(c["tokens"]), start=c["start"],
                      end=c["end"], label=c["label"], source=c["source"])


def instance_from_json(rec):
    """Decode and check one corpus record; MalformedRecord or
    MissingParse when it does not follow PQAInstance's format.

    Absent string fields read as "". A non-empty parse must yield
    exactly the tokens of its text. Each carried constraint must repeat
    the question or answer tokens at its span.
    """
    if not isinstance(rec, dict):
        raise MalformedRecord("record is not a JSON object")
    text_fields = [f for f in fields(PQAInstance) if f.name != "constraints"]
    for f in text_fields:
        if f.default is MISSING and f.name not in rec:
            raise MalformedRecord("record is missing %r" % f.name)
    d = {f.name: rec.get(f.name, "") for f in text_fields}
    wrong = [key for key, value in d.items() if not isinstance(value, str)]
    if wrong:
        raise MalformedRecord("record %r: not a string: %s"
                              % (d["id"], ", ".join(wrong)))
    tokens = {key: tokenize(d[key]) for key in ("question", "answer")}
    trees = {}
    for key in tokens:
        if d[key + "_parse"]:
            trees[key] = parse_bracketed(d[key + "_parse"])
            if trees[key].leaves() != tokens[key]:
                raise MalformedRecord(
                    "record %r: %s_parse does not yield the tokens of its %s"
                    % (d["id"], key, key))
    if "constraints" not in rec:
        if len(trees) < 2:
            raise MissingParse(
                "record %s carries neither constraints nor parses" % d["id"])
        return PQAInstance(constraints=tuple(extract_constraints(
            trees["question"], trees["answer"])), **d)
    carried = rec["constraints"]
    if not isinstance(carried, list):
        carried = [None]
    constraints = tuple(map(_carried_constraint, carried))
    if None in constraints:
        raise MalformedRecord(
            "record %s: constraints must be a list of objects with string"
            " tokens, label and source and integer start and end" % d["id"])
    for i, c in enumerate(constraints):
        text = tokens.get(c.source)
        if (text is None or not 0 <= c.start < c.end <= len(text)
                or list(c.tokens) != text[c.start:c.end]):
            raise MalformedRecord(
                "record %r: constraint %d does not match tokens [%d, %d) of"
                " source %r" % (d["id"], i, c.start, c.end, c.source))
    return PQAInstance(constraints=constraints, **d)


def read_jsonl(path):
    """The JSON value of each non-blank line of a file."""
    with open(path) as fh:
        return [json.loads(line) for line in map(str.strip, fh) if line]


def write_corpus(instances, path):
    with open(path, "w") as fh:
        for inst in instances:
            fh.write(json.dumps(asdict(inst)) + "\n")


def read_corpus(path):
    """The checked instances of a corpus file, in file order."""
    return [instance_from_json(rec) for rec in read_jsonl(path)]


def split_of(instances, name):
    return [inst for inst in instances if inst.split == name]


def model_record(inst):
    """Flatten an instance into the dict the training loop consumes."""
    x_tokens, layout = concat_pqa(tokenize(inst.question),
                                  tokenize(inst.answer),
                                  tokenize(inst.context))
    rows = constraint_token_rows(list(inst.constraints), layout)
    return {
        "id": inst.id,
        "x_tokens": x_tokens,
        "target_tokens": tokenize(inst.target),
        "constraint_rows": [list(r) for r in rows],
    }


def vocabulary_tokens():
    """Every token the template grammar can emit, plus function words.

    Gives a closed, draw-independent vocabulary so models never meet an
    unknown token regardless of which instances a seed happens to pick.
    """
    pool = set(FUNCTION_WORDS)
    pool.update(["yes", "no", "model", "mine", "i"])
    for inv in DOMAINS.values():
        pool.add(inv["prep"])
        for name, kind in inv["products"]:
            pool.update(name.split())
            pool.add(kind)
        for group in ("features", "things", "verbs", "variants"):
            for phrase in inv[group]:
                pool.update(phrase.split())
    return sorted(pool)
