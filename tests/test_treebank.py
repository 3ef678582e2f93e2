"""Tree parsing, serialization, and constraint extraction.

HAND_TRACED below is the oracle suite: every expected constraint list
was derived by hand before the extractor was written, walking the rule
(NP nodes; single-pronoun NPs dropped; VP/PP/ADVP/ADJP parent promotes
to the parent's yield; NP parent keeps the inner NP; dedup by span;
order by priority NP < VP < other, then span start).
"""

import pytest
from hypothesis import given, strategies as st

from restate.treebank import (Constraint, EmptyNode, OffsetOutOfRange,
                              TagWithoutContent, UnbalancedParens, concat_pqa,
                              constraint_token_rows, extract_constraints,
                              parse_bracketed, serialize)


def labels_and_texts(constraints):
    return [(c.label, c.text) for c in constraints]


# ---------------------------------------------------------------- parsing

def test_parse_simple_preterminal():
    t = parse_bracketed("(NN camera)")
    assert t.is_leaf() and t.label == "NN" and t.token == "camera"
    assert (t.start, t.end) == (0, 1)


def test_parse_spans_left_to_right():
    t = parse_bracketed("(NP (DT the) (NN box))")
    assert t.leaves() == ["the", "box"]
    assert (t.start, t.end) == (0, 2)
    assert [(c.start, c.end) for c in t.children] == [(0, 1), (1, 2)]


def test_parse_accepts_bare_root_wrapper():
    t = parse_bracketed("( (S (NP (DT the) (NN box)) (VP (VBZ ships))) )")
    assert t.label == ""
    assert t.leaves() == ["the", "box", "ships"]


def test_roundtrip_examples():
    for s in [
        "(NN camera)",
        "(NP (DT the) (NN box))",
        "(SQ (VBZ does) (NP (PRP it)) (VP (VB work)) (. ?))",
        "( (S (NP (DT the) (NN box)) (VP (VBZ ships))) )",
    ]:
        t = parse_bracketed(s)
        assert parse_bracketed(serialize(t)) == t


def test_unbalanced_raises():
    for s in ["(S (NP", "", ")", "(NP (DT the) (NN box)", "(NN a)) "]:
        with pytest.raises(UnbalancedParens):
            parse_bracketed(s)


def test_trailing_tree_raises():
    with pytest.raises(UnbalancedParens):
        parse_bracketed("(NN a) (NN b)")


def test_empty_node_raises():
    with pytest.raises(EmptyNode):
        parse_bracketed("()")


def test_tag_without_content_raises():
    with pytest.raises(TagWithoutContent):
        parse_bracketed("(NP)")


def test_mixed_atom_and_subtree_raises():
    with pytest.raises(TagWithoutContent):
        parse_bracketed("(NP the (NN box))")


_token = st.text(alphabet="abcdefg0123", min_size=1, max_size=5)
_label = st.text(alphabet="ABCDEFG$", min_size=1, max_size=4)
_tree_strings = st.recursive(
    st.builds(lambda l, t: "(%s %s)" % (l, t), _label, _token),
    lambda kids: st.builds(
        lambda l, ks: "(%s %s)" % (l, " ".join(ks)),
        _label, st.lists(kids, min_size=1, max_size=3)),
    max_leaves=12)


@given(_tree_strings)
def test_roundtrip_random_trees(s):
    t = parse_bracketed(s)
    assert parse_bracketed(serialize(t)) == t
    assert t.end == len(t.leaves())


# ---------------------------------------------------- extraction oracle suite

# (bracketed question tree, expected [(label, text), ...])
HAND_TRACED = [
    # 1 feature question: NP under VP promotes to the VP yield
    ("(SQ (VBZ does) (NP (DT this) (NN monitor)) (VP (VB have) (NP (DT a) (NN camera))) (. ?))",
     [("VP", "have a camera")]),
    # 2 nested NP plus PP attachment
    ("(NP (NP (DT the) (NN box)) (PP (IN of) (NP (NNS cables))))",
     [("NP", "the box"), ("PP", "of cables")]),
    # 3 pronoun subject, bare VP: nothing fires
    ("(SQ (VBZ does) (NP (PRP it)) (VP (VB work)) (. ?))", []),
    # 4 two-token NP with a possessive pronoun is kept, but root NPs are skipped
    ("(NP (PRP$ my) (NN phone))", []),
    # 5 NP under PP
    ("(VP (VB ship) (PP (TO to) (NP (NNP brazil))))",
     [("PP", "to brazil")]),
    # 6 NP under ADJP promotes to the ADJP yield
    ("(ADJP (NP (DT a) (NN bit)) (JJ heavy))",
     [("ADJP", "a bit heavy")]),
    # 7 NP under ADVP
    ("(ADVP (NP (DT a) (NN lot)) (RBR more))",
     [("ADVP", "a lot more")]),
    # 8 VP before PP in the output ordering
    ("(SQ (MD can) (NP (PRP you)) (VP (VB install) (NP (NN snapchat)) "
     "(PP (IN on) (NP (DT this) (NN phone)))) (. ?))",
     [("VP", "install snapchat on this phone"), ("PP", "on this phone")]),
    # 9 NP-internal NP plus PP sibling
    ("(NP (NP (NNP dell) (NN monitor)) (PP (IN with) (NP (DT a) (NN stand))))",
     [("NP", "dell monitor"), ("PP", "with a stand")]),
    # 10 WP pronoun excluded
    ("(S (NP (WP who)) (VP (VBZ knows)))", []),
    # 11 root single pronoun: nothing
    ("(NP (PRP mine))", []),
    # 12 possessive inside a multi-token NP is kept
    ("(NP (NP (PRP$ its) (NN lid)) (PP (IN of) (NP (NN glass))))",
     [("NP", "its lid"), ("PP", "of glass")]),
    # 13 two NPs under one VP deduplicate to a single VP constraint
    ("(VP (VB give) (NP (PRP$ my) (NN dog)) (NP (DT a) (NN bone)))",
     [("VP", "give my dog a bone")]),
    # 14 NP chain: same start, increasing ends
    ("(NP (NP (NP (NN water)) (NN bottle)) (NN cap))",
     [("NP", "water"), ("NP", "water bottle")]),
    # 15 your + noun is not a bare pronoun
    ("(VP (VBZ fits) (NP (PRP$ your) (NN car)))",
     [("VP", "fits your car")]),
    # 16 WP$ pronoun excluded
    ("(S (NP (WP$ whose)) (VP (VBZ arrived)))", []),
    # 17 subject NP under S contributes nothing; objects fire
    ("(S (NP (DT the) (NN cooler)) (VP (VBZ keeps) (NP (NN ice)) "
     "(PP (IN for) (NP (CD five) (NNS days)))))",
     [("VP", "keeps ice for five days"), ("PP", "for five days")]),
    # 18 NP under S inside SBAR: no rule applies
    ("(SBAR (IN if) (S (NP (DT the) (NN rain)) (VP (VBZ falls))))", []),
    # 19 all three priorities in one tree: NP, then VP, then PP
    ("(S (NP (NP (DT the) (NN kit)) (PP (IN with) (NP (NNS tools)))) "
     "(VP (VBZ includes) (NP (DT a) (NN case))))",
     [("NP", "the kit"), ("VP", "includes a case"), ("PP", "with tools")]),
    # 20 negated clause: the inner VP is the promoted parent
    ("(S (INTJ (UH no)) (, ,) (NP (PRP it)) (VP (VBZ does) (RB not) "
     "(VP (VB have) (NP (DT a) (NN camera)))) (. .))",
     [("VP", "have a camera")]),
    # 21 coordination under PP: two inner NPs and the PP promotion
    ("(VP (VB made) (PP (IN of) (NP (NP (NN steel)) (CC and) (NP (NN glass)))))",
     [("NP", "steel"), ("NP", "glass"), ("PP", "of steel and glass")]),
    # 22 auxiliary question with clause-final PP
    ("(SQ (VBZ is) (NP (DT the) (NN tent)) (ADJP (JJ warm) "
     "(PP (IN for) (NP (NN camping)))) (. ?))",
     [("PP", "for camping")]),
]


@pytest.mark.parametrize("tree_str,expected", HAND_TRACED,
                         ids=[str(i + 1) for i in range(len(HAND_TRACED))])
def test_hand_traced_constraints(tree_str, expected):
    tree = parse_bracketed(tree_str)
    got = extract_constraints(tree)
    assert labels_and_texts(got) == expected
    for c in got:
        assert c.source == "question"
        assert c.label in {"NP", "VP", "PP", "ADVP", "ADJP"}
        assert list(c.tokens) == tree.leaves()[c.start:c.end]


def test_toplevel_np_switch():
    t = parse_bracketed("(NP (PRP$ my) (NN phone))")
    assert extract_constraints(t) == []


def test_question_constraints_precede_answer_constraints():
    q = parse_bracketed(HAND_TRACED[0][0])
    a = parse_bracketed("(S (INTJ (UH yes)) (, ,) (NP (PRP it)) "
                        "(VP (VBZ has) (NP (NN bluetooth))) (. .))")
    got = extract_constraints(q, a)
    assert [(c.source, c.label, c.text) for c in got] == [
        ("question", "VP", "have a camera"),
        ("answer", "VP", "has bluetooth"),
    ]


def test_function_tags_are_normalized():
    t = parse_bracketed("(S (NP-SBJ (DT the) (NN cooler)) "
                        "(VP (VBZ keeps) (NP-OBJ (NN ice))))")
    got = extract_constraints(t)
    assert labels_and_texts(got) == [("VP", "keeps ice")]


# ------------------------------------------------------------- input layout

def test_concat_pqa_layout():
    q = ["does", "it", "have", "a", "camera", "?"]
    a = ["yes", ",", "it", "does", "."]
    c = ["dell", "monitor"]
    x, layout = concat_pqa(q, a, c)
    assert x == q + ["<sep>"] + a + ["<sep>"] + c
    assert layout.question == (0, 6)
    assert layout.answer == (7, 5)
    assert layout.context == (13, 2)
    assert layout.length == len(x)


def test_constraint_token_rows_answer_offset():
    # answer segment starting at offset 8: span [2, 6) lands on 10..13
    q = ["a"] * 7
    a = ["b"] * 6
    x, layout = concat_pqa(q, a, ["c"])
    assert layout.answer[0] == 8
    con = Constraint(tokens=("b", "b", "b", "b"), start=2, end=6,
                     label="VP", source="answer")
    rows = constraint_token_rows([con], layout)
    assert rows == [(10, 11, 12, 13)]


def test_constraint_token_rows_question_offset():
    q = ["does", "it", "have", "a", "camera", "?"]
    x, layout = concat_pqa(q, ["yes"], ["ctx"])
    con = Constraint(tokens=("have", "a", "camera"), start=2, end=5,
                     label="VP", source="question")
    assert constraint_token_rows([con], layout) == [(2, 3, 4)]


def test_constraint_token_rows_out_of_range():
    q = ["short"]
    x, layout = concat_pqa(q, ["yes"], ["ctx"])
    bad = Constraint(tokens=("a", "b"), start=0, end=2,
                     label="NP", source="question")
    with pytest.raises(OffsetOutOfRange):
        constraint_token_rows([bad], layout)
