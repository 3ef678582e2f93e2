"""Tree parsing, serialization, and constraint extraction.

HAND_TRACED below is the oracle suite: every expected constraint list
was derived by hand before the extractor was written, walking the rule
(NP nodes; single-pronoun NPs dropped; VP/PP/ADVP/ADJP parent promotes
to the parent's yield; NP parent keeps the inner NP; dedup by span;
order by priority NP < VP < other, then span start).
"""

import pytest
from hypothesis import given, settings, strategies as st

from restate.treebank import (PRONOUN_TAGS, Constraint, EmptyNode,
                              OffsetOutOfRange, ParseTree, TagWithoutContent,
                              UnbalancedParens, concat_pqa,
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
        assert repr(parse_bracketed(serialize(t))) == repr(t)


def test_deep_nesting_reads_and_writes_without_recursion():
    depth = 3000  # past the interpreter's default recursion limit
    s = "(S " * depth + "(NN a)" + ")" * depth
    t = parse_bracketed(s)
    assert t.leaves() == ["a"]
    assert serialize(t) == s
    with pytest.raises(UnbalancedParens, match="missing"):
        parse_bracketed(s[:-1])


def test_deep_trees_compare_hash_and_print_without_recursion():
    depth = 3000  # past the interpreter's default recursion limit
    s = "(S " * depth + "(NN a)" + ")" * depth
    a, b = parse_bracketed(s), parse_bracketed(s)
    # trees compare and hash by identity, without walking their children
    assert a == a and a != b and hash(a) == hash(a)
    assert repr(a) == repr(b) != repr(parse_bracketed(
        s.replace("(NN a)", "(NN b)")))
    assert repr(a) == ("ParseTree(label='S', children=(" * depth
                       + "ParseTree(label='NN', children=(), token='a',"
                         " start=0, end=1)"
                       + ",), token=None, start=0, end=1)" * depth)


def test_tree_repr_follows_the_fields():
    t = parse_bracketed("(S (NP (DT the) (NN box)) (VP (VBZ ships)))")
    assert repr(t) == (
        "ParseTree(label='S', children=(ParseTree(label='NP', children=("
        "ParseTree(label='DT', children=(), token='the', start=0, end=1), "
        "ParseTree(label='NN', children=(), token='box', start=1, end=2)),"
        " token=None, start=0, end=2), ParseTree(label='VP', children=("
        "ParseTree(label='VBZ', children=(), token='ships', start=2,"
        " end=3),), token=None, start=2, end=3)), token=None, start=0,"
        " end=3)")
    assert repr(eval(repr(t), {"ParseTree": ParseTree})) == repr(t)
    np_, vp = t.children
    for other in (ParseTree("S", (np_,), start=0, end=3),
                  ParseTree("S", (vp, np_), start=0, end=3),
                  ParseTree("SQ", (np_, vp), start=0, end=3),
                  ParseTree("S", (np_, vp), start=0, end=4),
                  ParseTree("S", (np_, vp), token="x", start=0, end=3)):
        assert repr(other) != repr(t)
    assert repr(ParseTree("S", (np_, vp), start=0, end=3)) == repr(t)


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
    assert repr(parse_bracketed(serialize(t))) == repr(t)
    assert t.end == len(t.leaves())


# Well-formed trees with the shapes the synthetic corpus never makes:
# function-tagged labels, unary chains, a bare '( ... )' root and
# single-pronoun NPs under NP, VP and PP. A spec is (label, token) for a
# preterminal or (label, [child specs]) for a phrase.
_phrase_label = st.builds(
    lambda base, tag: base + tag,
    st.sampled_from(["NP", "NP", "NP", "VP", "PP", "ADVP", "ADJP", "S",
                     "SBAR"]),
    st.sampled_from(["", "", "-SBJ", "=2", "-TMP=1"]))
_word = st.sampled_from(["it", "the", "box", "has", "of", "mine"])
_preterminal = st.tuples(
    st.sampled_from(["DT", "NN", "VB", "IN", "PRP-1"] + sorted(PRONOUN_TAGS)),
    _word)
_pronoun_np = st.builds(lambda np, tag, word: (np, [(tag, word)]),
                        st.sampled_from(["NP", "NP-SBJ", "NP=2"]),
                        st.sampled_from(sorted(PRONOUN_TAGS) + ["PRP-1"]),
                        _word)
_specs = st.recursive(
    _preterminal | _pronoun_np,
    lambda kids: st.tuples(_phrase_label,
                           st.lists(kids, min_size=1, max_size=3)),
    max_leaves=10)
_root_specs = _specs | st.builds(lambda kids: ("", kids),
                                 st.lists(_specs, min_size=1, max_size=2))


def _tree(spec, start=0):
    """The ParseTree of spec, its yield numbered from token start."""
    label, payload = spec
    if isinstance(payload, str):
        return ParseTree(label, token=payload, start=start, end=start + 1)
    kids = []
    end = start
    for kid in payload:
        kids.append(_tree(kid, end))
        end += len(kids[-1].leaves())
    return ParseTree(label, tuple(kids), start=start, end=end)


def _nodes(tree):
    yield tree
    for ch in tree.children:
        yield from _nodes(ch)


def _leaf_nodes(tree):
    return [n for n in _nodes(tree) if n.is_leaf()]


def _oracle_constraints(tree, source):
    """extract_constraints' docstring rules, on leaf lists."""
    def base(label):
        return label.split("-")[0].split("=")[0]

    found = []  # (start, end, label, tokens), in pre-order
    sent = tree.leaves()

    def visit(node, parent):
        if node.is_leaf():
            return
        leaves = _leaf_nodes(node)
        plabel = base(parent.label) if parent is not None else ""
        if (base(node.label) == "NP"
                and not (len(leaves) == 1
                         and base(leaves[0].label) in PRONOUN_TAGS)
                and plabel in ("NP", "VP", "PP", "ADVP", "ADJP")):
            span = node if plabel == "NP" else parent
            start = len(_leaf_nodes_before(tree, span))
            found.append((start, start + len(span.leaves()), plabel,
                          span.leaves()))
        for ch in node.children:
            visit(ch, node)

    visit(tree, None)
    ranked = sorted(found, key=lambda f: ({"NP": 0, "VP": 1}.get(f[2], 2),
                                          f[0], f[1]))
    out = []
    for start, end, label, tokens in ranked:
        if all((c.start, c.end) != (start, end) for c in out):
            assert tokens == sent[start:end]
            out.append(Constraint(tuple(tokens), start, end, label, source))
    return out


def _leaf_nodes_before(tree, node):
    """The preterminals left of node's yield."""
    out = []
    for n in _nodes(tree):
        if n is node:
            return out
        if n.is_leaf():
            out.append(n)
    raise AssertionError("node not in tree")


@given(_root_specs)
def test_random_tree_shapes_roundtrip_with_spans(spec):
    tree = _tree(spec)
    assert repr(parse_bracketed(serialize(tree))) == repr(tree)


@given(_root_specs)
def test_sole_leaf_matches_leaf_list(spec):
    for node in _nodes(parse_bracketed(serialize(_tree(spec)))):
        leaves = _leaf_nodes(node)
        assert node.sole_leaf() is (leaves[0] if len(leaves) == 1 else None)


@settings(max_examples=300)
@given(_root_specs, _root_specs)
def test_extraction_matches_docstring_oracle(q_spec, a_spec):
    q = parse_bracketed(serialize(_tree(q_spec)))
    a = parse_bracketed(serialize(_tree(a_spec)))
    assert extract_constraints(q, a) == (_oracle_constraints(q, "question")
                                         + _oracle_constraints(a, "answer"))


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
