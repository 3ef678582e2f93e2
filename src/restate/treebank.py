"""Bracketed constituency trees and constraint extraction.

Reads Penn-Treebank-style bracketed parses, and mines them for the
phrase spans (NP/VP/PP/ADVP/ADJP constituents) that a rewritten answer
statement is expected to mention. Also maps those spans onto positions
of the concatenated question/answer/context input sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .vocab import SEP


class UnbalancedParens(ValueError):
    """Raised when brackets do not balance or trailing text follows the tree."""


class EmptyNode(ValueError):
    """Raised for '()' nodes that carry neither a tag nor content."""


class TagWithoutContent(ValueError):
    """Raised for nodes like '(NP)' that have a tag but no children."""


class OffsetOutOfRange(ValueError):
    """Raised when a constraint span does not fit inside its input segment."""


# POS tags whose single-token NPs are skipped during extraction
PRONOUN_TAGS = frozenset({"PRP", "PRP$", "WP", "WP$"})
# parent labels that promote an NP to a larger constraint phrase
PARENT_LABELS = frozenset({"VP", "PP", "ADVP", "ADJP"})

_PRIORITY = {"NP": 0, "VP": 1}


@dataclass(frozen=True)
class ParseTree:
    """One node of a constituency tree.

    Leaves are preterminals: a POS label plus exactly one token.
    ``start``/``end`` index the node's yield in the sentence token list.
    """

    label: str
    children: tuple["ParseTree", ...] = ()
    token: str | None = None
    start: int = 0
    end: int = 0

    def is_leaf(self) -> bool:
        return self.token is not None

    def leaves(self) -> list[str]:
        """Tokens of this node's yield, left to right."""
        if self.is_leaf():
            return [self.token]
        out = []
        for ch in self.children:
            out.extend(ch.leaves())
        return out

    def leaf_nodes(self) -> list["ParseTree"]:
        if self.is_leaf():
            return [self]
        out = []
        for ch in self.children:
            out.extend(ch.leaf_nodes())
        return out

    def walk(self, parent: "ParseTree | None" = None):
        """Yield (node, parent) pairs in pre-order."""
        yield self, parent
        for ch in self.children:
            yield from ch.walk(self)


def _base_label(label: str) -> str:
    # strip PTB function annotations: NP-SBJ, NP=2 both count as NP
    return label.split("-")[0].split("=")[0]


def _tokenize_brackets(text: str) -> list[str]:
    toks = []
    buf = []
    for ch in text:
        if ch in "()":
            if buf:
                toks.append("".join(buf))
                buf = []
            toks.append(ch)
        elif ch.isspace():
            if buf:
                toks.append("".join(buf))
                buf = []
        else:
            buf.append(ch)
    if buf:
        toks.append("".join(buf))
    return toks


def parse_bracketed(text: str) -> ParseTree:
    """Parse one bracketed tree string into a ParseTree.

    Accepts standard PTB bracketing, including a bare '( ... )' wrapper
    around the root (the wrapper node keeps an empty label). A node must
    hold either exactly one token (preterminal) or one or more subtrees;
    leaf spans are assigned left to right.
    """
    toks = _tokenize_brackets(text)
    if not toks:
        raise UnbalancedParens("empty input")
    pos = 0

    def parse_node() -> tuple:
        nonlocal pos
        if pos >= len(toks) or toks[pos] != "(":
            raise UnbalancedParens("expected '(' at token %d" % pos)
        pos += 1
        label = ""
        if pos < len(toks) and toks[pos] not in "()":
            label = toks[pos]
            pos += 1
        atoms: list[str] = []
        kids: list = []
        while pos < len(toks) and toks[pos] != ")":
            if toks[pos] == "(":
                kids.append(parse_node())
            else:
                atoms.append(toks[pos])
                pos += 1
        if pos >= len(toks):
            raise UnbalancedParens("missing ')' for node '%s'" % label)
        pos += 1  # consume ')'
        if not label and not atoms and not kids:
            raise EmptyNode("'()' node")
        if label and not atoms and not kids:
            raise TagWithoutContent("node '(%s)' has no content" % label)
        if atoms and kids:
            raise TagWithoutContent(
                "node '%s' mixes bare tokens with subtrees" % label)
        if len(atoms) > 1:
            raise TagWithoutContent(
                "preterminal '%s' holds %d tokens" % (label, len(atoms)))
        if atoms:
            return ("leaf", label, atoms[0])
        return ("node", label, kids)

    raw = parse_node()
    if pos != len(toks):
        raise UnbalancedParens("trailing content after tree")

    counter = [0]

    def build(item) -> ParseTree:
        kind, label, payload = item
        if kind == "leaf":
            i = counter[0]
            counter[0] += 1
            return ParseTree(label=label, token=payload, start=i, end=i + 1)
        kids = tuple(build(k) for k in payload)
        return ParseTree(label=label, children=kids,
                         start=kids[0].start, end=kids[-1].end)

    return build(raw)


def serialize(tree: ParseTree) -> str:
    """Write a tree back to single-line bracketed form; inverse of parse_bracketed."""
    if tree.is_leaf():
        return "(%s %s)" % (tree.label, tree.token)
    inner = " ".join(serialize(ch) for ch in tree.children)
    if tree.label:
        return "(%s %s)" % (tree.label, inner)
    return "( %s )" % inner


@dataclass(frozen=True)
class Constraint:
    """A phrase span the output must reflect.

    ``start``/``end`` index tokens within the source sentence (question
    or answer), not within the concatenated model input.
    """

    tokens: tuple[str, ...]
    start: int
    end: int
    label: str
    source: str  # "question" or "answer"

    @property
    def priority(self) -> int:
        return _PRIORITY.get(self.label, 2)

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


def _extract_from_tree(tree: ParseTree, source: str) -> list[Constraint]:
    found = []
    sent = tree.leaves()
    for node, parent in tree.walk():
        if node.is_leaf() or _base_label(node.label) != "NP":
            continue
        leaf_nodes = node.leaf_nodes()
        if len(leaf_nodes) == 1 and _base_label(leaf_nodes[0].label) in PRONOUN_TAGS:
            continue
        if parent is None or parent.label == "":
            continue
        plabel = _base_label(parent.label)
        if plabel in PARENT_LABELS:
            found.append(Constraint(
                tokens=tuple(sent[parent.start:parent.end]),
                start=parent.start, end=parent.end, label=plabel, source=source))
        elif plabel == "NP":
            found.append(Constraint(
                tokens=tuple(sent[node.start:node.end]),
                start=node.start, end=node.end, label="NP", source=source))
    found.sort(key=lambda c: (c.priority, c.start, c.end))
    out = []
    seen = set()
    for c in found:
        if (c.start, c.end) in seen:
            continue
        seen.add((c.start, c.end))
        out.append(c)
    return out


def extract_constraints(question_tree: ParseTree,
                        answer_tree: ParseTree | None = None) -> list[Constraint]:
    """Collect constraint phrases from parsed question and answer.

    Every NP node is inspected: single-pronoun NPs are dropped; an NP
    under a VP/PP/ADVP/ADJP parent contributes the parent's whole yield
    under the parent's label; an NP under another NP contributes its own
    yield. Spans are deduplicated per source and ordered question first,
    then by label priority (NP, VP, other), then by span start. A root
    NP, having no parent phrase, is never a constraint.
    """
    out = _extract_from_tree(question_tree, "question")
    if answer_tree is not None:
        out.extend(_extract_from_tree(answer_tree, "answer"))
    return out


@dataclass(frozen=True)
class InputLayout:
    """Offsets of the question/answer/context segments inside the
    concatenated input token sequence [q, sep, a, sep, c]."""

    question: tuple[int, int]  # (offset, length)
    answer: tuple[int, int]
    context: tuple[int, int]
    length: int = field(default=0)


def concat_pqa(q_tokens: list[str], a_tokens: list[str],
               c_tokens: list[str]) -> tuple[list[str], InputLayout]:
    """Concatenate question, answer and context with SEP tokens."""
    x = list(q_tokens) + [SEP] + list(a_tokens) + [SEP] + list(c_tokens)
    a_off = len(q_tokens) + 1
    c_off = a_off + len(a_tokens) + 1
    layout = InputLayout(question=(0, len(q_tokens)),
                         answer=(a_off, len(a_tokens)),
                         context=(c_off, len(c_tokens)),
                         length=len(x))
    return x, layout


def constraint_token_rows(constraints: list[Constraint],
                          layout: InputLayout) -> list[tuple[int, ...]]:
    """Map each constraint's span onto absolute input positions.

    Returns one sorted index tuple per constraint, in the given order.
    Overlapping constraints keep their full index sets here; ownership
    of shared cells is resolved later when the flag matrix is built.
    """
    rows = []
    for c in constraints:
        if c.source == "question":
            off, seg_len = layout.question
        elif c.source == "answer":
            off, seg_len = layout.answer
        else:
            raise OffsetOutOfRange("unknown constraint source %r" % c.source)
        if c.start < 0 or c.end > seg_len or c.start >= c.end:
            raise OffsetOutOfRange(
                "span [%d,%d) outside %s segment of length %d"
                % (c.start, c.end, c.source, seg_len))
        rows.append(tuple(range(off + c.start, off + c.end)))
    return rows
