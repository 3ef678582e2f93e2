"""Bracketed constituency trees and constraint extraction.

Reads Penn-Treebank-style bracketed parses, and mines them for the
phrase spans (NP/VP/PP/ADVP/ADJP constituents) that a rewritten answer
statement is expected to mention. Also maps those spans onto positions
of the concatenated question/answer/context input sequence.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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

# extraction order of constraint labels; every other label ranks 2
_PRIORITY = {"NP": 0, "VP": 1}

# one bracket, or one run of text between brackets and whitespace
_BRACKET_TOKEN = re.compile(r"[()]|[^()\s]+")


@dataclass(frozen=True, eq=False, repr=False)
class ParseTree:
    """One node of a constituency tree.

    Leaves are preterminals: a POS label plus exactly one token.
    ``start``/``end`` index the node's yield in the sentence token list.

    Trees compare and hash by identity. ``repr()`` means what the
    dataclass-generated method means, but walks the tree with an
    explicit stack, so a tree nested deeper than the interpreter's
    recursion limit, which parse_bracketed accepts, can still be printed.
    """

    label: str
    children: tuple["ParseTree", ...] = ()
    token: str | None = None
    start: int = 0
    end: int = 0

    def __repr__(self):
        out = []
        stack = [self]  # nodes still to write, and text to write as it is
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            kids = item.children
            pieces = ["%s(label=%r, children=("
                      % (item.__class__.__qualname__, item.label)]
            for i, kid in enumerate(kids):
                if i:
                    pieces.append(", ")
                pieces.append(kid)
            pieces.append("%s), token=%r, start=%r, end=%r)"
                          % ("," if len(kids) == 1 else "", item.token,
                             item.start, item.end))
            stack.extend(reversed(pieces))
        return "".join(out)

    def is_leaf(self) -> bool:
        return self.token is not None

    def leaves(self) -> list[str]:
        """Tokens of this node's yield, left to right."""
        out = []
        stack = [self]
        while stack:
            node = stack.pop()
            if node.token is not None:
                out.append(node.token)
            else:
                stack.extend(reversed(node.children))
        return out

    def sole_leaf(self) -> "ParseTree | None":
        """The preterminal of a one-token yield, or None for a longer one."""
        if self.end - self.start != 1:
            return None
        node = self
        while node.token is None:
            node = node.children[0]
        return node


def _base_label(label: str) -> str:
    # strip PTB function annotations: NP-SBJ, NP=2 both count as NP
    return label.split("-")[0].split("=")[0]


def parse_bracketed(text: str) -> ParseTree:
    """Parse one bracketed tree string into a ParseTree.

    Accepts standard PTB bracketing, including a bare '( ... )' wrapper
    around the root (the wrapper node keeps an empty label). A node must
    hold either exactly one token (preterminal) or one or more subtrees;
    leaf spans are assigned left to right.
    """
    toks = _BRACKET_TOKEN.findall(text)
    if not toks:
        raise UnbalancedParens("empty input")
    if toks[0] != "(":
        raise UnbalancedParens("expected '(' at token 0")
    # an explicit stack of open nodes (label, atoms, kids), so nesting
    # depth is bounded by memory rather than by the interpreter's stack
    stack = []
    n_leaves = 0
    pos = 0
    while pos < len(toks):
        tok = toks[pos]
        pos += 1
        if tok == "(":
            label = ""
            if pos < len(toks) and toks[pos] not in "()":
                label = toks[pos]
                pos += 1
            stack.append((label, [], []))
        elif tok != ")":
            stack[-1][1].append(tok)
        else:
            node = _closed_node(*stack.pop(), n_leaves)
            if node.is_leaf():
                n_leaves += 1
            if not stack:
                break
            stack[-1][2].append(node)
    if stack:
        raise UnbalancedParens("missing ')' for node '%s'" % stack[-1][0])
    if pos != len(toks):
        raise UnbalancedParens("trailing content after tree")
    return node


def _closed_node(label, atoms, kids, n_leaves):
    """The node a ')' closes, checked; a preterminal takes leaf n_leaves."""
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
        return ParseTree(label=label, token=atoms[0], start=n_leaves,
                         end=n_leaves + 1)
    return ParseTree(label=label, children=tuple(kids),
                     start=kids[0].start, end=kids[-1].end)


def serialize(tree: ParseTree) -> str:
    """Write a tree back to single-line bracketed form; inverse of parse_bracketed."""
    parts = []
    # nodes still to write and the text between and after them
    stack = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif item.is_leaf():
            parts.append("(%s %s)" % (item.label, item.token))
        else:
            parts.append("(%s " % item.label if item.label else "( ")
            stack.append(")" if item.label else " )")
            for i in range(len(item.children) - 1, -1, -1):
                stack.append(item.children[i])
                if i:
                    stack.append(" ")
    return "".join(parts)


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
    def text(self) -> str:
        return " ".join(self.tokens)


def _extract_from_tree(tree: ParseTree, source: str) -> list[Constraint]:
    # one pre-order pass reads the sentence and the NP spans together
    sent = []
    spans = []  # (label, start, end) in pre-order
    stack = [(tree, None)]
    while stack:
        node, parent = stack.pop()
        if node.token is not None:
            sent.append(node.token)
            continue
        stack.extend((ch, node) for ch in reversed(node.children))
        if parent is None or _base_label(node.label) != "NP":
            continue
        leaf = node.sole_leaf()
        if leaf is not None and _base_label(leaf.label) in PRONOUN_TAGS:
            continue
        plabel = _base_label(parent.label)
        if plabel in PARENT_LABELS:
            spans.append((plabel, parent.start, parent.end))
        elif plabel == "NP":
            spans.append(("NP", node.start, node.end))
    spans.sort(key=lambda s: (_PRIORITY.get(s[0], 2), s[1], s[2]))
    out = []
    seen = set()
    for label, start, end in spans:
        if (start, end) in seen:
            continue
        seen.add((start, end))
        out.append(Constraint(tokens=tuple(sent[start:end]), start=start,
                              end=end, label=label, source=source))
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
    """Offsets of the question and answer segments inside the
    concatenated input token sequence [q, sep, a, sep, c]."""

    question: tuple[int, int]  # (offset, length)
    answer: tuple[int, int]


def concat_pqa(q_tokens: list[str], a_tokens: list[str],
               c_tokens: list[str]) -> tuple[list[str], InputLayout]:
    """Concatenate question, answer and context with SEP tokens."""
    x = list(q_tokens) + [SEP] + list(a_tokens) + [SEP] + list(c_tokens)
    layout = InputLayout(question=(0, len(q_tokens)),
                         answer=(len(q_tokens) + 1, len(a_tokens)))
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
