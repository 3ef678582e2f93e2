"""Whitespace-and-punctuation tokenizer plus a closed vocabulary.

All corpus text is lowercased; ids 0..4 are reserved for the special
tokens shared by every model in this package.
"""

from __future__ import annotations

import re

PAD = "<pad>"
BOS = "<bos>"
EOS = "<eos>"
SEP = "<sep>"
UNK = "<unk>"
SPECIALS = [PAD, BOS, EOS, SEP, UNK]

_TOKEN_RE = re.compile(r"[a-z0-9']+|[^\sa-z0-9']")


def tokenize(text: str) -> list[str]:
    """Lowercase and split into word / punctuation tokens."""
    return _TOKEN_RE.findall(text.lower())


class Vocabulary:
    """Bidirectional token/id map with fixed special ids."""

    def __init__(self, tokens: list[str]):
        self.tokens = list(SPECIALS)
        seen = set(SPECIALS)
        for t in tokens:
            if t not in seen:
                seen.add(t)
                self.tokens.append(t)
        self.index = {t: i for i, t in enumerate(self.tokens)}
        self.pad_id = self.index[PAD]
        self.bos_id = self.index[BOS]
        self.eos_id = self.index[EOS]
        self.unk_id = self.index[UNK]
        # no decoder emits a special token but the stop token
        self.never_emitted = [self.index[t] for t in SPECIALS if t != EOS]

    def __len__(self) -> int:
        return len(self.tokens)

    @classmethod
    def build(cls, token_lists) -> "Vocabulary":
        """Deterministic vocabulary: sorted union of all tokens."""
        pool = set()
        for toks in token_lists:
            pool.update(toks)
        pool.difference_update(SPECIALS)
        return cls(sorted(pool))

    def encode(self, toks: list[str]) -> list[int]:
        """Token ids; tokens outside the vocabulary map to <unk>."""
        return [self.index.get(t, self.unk_id) for t in toks]
