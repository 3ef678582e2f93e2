"""
Mention-flag replay on a fixed output
=====================================

A flag matrix tracks, for every input position and every generated
token, whether a constraint covering that position is still pending (1)
or already satisfied (2); positions outside any constraint stay 0.
This script replays two small examples step by step and prints the
resulting grids.

The first example satisfies its constraint by paraphrase: the output
says "full touchscreen" while the input constraint span is "has full
touchscreen function". With the character-n-gram scorer the similarity
jumps when the span is realized, and the flags flip 1 -> 2 exactly
there, then stay flipped.

The second example shows the style row: a first-person input token
starts at 2 (meaning "style already satisfied: nothing first-person
emitted yet") and drops to 1 permanently the moment the output emits a
first-person token.
"""

from restate.flags import FlagTracker, SatisfierConfig, trace
from restate.similarity import HashedNgramEmbedder, SpanSimilarity

# ------------------------------------------------- paraphrase satisfaction
x = ["The", "screen", "has", "full", "touchscreen", "function"]
constraint_rows = [(2, 3, 4, 5)]  # positions of "has full touchscreen function"
output = ["Dell", "Laptop", "comes", "with", "full", "touchscreen", "."]

cfg = SatisfierConfig(mode="semantic", threshold_a=0.55, threshold_b=0.1)
scorer = SpanSimilarity(HashedNgramEmbedder())
tracker = FlagTracker(x, constraint_rows, cfg, scorer=scorer)
for tok in output:
    tracker.step(tok)
print("paraphrase replay (columns are generated tokens):")
print(trace(tracker, fmt="tsv"))

# ------------------------------------------------------------- style row
x = ["We", "can", "ship", "to", "Brazil"]
output = ["Dell", "XPS", "can", "be", "shipped", "by", "us", "to", "Brazil"]

cfg = SatisfierConfig(mode="semantic", style_enabled=True)
tracker = FlagTracker(x, [], cfg)
for tok in output:
    tracker.step(tok)
print("style replay (row 'We' reverts when 'us' is emitted):")
print(trace(tracker, fmt="tsv"))
