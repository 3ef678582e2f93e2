"""Corpus metrics and output audits.

BLEU is corpus-level BLEU-4 (modified n-gram precisions up to
BLEU_ORDER = 4 with a brevity penalty); the optional smoothing adds one
to numerator and denominator of any zero-count order, and both numbers
are reported side by side. ROUGE-L uses the longest common subsequence
with ROUGE_BETA = 1.2 weighting recall, the usual summary form.
Coverage audits replay the mention-flag machine offline against each
system output, in lexical and semantic mode, with the hashed n-gram
scorer, so the numbers mean what the decoder saw, except that a
constraint held verbatim counts as semantically covered as well.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, field

from . import datagen
from .flags import FIRST_PERSON, SatisfierConfig, contains_contiguous, replay_flags
from .similarity import HashedNgramEmbedder, SpanSimilarity
from .vocab import tokenize


class EmptyCorpus(ValueError):
    """Raised when scoring is asked for zero (or misaligned) pairs."""


class EmptyInput(ValueError):
    """Raised when a single-pair metric gets an empty sequence."""


class IdMismatch(ValueError):
    """Raised when outputs and gold instances disagree on ids."""


BLEU_ORDER = 4
ROUGE_BETA = 1.2


# ---------------------------------------------------------------------------
# n-gram metrics


def _ngram_counts(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu(hypotheses, references, smooth=False):
    """Corpus BLEU in [0, 100] over aligned token-list pairs."""
    if len(hypotheses) != len(references):
        raise EmptyCorpus("got %d hypotheses for %d references"
                          % (len(hypotheses), len(references)))
    if not hypotheses:
        raise EmptyCorpus("nothing to score")
    matches = [0] * BLEU_ORDER
    totals = [0] * BLEU_ORDER
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp = list(hyp)
        ref = list(ref)
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, BLEU_ORDER + 1):
            counts = _ngram_counts(hyp, n)
            if not counts:
                continue
            ref_counts = _ngram_counts(ref, n)
            totals[n - 1] += sum(counts.values())
            matches[n - 1] += sum(min(c, ref_counts[g])
                                  for g, c in counts.items())
    log_sum = 0.0
    for n in range(BLEU_ORDER):
        m, t = matches[n], totals[n]
        if smooth and m == 0:
            m, t = m + 1, t + 1
        if m == 0 or t == 0:
            return 0.0
        log_sum += math.log(m / t)
    if hyp_len == 0:
        return 0.0
    brevity = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_sum / BLEU_ORDER)


def lcs_length(a, b):
    """Longest common subsequence length, iterative over one DP row."""
    if len(a) < len(b):
        a, b = b, a
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge_l_scores(hypothesis, reference):
    """LCS precision / recall / F for one pair of token lists."""
    hyp = list(hypothesis)
    ref = list(reference)
    if not hyp or not ref:
        raise EmptyInput("both sequences must be non-empty")
    l = lcs_length(hyp, ref)
    if l == 0:
        return 0.0, 0.0, 0.0
    p = l / len(hyp)
    r = l / len(ref)
    b2 = ROUGE_BETA * ROUGE_BETA
    f = (1 + b2) * p * r / (r + b2 * p)
    return p, r, f


def rouge_l(hypothesis, reference):
    return rouge_l_scores(hypothesis, reference)[2]


def corpus_rouge_l(hypotheses, references):
    """Mean per-pair ROUGE-L F over the corpus. An empty hypothesis (a
    decoder may stop at once) shares nothing with its reference and
    scores 0."""
    if len(hypotheses) != len(references):
        raise EmptyCorpus("got %d hypotheses for %d references"
                          % (len(hypotheses), len(references)))
    if not hypotheses:
        raise EmptyCorpus("nothing to score")
    return sum(rouge_l(h, r) if len(h) else 0.0
               for h, r in zip(hypotheses, references)) / len(hypotheses)


# ---------------------------------------------------------------------------
# audits


def _aligned_outputs(outputs, instances):
    if len(outputs) != len(instances):
        raise IdMismatch("got %d outputs for %d instances"
                         % (len(outputs), len(instances)))
    toks = []
    for out, inst in zip(outputs, instances):
        if out["id"] != inst.id:
            raise IdMismatch("output %r does not match instance %r"
                             % (out["id"], inst.id))
        toks.append(list(out["output_tokens"]))
    return toks


def _rate(num, den):
    return num / den if den else 0.0


def _categories(instances):
    """[(category, instance indices)], categories sorted."""
    groups = {}
    for i, inst in enumerate(instances):
        groups.setdefault(inst.category, []).append(i)
    return sorted(groups.items())


def _coverage_counts(toks, instances, config):
    """Per instance: (constraints, lexical hits, semantic hits), by
    replaying the flags in both modes against the aligned outputs."""
    base = config if config is not None else SatisfierConfig()
    lexical, semantic = (SatisfierConfig(threshold_a=base.threshold_a,
                                         threshold_b=base.threshold_b,
                                         mode=mode)
                         for mode in ("lexical", "semantic"))
    scorer = SpanSimilarity(HashedNgramEmbedder())
    counts = []
    for inst, out in zip(instances, toks):
        rec = datagen.model_record(inst)
        rows = rec["constraint_rows"]
        lex = replay_flags(rec["x_tokens"], rows, out, lexical).satisfied
        sem = replay_flags(rec["x_tokens"], rows, out, semantic,
                           scorer=scorer).satisfied
        counts.append((len(rows), sum(lex),
                       sum(a or b for a, b in zip(lex, sem))))
    return counts


def _coverage(counts, idxs):
    total, lex, sem = (sum(counts[i][k] for i in idxs) for k in range(3))
    return {"lexical": _rate(lex, total), "semantic": _rate(sem, total),
            "n_constraints": total}


def coverage_audit(outputs, instances, config=None):
    """Fraction of gold constraints the outputs satisfy, by flag replay.

    outputs: list of {"id", "output_tokens"} aligned with instances.
    Returns micro-averaged lexical and semantic rates, plus the same
    split per category. A constraint the output holds verbatim counts
    as semantically covered too: the semantic replay's jump gate can
    hold back the flip of a long constraint copied word by word.
    """
    counts = _coverage_counts(_aligned_outputs(outputs, instances),
                              instances, config)
    return {**_coverage(counts, range(len(counts))),
            "per_category": {c: _coverage(counts, idxs)
                             for c, idxs in _categories(instances)}}


# ---------------------------------------------------------------------------
# report assembly


@dataclass
class EvalReport:
    """Single-system scorecard; rates in [0, 1], BLEU in [0, 100].

    bertscore stays None: it needs a pretrained masked LM, so the slot
    exists only for downstream tooling to fill in.
    """

    n_instances: int
    bleu: float
    bleu_smoothed: float
    rouge_l_f: float
    coverage_lexical: float
    coverage_semantic: float
    polarity_accuracy: float
    style_accuracy: float
    context_accuracy: float
    per_category: dict = field(default_factory=dict)
    bertscore: float | None = None

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True, indent=2,
                          allow_nan=False)


def build_report(outputs, instances, config=None):
    """Score one system's outputs against gold instances: every field
    over all of them, then one per_category row per category."""
    toks = _aligned_outputs(outputs, instances)
    refs = [tokenize(inst.target) for inst in instances]
    for inst, ref in zip(instances, refs):
        if not ref:
            raise datagen.MalformedRecord("record %r has no target to score"
                                          " against" % inst.id)
    counts = _coverage_counts(toks, instances, config)
    # leading polarity, second-person framing, context mention
    checks = [(bool(out) and out[0] == inst.polarity,
               not (set(out) & FIRST_PERSON),
               contains_contiguous(out, tokenize(inst.context)))
              for inst, out in zip(instances, toks)]

    def scores(idxs):
        h = [toks[i] for i in idxs]
        r = [refs[i] for i in idxs]
        cov = _coverage(counts, idxs)
        right = [_rate(sum(checks[i][k] for i in idxs), len(idxs))
                 for k in range(3)]
        return {"bleu": bleu(h, r), "bleu_smoothed": bleu(h, r, smooth=True),
                "rouge_l_f": corpus_rouge_l(h, r),
                "coverage_lexical": cov["lexical"],
                "coverage_semantic": cov["semantic"],
                "polarity_accuracy": right[0], "style_accuracy": right[1],
                "context_accuracy": right[2]}

    return EvalReport(
        n_instances=len(instances), **scores(range(len(instances))),
        per_category={c: {"n": len(idxs), **scores(idxs)}
                      for c, idxs in _categories(instances)})


_COLUMNS = [
    ("bleu", "BLEU", "%7.2f"),
    ("bleu_smoothed", "BLEU+1", "%7.2f"),
    ("rouge_l_f", "ROUGE-L", "%7.3f"),
    ("coverage_lexical", "COV-LEX", "%7.3f"),
    ("coverage_semantic", "COV-SEM", "%7.3f"),
    ("polarity_accuracy", "POLARITY", "%8.3f"),
    ("style_accuracy", "STYLE", "%7.3f"),
    ("context_accuracy", "CONTEXT", "%7.3f"),
]


def text_table(reports):
    """Plain-text scoreboard: one row per system, one column per metric."""
    width = max([len("system")] + [len(name) for name in reports])
    header = ["system".ljust(width)] + [h for _, h, _ in _COLUMNS]
    lines = ["  ".join(header)]
    for name, rep in reports.items():
        row = [name.ljust(width)]
        for key, head, fmt in _COLUMNS:
            cell = fmt % getattr(rep, key)
            row.append(cell.rjust(len(head)))
        lines.append("  ".join(row))
    return "\n".join(lines) + "\n"
