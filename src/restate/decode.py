"""Decoding: run_decoder is the one entry point. It picks greedy search,
plain beam search or constrained beam search (CBS) by name, builds one
decoder cache and one FlagTracker, and hands them to the argmax loop or
to one banked beam search that serves both beam decoders.

Both loops drive the tracker alongside the model so every generated
token updates the mention flags the next step conditions on. The model
caches each hypothesis's past positions, so a call forwards only the
newest tokens with the current flag column.

The argmax loop drafts (speculative decoding, Leviathan et al. 2023,
with drafts taken from earlier outputs instead of a second model, as
in REST, He et al. 2023). The model's DraftTable maps the last two
output ids to the id that followed them in the model's earlier argmax
outputs; a successor seen twice in a row is drafted, up to MAX_DRAFT
tokens and never past the budget. One decoder call scores the newest
token and every drafted token at consecutive positions, all under the
tracker's current flag column, each row attending to exactly its own
prefix. The rows are read in order: the argmax is chosen, scored and
stepped through the tracker, and the next row is read only while its
drafted token is that argmax (so not the stop token) and the step left
the flag column as it was. Then the cache is cut back to the rows read.
Each row read is, to the byte, the row the one-token call would have
computed at that position, so no token, score, flag or cache byte can
move; a row not read is not checked for NaN either. With nothing
drafted the call is the one-row step.

Each search step is one batched decoder call over every live
hypothesis on its newest token. Candidates are ranked as
tuples; only the survivors of pruning are built, with their own lists
and tracker clones, since ranking and banking never read flags. Scores
sum the log-probabilities of every chosen token (the stop token
included once a hypothesis finishes) left to right as they are chosen,
and are compared after dividing by the number of chosen tokens raised
to a configurable exponent.

The banked search follows grid beam search (Hokamp & Liu 2017) with the
per-bank beams of dynamic beam allocation (Post & Vilar 2018). It is
given the token lists every finished result must contain, and banks
each hypothesis by its verbatim progress: per list, the length of the
longest prefix that ends the output, a completed list counting its
full length. Each bank keeps its own top beam_size, the stop token and
every unfinished list's next token are always candidates, and only the
full-coverage bank may stop, so every finished result contains all
constraint tokens in order; when nothing covers everything within the
budget the best partial comes back flagged unsatisfiable instead of
failing.

Plain beam search is the one-bank case: with no lists every hypothesis
sits in bank 0, which is full coverage, so any may stop, and nothing is
forced. At width 1 the argmax trajectory is the whole search, so greedy
and width-1 plain beam are one branch, the argmax loop, which only beam
closes at budget. Wider, the trajectory is a shadow hypothesis that
floors the returned normalized score. Each step it reads the row of
the live hypothesis with its ids, or one extra row of the same call
once the beam drops them; it is live for the early stop until it stops
or is closed at budget. No row depends on the other rows of its call,
so this is exactly a greedy pass.

The search stops early, exactly (after Huang et al. 2017, "When to
Finish?"): before each step, and before the closing at budget, it ends
once the best finished normalized score is strictly above the best any
live hypothesis can still reach. Log-probabilities are <= 0, so a
descendant's score (a left-to-right float sum) never exceeds its
ancestor's; a live hypothesis with n chosen tokens finishes with n + 1
to max_len + 1 of them, so its reachable maximum is its score divided
by the largest length divisor in that range, computed as normalized()
computes it, which holds for every alpha. The comparison is strict, so
no result found later could tie the best and win on its token ids: the
stop changes no field of the result, only the work done.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .flags import FlagTracker
from .model.transformer import check_logprobs

# Tokens the argmax loop guesses ahead for one decoder call, at most.
MAX_DRAFT = 8
# Contexts a draft table holds before it is cleared.
DRAFT_CAP = 4096


@dataclass(eq=False)
class Hypothesis:
    ids: list
    tracker: FlagTracker
    # per constraint, the length of its longest prefix that ends ids
    pointers: list = field(default_factory=list)
    bank: int = 0  # constraint tokens matched verbatim: sum(pointers)
    finished: bool = False
    # row of the decoder cache that holds every position but the newest
    row: int = 0
    # the chosen tokens' logps (the stop token's once finished), summed
    # left to right as they are chosen
    score: float = 0.0

    def normalized(self, alpha: float) -> float:
        return self.score / max(1, len(self.ids) + self.finished) ** alpha


@dataclass
class DecodeResult:
    tokens: list
    score: float
    normalized_score: float
    tracker: FlagTracker
    finished: bool
    unsatisfiable: bool = False
    warnings: list = field(default_factory=list)

    @property
    def flag_matrix(self) -> np.ndarray:
        return self.tracker.matrix()


class DraftTable:
    """A model's guesses of the argmax loop's next tokens, learned from
    its own earlier argmax outputs (drafts from earlier outputs, after
    REST, He et al. 2023).

    Maps the last two token ids of an output (the start symbol standing
    in before the first tokens) to the id that followed them last, with
    how many times in a row it did. A guess follows only successors
    seen at least twice in a row, emittable ones other than the stop
    token (not in vocab.never_emitted), MAX_DRAFT of them at most. The
    table holds at most DRAFT_CAP contexts and is cleared when full. No
    guess changes a result, only the number of decoder calls.
    """

    def __init__(self):
        self.next: dict[tuple, tuple] = {}  # (id, id) -> (id, run length)

    def learn(self, vocab, ids, finished):
        """Record the successors of one argmax output's contexts."""
        seq = [vocab.bos_id, vocab.bos_id] + ids
        if finished:
            seq.append(vocab.eos_id)
        table = self.next
        for context, nxt in zip(zip(seq, seq[1:]), seq[2:]):
            seen, run = table.get(context, (None, 0))
            if seen is None and len(table) >= DRAFT_CAP:
                table.clear()
            table[context] = (nxt, run + 1 if seen == nxt else 1)

    def guess(self, vocab, ids, limit):
        """Up to limit guessed ids to follow the output ids."""
        a, b = ([vocab.bos_id, vocab.bos_id] + ids[-2:])[-2:]
        out = []
        while len(out) < min(limit, MAX_DRAFT):
            nxt, run = self.next.get((a, b), (None, 0))
            if (run < 2 or not 0 <= nxt < len(vocab) or nxt == vocab.eos_id
                    or nxt in vocab.never_emitted):
                break
            out.append(nxt)
            a, b = b, nxt
        return out


def draft_table(model) -> DraftTable:
    """The draft table of model, made on its first argmax decode, so
    every later decode with the same model object reuses it."""
    table = getattr(model, "drafts", None)
    if table is None:
        table = model.drafts = DraftTable()
    return table


class _Decoder:
    """One input's decoder cache, advanced by one batched call per step."""

    def __init__(self, model, x_tokens):
        self.model = model
        self.cache = model.begin_decode(model.encode(list(x_tokens)))
        self.never_emitted = np.asarray(model.vocab.never_emitted)

    def logprobs(self, hyps, draft=()):
        """(len(hyps), vocab) next-token log-probabilities, the tokens of
        vocab.never_emitted masked out. Every hypothesis has the cache's
        length, and hyp.row indexes the rows of the previous call. A
        draft (one hypothesis only) adds a row per drafted token, as in
        decode_step."""
        vocab = self.model.vocab
        last = [h.ids[-1] if h.ids else vocab.bos_id for h in hyps]
        columns = np.stack([h.tracker.current for h in hyps])
        lp, self.cache = self.model.decode_step(
            self.cache, [h.row for h in hyps], last, columns, draft)
        lp[:, self.never_emitted] = -np.inf
        return lp


def _result_from(model, hyp, alpha, unsatisfiable=False, warnings=()):
    # log_softmax can return finite log-probs far below the smallest
    # float, so no bound on alpha alone keeps the quotient finite
    normalized = hyp.normalized(alpha)
    if not math.isfinite(normalized):
        raise ValueError("alpha %r length-normalizes score %r over %d tokens"
                         " to %r" % (alpha, hyp.score,
                                     len(hyp.ids) + hyp.finished, normalized))
    return DecodeResult(
        tokens=[model.vocab.tokens[i] for i in hyp.ids],
        score=hyp.score,
        normalized_score=normalized,
        tracker=hyp.tracker,
        finished=hyp.finished,
        unsatisfiable=unsatisfiable,
        warnings=list(warnings),
    )


def _clamp_budget(model, max_len, alpha):
    """Keep prefix + stop inside the decoder's positional table, and
    reject an alpha whose length divisor overflows (or, negative,
    underflows to zero) for an output of budget + 1 chosen tokens."""
    cfg = getattr(model, "config", None)
    if cfg is not None:
        max_len = max(1, min(max_len, cfg.max_len - 1))
    try:
        divisor = float(max_len + 1) ** abs(alpha)
    except OverflowError:
        divisor = math.inf
    if not math.isfinite(divisor):
        raise ValueError("alpha %r overflows the length normalization of"
                         " outputs up to %d tokens" % (alpha, max_len + 1))
    return max_len


def _greedy_hyp(model, decoder, tracker, max_len):
    """Run the argmax loop. Returns the raw hypothesis; finished means
    the stop token was the argmax within budget (its logp is counted).

    Each call checks a guess of the next tokens (the model's
    DraftTable) along with the newest token: the rows are read in order
    while the guess holds, exactly as one call per token would have
    computed them, and the cache is cut back to the rows read."""
    vocab = model.vocab
    drafts = draft_table(model)
    hyp = Hypothesis([], tracker)
    while len(hyp.ids) < max_len and not hyp.finished:
        # a row at the budget's last position is the last one computed
        length = len(hyp.ids)  # positions cached
        draft = drafts.guess(vocab, hyp.ids, max_len - 1 - length)
        for r, lp in enumerate(decoder.logprobs([hyp], draft)):
            if r:
                check_logprobs(lp)
            nxt = int(lp.argmax())
            hyp.score += float(lp[nxt])
            if nxt == vocab.eos_id:
                hyp.finished = True
                break
            hyp.ids.append(nxt)
            changed = tracker.step(vocab.tokens[nxt])
            # the next row holds the guessed token under this column
            if r == len(draft) or draft[r] != nxt or changed:
                break
        if r < len(draft):
            decoder.cache = decoder.cache.cut(length + r + 1)
    drafts.learn(vocab, hyp.ids, hyp.finished)
    return hyp


def _finished(hyp, stop_logp):
    """Finished copy of a live hypothesis, its stop token's logp counted."""
    return Hypothesis(hyp.ids, hyp.tracker, hyp.pointers, hyp.bank,
                      finished=True, score=hyp.score + stop_logp)


def _child(model, parent, token, logp, row, pointers, bank):
    """Live hypothesis extending parent by token, with its own tracker."""
    tracker = parent.tracker.clone()
    tracker.step(model.vocab.tokens[token])
    return Hypothesis(parent.ids + [token], tracker, pointers, bank, row=row,
                      score=parent.score + logp)


def _closed(model, decoder, hyps):
    """Finished copies of live hypotheses, from one batched call."""
    if not hyps:
        return []
    stop = decoder.logprobs(hyps)[:, model.vocab.eos_id]
    return [_finished(hyp, float(lp)) for hyp, lp in zip(hyps, stop)]


def _advance(pointers, targets, token_id):
    """Pointers after emitting token_id. Each is the length of the
    longest prefix of its target that ends the output; a longer one
    must extend the old prefix by this token, so only target[:p] +
    [token_id] is searched. A complete target stays complete."""
    out = []
    for p, target in zip(pointers, targets):
        if p < len(target):
            seen = target[:p] + [token_id]
            p = next(q for q in range(len(seen), -1, -1)
                     if seen[len(seen) - q:] == target[:q])
        out.append(p)
    return out


def _length_caps(alpha, max_len):
    """caps[n]: the largest divisor normalized() applies to a result
    that finishes with n + 1 to max_len + 1 chosen tokens. Taking the
    largest divisor rather than an end of the range needs no assumption
    about alpha's sign or about pow's monotonicity."""
    caps = [max(1, length) ** alpha for length in range(1, max_len + 2)]
    for n in range(max_len - 1, -1, -1):
        caps[n] = max(caps[n], caps[n + 1])
    return caps


def _decided(done, live, alpha, caps):
    """The early stop of the module docstring: True once the best
    finished normalized score is strictly above every live hypothesis's
    score (<= 0) divided by its largest reachable length divisor."""
    if not done:
        return False
    best = max(h.normalized(alpha) for h in done)
    return all(best > h.score / caps[len(h.ids)] for h in live)


def _search(model, decoder, tracker, beam_size, alpha, max_len, targets):
    """The banked beam search of the module docstring. targets holds
    the token-id lists every finished result must contain; with none it
    is plain beam search."""
    eos = model.vocab.eos_id
    full = sum(len(t) for t in targets)
    done = []
    # an unforced stop token takes a top-k slot, so it gets one more
    width = beam_size if targets else beam_size + 1
    live = [Hypothesis([], tracker, [0] * len(targets))]
    # plain search carries the argmax trajectory: the live hypothesis
    # with its ids, or an extra row of each call once the beam drops it
    shadow = None if targets else live[0]
    caps = _length_caps(alpha, max_len)
    for step in range(max_len + 1):
        rows = live if shadow is None or shadow in live else live + [shadow]
        if _decided(done, rows, alpha, caps):
            break
        if step == max_len:
            # budget exhausted: close fully covered survivors for the ranking
            done += _closed(model, decoder, [h for h in rows
                                             if h.bank >= full])
            break
        lps = decoder.logprobs(rows)
        if shadow is not None:
            at = rows.index(shadow)
            greedy = int(np.argmax(lps[at]))
            if greedy == eos:
                done.append(_finished(shadow, float(lps[at, eos])))
                shadow = None
        banks = {}
        for row, (hyp, lp) in enumerate(zip(live, lps)):
            k = min(width, int(np.isfinite(lp).sum()))
            wanted = set(np.argpartition(-lp, k - 1)[:k].tolist())
            if targets:
                wanted.add(eos)
                wanted.update(t[p] for t, p in zip(targets, hyp.pointers)
                              if p < len(t) and lp[t[p]] > -np.inf)
            may_stop = hyp.bank >= full
            ids = tuple(hyp.ids)
            for nxt in sorted(wanted):
                logp = float(lp[nxt])
                if nxt == eos:
                    if may_stop:
                        done.append(_finished(hyp, logp))
                    continue
                pointers = (_advance(hyp.pointers, targets, nxt) if targets
                            else hyp.pointers)
                # a step's children share one length, so (parent ids,
                # token) orders them as their own ids would
                banks.setdefault(sum(pointers), []).append(
                    (-(hyp.score + logp), ids, nxt, row, logp, pointers))
        if not banks and shadow is None:
            break
        parents, live = live, []
        for bank, ranked in banks.items():
            ranked.sort()
            for _, _, nxt, row, logp, pointers in ranked[:beam_size]:
                live.append(_child(model, parents[row], nxt, logp, row,
                                   pointers, bank))
        if shadow is not None:
            twin = [h for h in live if h.row == at and h.ids[-1] == greedy]
            shadow = twin[0] if twin else _child(
                model, shadow, greedy, float(lps[at, greedy]), at,
                shadow.pointers, shadow.bank)
    if done:
        best = min(done, key=lambda h: (-h.normalized(alpha), tuple(h.ids)))
        return _result_from(model, best, alpha)
    # nothing reached full coverage: surface the closest partial
    best = min(live, key=lambda h: (-h.bank, -h.normalized(alpha),
                                    tuple(h.ids)))
    warn = ("constraints not satisfiable within %d steps; "
            "returning best partial (%d/%d constraint tokens)"
            % (max_len, best.bank, full))
    return _result_from(model, best, alpha, unsatisfiable=True,
                        warnings=[warn])


def run_decoder(name: str, model, x_tokens, constraint_rows, config,
                scorer=None, beam_size: int = 4, alpha: float = 0.7,
                max_len: int = 48) -> DecodeResult:
    """Decode one input with the decoder named 'greedy', 'beam' or 'cbs'.

    greedy picks the argmax token every step (ties: smallest id) and
    stops at the end token or after max_len tokens; it ignores
    beam_size. It checks tokens drafted from the model's earlier greedy
    outputs in the same decoder call as the newest token (module
    docstring), so it makes one call per chosen token only while no
    draft holds; the result is the same to the byte. beam is
    length-normalized beam search: live hypotheses are ranked by
    cumulative log-probability (summed left to right), finished ones by
    score / chosen_tokens ** alpha, and ties prefer the smallest token
    id sequence. Width 1 returns greedy's tokens; its scores equal
    greedy's only when greedy stops within max_len. When greedy runs out
    of budget instead, the width-1 result is closed at budget: it also
    counts the stop token's log-probability and is marked finished.
    Wider searches carry the greedy trajectory in their own batched
    steps, so it is always among the scored candidates.

    cbs is beam search banked by verbatim constraint progress: every
    finished result contains each constraint row's input tokens
    verbatim and in token order. If the budget runs out first, the
    closest partial is returned with unsatisfiable=True and a warning.
    Without constraint rows it is beam.
    """
    if name not in ("greedy", "beam", "cbs"):
        raise ValueError("unknown decoder %r" % name)
    if name != "greedy" and beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    max_len = _clamp_budget(model, max_len, alpha)
    x_tokens = list(x_tokens)
    decoder = _Decoder(model, x_tokens)
    # the tracker checks every row against the input before it is read
    tracker = FlagTracker(x_tokens, constraint_rows, config, scorer=scorer)
    targets = []
    if name == "cbs":
        vocab = model.vocab
        # a token outside the vocabulary maps to pad, which is never emitted
        targets = [[vocab.index.get(x_tokens[i], vocab.pad_id) for i in row]
                   for row in constraint_rows]
    if name == "greedy" or (beam_size == 1 and not targets):
        hyp = _greedy_hyp(model, decoder, tracker, max_len)
        if name != "greedy" and not hyp.finished:
            hyp = _closed(model, decoder, [hyp])[0]
        return _result_from(model, hyp, alpha)
    return _search(model, decoder, tracker, beam_size, alpha, max_len,
                   targets)
