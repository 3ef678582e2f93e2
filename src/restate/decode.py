"""Decoding strategies: greedy, length-normalized beam, and a banked
beam search that organizes hypotheses by constraint progress.

All three drive a FlagTracker alongside the model so every generated
token updates the mention flags the next step conditions on. Each
search step is one batched decoder call over every live hypothesis:
the model caches each hypothesis's past positions, so the call forwards
only the newest token with its current flag column. Trackers are
cloned and stepped only for hypotheses that survive pruning, because
ranking and banking never read flags. Scores sum the log-probabilities
of every chosen token (the stop token included once a hypothesis
finishes) and are compared after dividing by the number of chosen
tokens raised to a configurable exponent.

The beam search expands only the argmax continuation at width 1, so it
degenerates to the greedy loop; at any width it also scores the pure
argmax trajectory as a baseline candidate, which makes the greedy
result a floor for the returned normalized score.

The banked search buckets hypotheses by verbatim constraint progress:
a finished constraint counts its full token length, an in-progress one
the length of the contiguous prefix matched so far. Only hypotheses in
the full-coverage bank may stop, so every finished result contains all
constraint tokens in order; when nothing covers everything within the
budget the best partial comes back flagged unsatisfiable instead of
failing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .flags import FlagTracker, SatisfierConfig
from .model.transformer import Seq2SeqModel


@dataclass
class Hypothesis:
    ids: list
    logps: list
    tracker: FlagTracker
    pointers: list = field(default_factory=list)
    finished: bool = False
    # row of the decoder cache that holds every position but the newest
    row: int = 0

    @property
    def score(self) -> float:
        return float(sum(self.logps))

    @property
    def satisfied_count(self) -> int:
        return int(sum(bool(s) for s in self.tracker.m.satisfied))

    def normalized(self, alpha: float) -> float:
        return self.score / max(1, len(self.logps)) ** alpha


@dataclass
class DecodeResult:
    tokens: list
    token_ids: list
    score: float
    normalized_score: float
    tracker: FlagTracker
    satisfied: list
    finished: bool
    unsatisfiable: bool = False
    warnings: list = field(default_factory=list)

    @property
    def flag_matrix(self) -> np.ndarray:
        return self.tracker.matrix()


class _Decoder:
    """One input's decoder cache, advanced by one batched call per step."""

    def __init__(self, model, x_tokens):
        self.model = model
        self.root = model.begin_decode(model.encode(list(x_tokens)))
        self.cache = self.root

    def restart(self):
        """Drop every cached position; the next step starts a new search."""
        self.cache = self.root

    def logprobs(self, hyps):
        """(len(hyps), vocab) next-token log-probabilities, pad and start
        symbol masked out. Every hypothesis has the cache's length, and
        hyp.row indexes the rows of the previous call."""
        vocab = self.model.vocab
        last = [h.ids[-1] if h.ids else vocab.bos_id for h in hyps]
        columns = np.stack([h.tracker.m.current for h in hyps])
        lp, self.cache = self.model.decode_step(
            self.cache, [h.row for h in hyps], last, columns)
        lp[:, vocab.pad_id] = -np.inf
        lp[:, vocab.bos_id] = -np.inf
        return lp


def _result_from(model, hyp, alpha, unsatisfiable=False, warnings=()):
    return DecodeResult(
        tokens=[model.vocab.tokens[i] for i in hyp.ids],
        token_ids=list(hyp.ids),
        score=hyp.score,
        normalized_score=hyp.normalized(alpha),
        tracker=hyp.tracker,
        satisfied=list(hyp.tracker.m.satisfied),
        finished=hyp.finished,
        unsatisfiable=unsatisfiable,
        warnings=list(warnings),
    )


def _new_tracker(x_tokens, constraint_rows, config, scorer):
    return FlagTracker(list(x_tokens), [tuple(r) for r in constraint_rows],
                       config, scorer=scorer)


def _clamp_budget(model, max_len):
    """Keep prefix + stop inside the decoder's positional table."""
    cfg = getattr(model, "config", None)
    if cfg is None:
        return max_len
    return max(1, min(max_len, cfg.max_len - 1))


def _greedy_hyp(model, decoder, tracker, max_len):
    """Run the argmax loop. Returns the raw hypothesis; finished means
    the stop token was the argmax within budget (its logp is counted)."""
    hyp = Hypothesis([], [], tracker)
    for _ in range(max_len):
        lp = decoder.logprobs([hyp])[0]
        nxt = int(np.argmax(lp))
        hyp.logps.append(float(lp[nxt]))
        if nxt == model.vocab.eos_id:
            hyp.finished = True
            break
        hyp.ids.append(nxt)
        hyp.tracker.step(model.vocab.tokens[nxt])
    return hyp


def _closed(model, decoder, hyps, alpha):
    """(finished copy, normalized score) of each live hypothesis, its stop
    logp appended, from one batched call."""
    if not hyps:
        return []
    stop = decoder.logprobs(hyps)[:, model.vocab.eos_id]
    out = []
    for hyp, lp in zip(hyps, stop):
        fin = Hypothesis(list(hyp.ids), hyp.logps + [float(lp)], hyp.tracker,
                         list(hyp.pointers), True)
        out.append((fin, fin.normalized(alpha)))
    return out


def greedy_decode(model: Seq2SeqModel, x_tokens, constraint_rows,
                  config: SatisfierConfig, scorer=None, max_len: int = 48,
                  alpha: float = 0.7) -> DecodeResult:
    """Pick the argmax token every step (ties: smallest id); stop at the
    end token or after max_len tokens."""
    max_len = _clamp_budget(model, max_len)
    hyp = _greedy_hyp(model, _Decoder(model, x_tokens),
                      _new_tracker(x_tokens, constraint_rows, config, scorer),
                      max_len)
    return _result_from(model, hyp, alpha)


def _rank_key(item):
    hyp, sc = item
    return (-sc, tuple(hyp.ids))


def _extend(hyp, nxt, lp_val, row):
    """Candidate child of the hypothesis in decoder row `row`. It shares
    its parent's tracker until _step_trackers runs on the survivors."""
    return Hypothesis(hyp.ids + [nxt], hyp.logps + [lp_val], hyp.tracker,
                      list(hyp.pointers), row=row)


def _step_trackers(model, hyps):
    """Give each surviving child its own tracker, advanced by its newest
    token."""
    for hyp in hyps:
        hyp.tracker = hyp.tracker.clone()
        hyp.tracker.step(model.vocab.tokens[hyp.ids[-1]])
    return hyps


def beam_decode(model: Seq2SeqModel, x_tokens, constraint_rows,
                config: SatisfierConfig, scorer=None, beam_size: int = 4,
                alpha: float = 0.7, max_len: int = 48) -> DecodeResult:
    """Length-normalized beam search.

    Live hypotheses are ranked by cumulative log-probability, finished
    ones by score / chosen_tokens ** alpha; ties prefer the smallest
    token id sequence. Width 1 reproduces the greedy loop exactly, and
    the greedy trajectory is always among the scored candidates.
    """
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    x_tokens = list(x_tokens)
    max_len = _clamp_budget(model, max_len)
    decoder = _Decoder(model, x_tokens)
    seed = _greedy_hyp(model, decoder,
                       _new_tracker(x_tokens, constraint_rows, config, scorer),
                       max_len)
    if seed.finished:
        done = [(seed, seed.normalized(alpha))]
    else:
        done = _closed(model, decoder, [seed], alpha)
    if beam_size == 1:
        # the seeded argmax trajectory is the entire width-1 search
        return _result_from(model, done[0][0], alpha)
    decoder.restart()
    live = [Hypothesis([], [], _new_tracker(x_tokens, constraint_rows,
                                            config, scorer))]
    width = beam_size + 1  # keep slots for live paths when eos ranks high
    for _ in range(max_len):
        cands = []
        for row, (hyp, lp) in enumerate(zip(live, decoder.logprobs(live))):
            k = min(width, int(np.isfinite(lp).sum()))
            top = np.argpartition(-lp, k - 1)[:k]
            for nxt in sorted(top, key=lambda i: (-lp[i], i)):
                nxt = int(nxt)
                if nxt == model.vocab.eos_id:
                    fin = Hypothesis(list(hyp.ids),
                                     hyp.logps + [float(lp[nxt])],
                                     hyp.tracker, finished=True)
                    done.append((fin, fin.normalized(alpha)))
                else:
                    cands.append(_extend(hyp, nxt, float(lp[nxt]), row))
        ranked = sorted(((h, h.score) for h in cands), key=_rank_key)
        live = _step_trackers(model, [h for h, _ in ranked[:beam_size]])
        if not live:
            break
    # budget exhausted: close survivors for final ranking
    done += _closed(model, decoder, live, alpha)
    done.sort(key=_rank_key)
    return _result_from(model, done[0][0], alpha)


def _constraint_tokens(x_tokens, constraint_rows):
    return [[x_tokens[i] for i in row] for row in constraint_rows]


def _bank_of(hyp, lens):
    return sum(ln if p >= ln else p for p, ln in zip(hyp.pointers, lens))


def _advance_pointers(hyp, ctoks, token):
    for ci, toks in enumerate(ctoks):
        p = hyp.pointers[ci]
        if p >= len(toks):
            continue  # lexically complete, stays complete
        if token == toks[p]:
            hyp.pointers[ci] = p + 1
        else:
            hyp.pointers[ci] = 1 if token == toks[0] else 0


def constrained_beam_decode(model: Seq2SeqModel, x_tokens, constraint_rows,
                            config: SatisfierConfig, scorer=None,
                            beam_size: int = 4, alpha: float = 0.7,
                            max_len: int = 48) -> DecodeResult:
    """Banked beam search keyed by verbatim constraint progress.

    Bank b holds hypotheses whose matched constraint tokens sum to b;
    each bank keeps its own top beam_size, every unfinished constraint's
    next needed token is always a candidate, and only the full-coverage
    bank may emit the stop token. Finished results therefore contain
    every constraint verbatim and in token order. If the budget runs
    out first, the closest partial is returned with unsatisfiable=True
    and a warning.
    """
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    x_tokens = list(x_tokens)
    constraint_rows = [tuple(r) for r in constraint_rows]
    if not constraint_rows:
        return beam_decode(model, x_tokens, constraint_rows, config,
                           scorer=scorer, beam_size=beam_size, alpha=alpha,
                           max_len=max_len)
    max_len = _clamp_budget(model, max_len)
    decoder = _Decoder(model, x_tokens)
    ctoks = _constraint_tokens(x_tokens, constraint_rows)
    lens = [len(t) for t in ctoks]
    full = sum(lens)
    root = Hypothesis([], [], _new_tracker(x_tokens, constraint_rows,
                                           config, scorer),
                      pointers=[0] * len(ctoks))
    banks = {0: [root]}
    done = []
    for _ in range(max_len):
        cands = []
        live = [hyp for hyps in banks.values() for hyp in hyps]
        for row, (hyp, lp) in enumerate(zip(live, decoder.logprobs(live))):
            k = min(beam_size, int(np.isfinite(lp).sum()))
            top = np.argpartition(-lp, k - 1)[:k]
            wanted = {int(i) for i in top}
            for ci, toks in enumerate(ctoks):
                p = hyp.pointers[ci]
                if p < lens[ci]:
                    tid = model.vocab.index.get(toks[p])
                    if tid is not None:
                        wanted.add(tid)
            wanted.add(model.vocab.eos_id)
            at_full = _bank_of(hyp, lens) >= full
            for nxt in sorted(wanted):
                if not np.isfinite(lp[nxt]):
                    continue
                if nxt == model.vocab.eos_id:
                    if at_full:
                        fin = Hypothesis(list(hyp.ids),
                                         hyp.logps + [float(lp[nxt])],
                                         hyp.tracker, list(hyp.pointers),
                                         True)
                        done.append((fin, fin.normalized(alpha)))
                    continue
                child = _extend(hyp, nxt, float(lp[nxt]), row)
                _advance_pointers(child, ctoks, model.vocab.tokens[nxt])
                cands.append(child)
        banks = {}
        for child in cands:
            banks.setdefault(_bank_of(child, lens), []).append(child)
        for b in banks:
            ranked = sorted(((h, h.score) for h in banks[b]), key=_rank_key)
            banks[b] = _step_trackers(model,
                                      [h for h, _ in ranked[:beam_size]])
        if not banks:
            break
    # force-close any fully covered survivor so it can still be returned
    done += _closed(model, decoder,
                    [hyp for hyps in banks.values() for hyp in hyps
                     if _bank_of(hyp, lens) >= full], alpha)
    if done:
        done.sort(key=_rank_key)
        return _result_from(model, done[0][0], alpha)
    # nothing reached full coverage: surface the closest partial
    pool = [h for hyps in banks.values() for h in hyps]
    if not pool:
        raise RuntimeError("search emptied without any hypothesis")
    pool.sort(key=lambda h: (-_bank_of(h, lens), -h.normalized(alpha),
                             tuple(h.ids)))
    best = pool[0]
    warn = ("constraints not satisfiable within %d steps; "
            "returning best partial (%d/%d constraint tokens)"
            % (max_len, _bank_of(best, lens), full))
    return _result_from(model, best, alpha, unsatisfiable=True,
                        warnings=[warn])


def run_decoder(name: str, model, x_tokens, constraint_rows, config,
                scorer=None, beam_size: int = 4, alpha: float = 0.7,
                max_len: int = 48) -> DecodeResult:
    """Dispatch by decoder name: 'greedy', 'beam', or 'cbs'."""
    if name == "greedy":
        return greedy_decode(model, x_tokens, constraint_rows, config,
                             scorer=scorer, max_len=max_len, alpha=alpha)
    if name == "beam":
        return beam_decode(model, x_tokens, constraint_rows, config,
                           scorer=scorer, beam_size=beam_size, alpha=alpha,
                           max_len=max_len)
    if name == "cbs":
        return constrained_beam_decode(model, x_tokens, constraint_rows,
                                       config, scorer=scorer,
                                       beam_size=beam_size, alpha=alpha,
                                       max_len=max_len)
    raise ValueError("unknown decoder %r" % name)
