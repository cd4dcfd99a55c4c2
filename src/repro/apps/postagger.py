"""A real part-of-speech tagger (the paper's §5.2 workload).

The Stanford left3words tagger is closed-source Java; this reproduction
implements a transparent three-stage tagger with the same *computational
shape*:

1. **Lexicon lookup** for closed-class words (determiners, pronouns,
   prepositions, conjunctions, auxiliaries) — O(1) per token;
2. **Suffix rules** for open-class words (``-tion`` → NN, ``-ly`` → RB,
   ``-ize`` → VB, …) — O(1) per token;
3. **Context transformation rules** (Brill-style) applied per sentence,
   where the window work grows superlinearly in sentence length — this is
   what makes "average sentence length … an important parameter for POS
   tagging" (§5.2) and complex prose ≈2× slower at equal word count.

The tagset is a Penn-Treebank subset: DT PRP IN CC MD VB VBD VBZ NN NNS JJ
RB CD PUNCT.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Sequence

import numpy as np

from repro.apps.base import AppResult, TextApplication, Unit, UnitColumns, WorkAccount, fold
from repro.apps.tokenize import sentences as split_sentences
from repro.apps.tokenize import strip_markup

__all__ = ["PosTaggerApplication", "tag_sentence", "token_work", "CONTEXT_EXPONENT"]

#: Work for the context pass over a sentence of length L is ``L**CONTEXT_EXPONENT``
#: (window comparisons against a history whose effective width grows with
#: clause nesting).  Calibrated so complex prose (≈27 words/sentence) costs
#: ≈1.7× simple prose (≈13 words/sentence) per token, matching the paper's
#: Dubliners vs Agnes Grey observation.
CONTEXT_EXPONENT = 1.85

_LEXICON = {
    **{w: "DT" for w in ("the", "a", "an", "this", "that", "these", "those")},
    **{w: "PRP" for w in ("he", "she", "it", "they", "we", "you", "i")},
    **{w: "IN" for w in ("of", "in", "on", "at", "by", "with", "from", "under", "over")},
    **{w: "CC" for w in ("and", "but", "or", "while", "because", "although")},
    **{w: "VBZ" for w in ("is", "has")},
    **{w: "VBD" for w in ("was", "were", "had")},
    **{w: "VB" for w in ("are",)},
    **{w: "MD" for w in ("will", "would", "can", "could", "may", "might")},
}

_PUNCT = set(".,;:!?()\"'-")

# (suffix, tag) checked longest-first.
_SUFFIX_RULES: list[tuple[str, str]] = [
    ("tion", "NN"), ("ment", "NN"), ("ness", "NN"), ("ism", "NN"), ("ist", "NN"),
    ("able", "JJ"), ("ous", "JJ"), ("ful", "JJ"), ("ive", "JJ"),
    ("ize", "VB"), ("ate", "VB"), ("ify", "VB"),
    ("ly", "RB"),
    ("ed", "VBD"),
    ("al", "JJ"),
    ("er", "NN"),
    ("s", "NNS"),
]


def _lexical_tag(token: str) -> str:
    low = token.lower()
    if low in _LEXICON:
        return _LEXICON[low]
    if token in _PUNCT:
        return "PUNCT"
    if token[0].isdigit():
        return "CD"
    for suffix, tag in _SUFFIX_RULES:
        if len(low) > len(suffix) + 1 and low.endswith(suffix):
            return tag
    return "NN"


def tag_sentence(tokens: Sequence[str]) -> tuple[list[str], float]:
    """Tag one sentence; returns ``(tags, context_ops)``.

    The context pass re-examines each position against a trigram history
    whose effective width grows with sentence length (clause nesting pushes
    antecedents further away), so its work is ``L**CONTEXT_EXPONENT``.
    """
    tags = [_lexical_tag(t) for t in tokens]
    n = len(tags)
    # Brill-style transformations over (prev, cur, next) windows.
    for i in range(n):
        prev_tag = tags[i - 1] if i > 0 else "BOS"
        next_tag = tags[i + 1] if i + 1 < n else "EOS"
        cur = tags[i]
        # DT _ : determiner is followed by a nominal head, not a bare verb.
        if prev_tag == "DT" and cur in ("VB", "VBD"):
            tags[i] = "NN"
        # MD _ : modal takes a base verb.
        elif prev_tag == "MD" and cur in ("NN", "NNS"):
            tags[i] = "VB"
        # PRP _ : pronoun subject is followed by a verb.
        elif prev_tag == "PRP" and cur == "NNS":
            tags[i] = "VBZ"
        # _ NN with current RB: adverb before a noun is really an adjective.
        elif cur == "RB" and next_tag in ("NN", "NNS"):
            tags[i] = "JJ"
    context_ops = float(n) ** CONTEXT_EXPONENT if n else 0.0
    return tags, context_ops


def _context_scale(avg_sentence_words: np.ndarray) -> np.ndarray:
    """``max(L, 1)**(e-1)`` per unit, with libm's power: ``np.power`` can
    round the last ulp differently."""
    avg_len = np.maximum(avg_sentence_words, 1.0).tolist()
    scale = map(math.pow, avg_len, repeat(CONTEXT_EXPONENT - 1.0))
    return np.fromiter(scale, float, len(avg_len))


def _token_work(units: UnitColumns) -> tuple[np.ndarray, np.ndarray]:
    text_bytes = units.size * (1.0 - units.markup_fraction)
    tokens = (text_bytes / (units.avg_word_len + 1.0)).astype(np.int64)
    return tokens, tokens * units.per_file("avg_sentence_words", _context_scale)


def token_work(units: UnitColumns) -> tuple[np.ndarray, np.ndarray]:
    """Per-unit ``(tokens, context_ops)`` estimated from the stat columns.

    Tokens are text bytes over word + separator.  Summed over sentences,
    ``L**e`` ≈ ``tokens · avg_len**(e-1)``; the context scale
    ``avg_len**(e-1)`` is computed once per file of a catalogue's store.
    The result is kept on ``units``, so :meth:`PosTaggerApplication.estimate_work`
    and :meth:`PosCostProfile.breakdown <repro.apps.profiles.PosCostProfile.breakdown>`
    pricing one bin share one pass.
    """
    return units.once(_token_work)


class PosTaggerApplication(TextApplication):
    """Tag every token of every unit file.

    Like the paper's wrapper around the Stanford tagger, one "run" starts a
    single tagger process for all files ("we wrap the default POS tagger
    class … such that we process a set of files avoiding the startup cost of
    a new JVM for every file").
    """

    name = "postag"

    def run_native(self, units: Sequence[Unit]) -> AppResult:
        """Materialise, tokenise and tag every unit."""
        work = WorkAccount()
        tag_counts: dict[str, int] = {}
        for unit in units:
            data = unit.materialize()
            work.files_opened += 1
            work.bytes_read += len(data)
            text = strip_markup(data.decode("ascii", errors="replace"))
            for sent in split_sentences(text):
                tags, ops = tag_sentence(sent)
                work.tokens += len(tags)
                work.sentences += 1
                work.context_ops += ops
                work.output_bytes += sum(len(t) + len(g) + 2 for t, g in zip(sent, tags))
                for g in tags:
                    tag_counts[g] = tag_counts.get(g, 0) + 1
        work.validate()
        return AppResult(work=work, outputs={"tag_counts": tag_counts})

    def estimate_work(self, units: UnitColumns) -> WorkAccount:
        """Predict tagging work from metadata alone."""
        tokens, context_ops = token_work(units)
        # A non-empty unit holds at least one sentence, an empty one none.
        sentences = np.maximum((tokens / units.avg_sentence_words).astype(np.int64), 1)
        output_bytes = tokens * (units.avg_word_len + 4.0)
        work = WorkAccount(
            files_opened=len(units),
            bytes_read=int(units.size.sum()),
            tokens=int(tokens.sum()),
            sentences=int(sentences[units.size > 0].sum()),
            output_bytes=int(output_bytes.astype(np.int64).sum()),
            context_ops=fold(context_ops),
        )
        work.validate()
        return work
