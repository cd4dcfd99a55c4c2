"""The member-by-member segment statistics, frozen as an oracle.

Before a packed layout became one catalogue, a segment built from its
members computed its statistics with this loop: each member's share of
the segment's bytes times its own statistic, summed in member order.  A
packed catalogue's stat columns must equal it bit for bit.

Do not "improve" this module: its value is that it does not change.
"""

from __future__ import annotations

from typing import Sequence

from repro.vfs import TextStats, VirtualFile


def segment_stats(members: Sequence[VirtualFile]) -> TextStats:
    """Volume-weighted aggregate statistics of ``members``."""
    total = sum(m.size for m in members)
    if total == 0:
        return TextStats()
    w = [m.size / total for m in members]
    return TextStats(
        avg_word_len=sum(wi * m.stats.avg_word_len for wi, m in zip(w, members)),
        avg_sentence_words=sum(
            wi * m.stats.avg_sentence_words for wi, m in zip(w, members)
        ),
        markup_fraction=sum(wi * m.stats.markup_fraction for wi, m in zip(w, members)),
    )
