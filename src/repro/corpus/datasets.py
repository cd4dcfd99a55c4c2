"""Canned synthetic data sets matching the paper's corpora (§3.2).

Each factory is deterministic in its seed and accepts a ``scale`` so tests
can work with hundreds of files while benchmarks use tens of thousands; the
*distribution* of sizes is scale-invariant.

``html_18mil_like``
    the NewsLab crawl: nominally 18 million HTML files / ~900 GB, majority
    under 50 kB, long tail, largest file 43 MB (Fig. 1(a), 10 kB bins).
``text_400k_like``
    extracted English text: nominally 400 000 files / ~1 GB, majority under
    5 kB, largest 705 kB (Fig. 1(b), 1 kB bins).
``dubliners_like`` / ``agnes_grey_like``
    two single-file "novels" with near-identical word counts (67 496 vs
    67 755 words) but very different sentence complexity, for the §5.2
    complexity experiment.

A catalogue factory only draws numbers: the result stores the sizes and
text statistics as columns, with a path pattern and a seed rule from
which each file's path and content seed are worked out when code asks
for that file (:class:`~repro.vfs.files.Catalogue`).

The three catalogue factories share their result by argument values
inside a sweep (:func:`~repro.vfs.memo.shared_in_sweep`): the cells of
one sweep that ask for the same corpus get the same immutable
:class:`~repro.vfs.files.Catalogue`.  Outside a sweep every call builds
a fresh one.
"""

from __future__ import annotations

import numpy as np

from repro.corpus.distributions import LongTailSizeDistribution
from repro.corpus.text import (
    COMPLEX_NOVEL_PROFILE,
    SIMPLE_NOVEL_PROFILE,
    TextProfile,
    synthesize_novel,
)
from repro.sim.random import RngStream
from repro.units import KB, MB
from repro.vfs.files import Catalogue, TextStats, VirtualFile
from repro.vfs.memo import shared_in_sweep

__all__ = [
    "HTML_18MIL_DIST",
    "TEXT_400K_DIST",
    "html_18mil_like",
    "text_400k_like",
    "mixed_domain_like",
    "dubliners_like",
    "agnes_grey_like",
    "DUBLINERS_WORDS",
    "AGNES_GREY_WORDS",
]

# Calibrated so that ~75-85 % of files fall under 50 kB, the mean lands near
# 900 GB / 18 M = 50 kB, and the tail reaches the quoted 43 MB maximum.
HTML_18MIL_DIST = LongTailSizeDistribution(
    body_median=22 * KB,
    body_sigma=0.95,
    tail_weight=0.05,
    tail_shape=1.15,
    tail_scale=55 * KB,
    min_size=1 * KB,
    max_size=43 * MB,
)

# Majority < 5 kB, "over 40% of our files are less than 1 kB" (§5.2),
# mean ≈ 1 GB / 400 k ≈ 2.4 kB, max 705 kB.
TEXT_400K_DIST = LongTailSizeDistribution(
    body_median=1_150,
    body_sigma=0.85,
    tail_weight=0.04,
    tail_shape=1.2,
    tail_scale=5 * KB,
    min_size=150,
    max_size=705 * KB,
)

_HTML_NOMINAL_FILES = 18_000_000
_TEXT_NOMINAL_FILES = 400_000

DUBLINERS_WORDS = 67_496
AGNES_GREY_WORDS = 67_755


def _build_catalogue(
    name: str,
    dist: LongTailSizeDistribution,
    n_files: int,
    seed: int,
    *,
    html: bool,
    sentence_mean: float,
    sentence_sd: float,
    complexity_head_boost: float = 0.0,
) -> Catalogue:
    """Assemble a catalogue of virtual files with per-file text statistics.

    ``complexity_head_boost`` adds extra average sentence length to the
    first files in catalogue order, fading linearly to zero across the
    catalogue.  The paper's §4 probe protocol reads the *head* of the data
    while §5 refits use *random samples*; a head/average complexity gap is
    exactly what makes the refit slope differ from the probe slope
    (Eq. (3) vs Eq. (4)).

    Sizes and sentence lengths are numpy draws, and they are the whole
    catalogue: it stores them as columns with a path pattern and a seed
    rule (the :class:`Catalogue` constructor), and builds a file's
    :class:`~repro.vfs.files.VirtualFile` view, content seed included,
    only when code asks for that file.
    """
    rng = RngStream(seed, name=name)
    sizes = dist.ensure_max_present(dist.sample(rng.fork("sizes"), n_files))
    slens = rng.fork("complexity").normals(sentence_mean, sentence_sd, n_files)
    slens = np.clip(slens, 6.0, 45.0)
    if complexity_head_boost and n_files > 1:
        fade = np.linspace(1.0, 0.0, n_files)
        slens = slens + complexity_head_boost * fade
    width = max(6, len(str(n_files)))
    # Calibrated against the generator: materialised text yields one token
    # (word or punctuation) per ≈8.1 bytes, and the light <p> markup of the
    # HTML corpus hides ≈1 % of bytes from the tokenizer.
    markup = 0.011 if html else 0.0
    ext = "html" if html else "txt"
    path = f"{name.replace('%', '%%')}/%0{width}d.{ext}"
    return Catalogue(name, path, seed, name, sizes,
                     TextStats._column(7.1, slens, markup))


@shared_in_sweep
def html_18mil_like(scale: float = 1e-4, seed: int = 2010) -> Catalogue:
    """NewsLab-like HTML catalogue.  ``scale=1.0`` → the full 18 M files.

    The catalogue is stored as columns (≈24 B/file: the size, its running
    total and the sentence length), so full scale holds ≈0.4 GB and no
    per-file object until code asks for files; the paper-scale test in
    ``benchmarks/test_perf_corpus.py`` guards the build's peak memory.  The
    distribution is scale-invariant; experiments run at reduced scale and
    reason in ratios.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    n = max(1, int(round(_HTML_NOMINAL_FILES * scale)))
    return _build_catalogue(
        "html_18mil", HTML_18MIL_DIST, n, seed,
        html=True, sentence_mean=19.0, sentence_sd=2.0,
    )


@shared_in_sweep
def text_400k_like(scale: float = 1e-3, seed: int = 2011) -> Catalogue:
    """Extracted-text catalogue.  ``scale=1.0`` → the full 400 k files."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    n = max(1, int(round(_TEXT_NOMINAL_FILES * scale)))
    return _build_catalogue(
        "text_400k", TEXT_400K_DIST, n, seed,
        html=False, sentence_mean=16.5, sentence_sd=2.5,
        complexity_head_boost=4.0,
    )


class Novel:
    """A fully materialised single text with known statistics.

    Unlike catalogue files (which regenerate bytes from a seed), a novel
    keeps its exact text, because the §5.2 experiment feeds the *same* bytes
    to the native POS tagger and to the work estimator.
    """

    def __init__(self, name: str, text: str, profile: TextProfile) -> None:
        self.name = name
        self.text = text
        self.profile = profile

    @property
    def n_words(self) -> int:
        return len(self.text.split())

    @property
    def size(self) -> int:
        return len(self.text.encode("ascii"))

    def stats(self) -> TextStats:
        """Measured text statistics of this novel."""
        words = self.text.split()
        avg_wl = sum(len(w) for w in words) / max(1, len(words))
        return TextStats(avg_word_len=avg_wl,
                         avg_sentence_words=self.profile.avg_sentence_words)

    def virtual_file(self) -> VirtualFile:
        """Metadata-only view for the work estimator / simulator."""
        return VirtualFile(
            path=f"novels/{self.name}.txt",
            size=self.size,
            stats=self.stats(),
            content_seed=0,
        )

    def unit(self) -> "LiteralFile":
        """Materialisable unit carrying this novel's exact bytes."""
        from repro.vfs.files import LiteralFile

        return LiteralFile(
            path=f"novels/{self.name}.txt",
            size=self.size,
            stats=self.stats(),
            content=self.text.encode("ascii"),
        )


@shared_in_sweep
def mixed_domain_like(scale: float = 1e-3, seed: int = 2012) -> Catalogue:
    """A corpus of *clustered* complexity domains (§5.2's closing caveat).

    The news set is "uniform in terms of language complexity", which is why
    its random-sample refit barely moved the model; "for other corpora …
    random sampling can be vital".  This catalogue interleaves three
    contiguous domains — headline-ish prose (≈10 words/sentence),
    news-ish (≈18), and academic-ish (≈28) — so the catalogue *head* is
    wildly unrepresentative of the average, the situation where head-only
    probing fails and sampling rescues the model.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    n = max(3, int(round(_TEXT_NOMINAL_FILES * scale)))
    rng = RngStream(seed, name="mixed_domain")
    sizes = TEXT_400K_DIST.ensure_max_present(
        TEXT_400K_DIST.sample(rng.fork("sizes"), n))
    domains = (
        ("headline", 10.0, 1.5),
        ("news", 18.0, 2.0),
        ("academic", 28.0, 3.0),
    )
    per = n // len(domains)
    path = f"mixed_domain/%0{max(6, len(str(n)))}d.txt"
    slens = []
    for i in range(n):
        d = min(i // max(1, per), len(domains) - 1)
        _, mean, sd = domains[d]
        slens.append(min(45.0, max(6.0, rng.fork(f"c{i}").normal(mean, sd))))
    return Catalogue("mixed_domain", path, seed, "mixed", sizes,
                     TextStats._column(7.1, slens, 0.0))


def _make_novel(name: str, n_words: int, profile: TextProfile, seed: int) -> Novel:
    text = synthesize_novel(RngStream(seed, name=name), n_words, profile)
    return Novel(name, text, profile)


def dubliners_like(seed: int = 1914) -> Novel:
    """A complex-prose novel: 67 496 words, long subordinated sentences."""
    return _make_novel("dubliners", DUBLINERS_WORDS, COMPLEX_NOVEL_PROFILE, seed)


def agnes_grey_like(seed: int = 1847) -> Novel:
    """A plain-prose novel: 67 755 words, short sentences."""
    return _make_novel("agnes_grey", AGNES_GREY_WORDS, SIMPLE_NOVEL_PROFILE, seed)
