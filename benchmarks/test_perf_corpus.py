"""Perf guard: corpus catalogues are column stores that build no file object.

``GrepReshape.setup`` in perfbench builds two ``html_18mil_like(scale=7e-3)``
corpora (126k files each) back to back and keeps both alive.  Stored as
columns (the sizes, the sentence lengths and a path pattern and seed
rule), the pair takes 0.04 s on a 2-core shared x86 host whose speed
drifts between runs; the former bulk build of 252k ``VirtualFile`` and
``TextStats`` objects took 0.95–1.41 s there, and a build through the
per-object constructors 1.87–3.41 s.  The 0.3 s ceiling fails any build
that makes one object per file and leaves ≈7× headroom.

Files now cost only the code that asks for them.  Materialising all 126k
views of one corpus through ``catalogue.files`` takes 0.65–1.1 s on the
same host (the old bulk build's per-corpus cost); its 2.0 s ceiling
catches a view path that falls back to the checking constructors or a
seed hashed per file from scratch.

The paper-scale check builds the full 18-million-file corpus in a
subprocess: ≈3.5 s and a 602 MB peak RSS there, against a 1.5 GB bound
(a per-file object build needed ≈9 GB).
"""

import json
import subprocess
import sys
import time

import pytest

from repro.corpus import html_18mil_like

SCALE = 7e-3
MAX_SECONDS = 0.3
MAX_VIEW_SECONDS = 2.0
ATTEMPTS = 2   # one re-measure absorbs a noisy neighbour on shared hosts
MAX_PAPER_SCALE_RSS_MB = 1536

#: Builds the paper-scale corpus and prints its headline numbers and the
#: process's peak RSS (``ru_maxrss`` is KiB on Linux).
_PAPER_SCALE = """
import json, resource
from repro.corpus import html_18mil_like
cat = html_18mil_like(scale=1.0)
print(json.dumps({"files": len(cat), "total": cat.total_size,
                  "max": cat.max_file_size,
                  "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


@pytest.mark.perf
def test_two_corpora_build_in_bulk(benchmark):
    def once() -> float:
        t0 = time.perf_counter()
        first = html_18mil_like(scale=SCALE)
        second = html_18mil_like(scale=SCALE, seed=1)
        elapsed = time.perf_counter() - t0
        assert len(first) == len(second) == 126_000
        assert first[0].path == second[0].path and first[0] != second[0]
        return elapsed

    elapsed = benchmark.pedantic(
        lambda: min(once() for _ in range(ATTEMPTS)), rounds=1, iterations=1)
    print(f"\ntwo {SCALE:g}-scale HTML corpora in {elapsed:.3f} s")
    assert elapsed <= MAX_SECONDS, (
        f"building two corpora took {elapsed:.3f} s (ceiling {MAX_SECONDS} s)")


@pytest.mark.perf
def test_all_views_of_a_corpus(benchmark):
    def once() -> float:
        catalogue = html_18mil_like(scale=SCALE)
        t0 = time.perf_counter()
        files = catalogue.files
        elapsed = time.perf_counter() - t0
        assert len(files) == 126_000 and files[-1] is catalogue[-1]
        return elapsed

    elapsed = benchmark.pedantic(
        lambda: min(once() for _ in range(ATTEMPTS)), rounds=1, iterations=1)
    print(f"\n126k views in {elapsed:.3f} s")
    assert elapsed <= MAX_VIEW_SECONDS, (
        f"materialising 126k views took {elapsed:.3f} s "
        f"(ceiling {MAX_VIEW_SECONDS} s)")


@pytest.mark.perf
def test_paper_scale_corpus_fits_in_memory(benchmark):
    def once() -> dict:
        out = subprocess.run([sys.executable, "-c", _PAPER_SCALE], check=True,
                             capture_output=True, text=True, timeout=300)
        return json.loads(out.stdout.splitlines()[-1])

    built = benchmark.pedantic(once, rounds=1, iterations=1)
    print(f"\n18M-file corpus: peak RSS {built['rss_mb']:.0f} MB")
    assert built["files"] == 18_000_000
    assert round(built["total"] / 1e9, 1) == 847.8
    assert built["max"] == 43_000_000
    assert built["rss_mb"] <= MAX_PAPER_SCALE_RSS_MB, (
        f"the paper-scale corpus peaked at {built['rss_mb']:.0f} MB "
        f"(bound {MAX_PAPER_SCALE_RSS_MB} MB)")
