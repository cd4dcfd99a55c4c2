"""Text-processing applications (the paper's §5.1 and §5.2 workloads).

Two real applications with identical interfaces:

* :class:`GrepApplication` — streaming pattern search, the I/O-bound
  workload of §5.1 (the paper uses GNU grep 2.5.1 searching for a nonsense
  word, i.e. a full-traversal worst case);
* :class:`PosTaggerApplication` — a lexicon + suffix + context part-of-
  speech tagger, the memory/CPU-bound workload of §5.2 (the paper wraps the
  Stanford tagger to avoid a JVM start per file).

Each application supports two evaluation paths that must agree:

``run_native(units)``
    materialise the unit files and actually process the bytes, returning
    exact :class:`WorkAccount` numbers — used by tests, examples, and probe
    calibration at small scale;
``estimate_work(UnitColumns(units))``
    predict the same work from file *metadata* only — used by the EC2
    simulator so that 100 GB experiments never materialise 100 GB.  The
    metadata is columnar: :class:`UnitColumns` holds a bin's sizes and text
    statistics as numpy columns for ``estimate_work`` and each profile's
    ``breakdown``; a single unit is a length-1 column.

:mod:`repro.apps.profiles` maps work to reference-instance seconds; those
profiles are the simulator's hidden ground truth which the paper's
empirical methodology (probes + regression) estimates from the outside.
"""

from repro.apps.base import AppResult, TextApplication, UnitColumns, WorkAccount
from repro.apps.extractor import ExtractCostProfile, ExtractorApplication
from repro.apps.grep import GrepApplication
from repro.apps.postagger import PosTaggerApplication
from repro.apps.profiles import GrepCostProfile, PosCostProfile, TimeBreakdown
from repro.apps.tokenize import sentences, strip_markup, tokenize

__all__ = [
    "AppResult",
    "TextApplication",
    "UnitColumns",
    "WorkAccount",
    "ExtractorApplication",
    "ExtractCostProfile",
    "GrepApplication",
    "PosTaggerApplication",
    "GrepCostProfile",
    "PosCostProfile",
    "TimeBreakdown",
    "tokenize",
    "sentences",
    "strip_markup",
]
