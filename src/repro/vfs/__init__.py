"""Virtual file system for corpora far larger than local disk.

The paper's data sets (900 GB of HTML, 18 million files) cannot and need not
be materialised: every experiment consumes either (a) file *metadata* — size,
token statistics — or (b) the actual bytes of a *small* probe subset.  This
package provides:

* :class:`VirtualFile` — size + text statistics + a deterministic,
  seed-derived content generator, so ``materialize()`` always yields the
  same bytes without storing them;
* :class:`Catalogue` — an ordered collection stored as columns (sizes and
  text statistics), with totals, slicing, volume sampling and
  histogramming; a corpus, a stage's output and a packed layout are all
  catalogues, so every layer prices, plans and runs one representation;
* :class:`Segment` — the concatenation of several virtual files, which is
  exactly what the reshaper produces (unit files built by merging): the
  view of one row of a packed catalogue;
* :mod:`repro.vfs.memo` — a memo scoped to one sweep, through which the
  sweep's cells share the immutable catalogues they derive.
"""

from repro.vfs.files import Catalogue, LiteralFile, Segment, TextStats, VirtualFile

__all__ = ["Catalogue", "LiteralFile", "Segment", "TextStats", "VirtualFile"]
