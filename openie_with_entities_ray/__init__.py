"""Ray-Data-native knowledge-graph construction engine.

A from-scratch re-expression of the capabilities of
``prajnaupadhyay/openie-with-entities`` (entity-constrained OpenIE6-style
iterative grid labeling; see SURVEY.md) as ``ray.data.Dataset`` pipelines:

- ``functions/``  pure per-sentence kernels (coordination decode, sentence
  splitting, triple decode, dedup) with bit-parity to the reference
  semantics, called inside ``map_batches``;
- ``state/``      stateful components built once per worker process by
  the kernel classes that ``stages/extract.py:map_kernel`` runs
  (sequence labelers, NER tagger, entity linker);
- ``sources/``    readers for the source_docs Parquet table and the
  reference's text formats (CaRB gold TSV, allennlp, tabbed, labels, conj);
- ``stages/``     Ray Data stage builders (map_batches / groupby wrappers);
- ``pipelines/``  end-to-end composition (flagship splitpredict analogue,
  graph materialization) plus the pure-Python row-by-row oracle used by the
  conformance gate;
- ``eval/``       CaRB-style matcher/benchmark and constraint-violation
  counters.

Nothing in this package calls ``ray.init()`` — sessions are owned by the
caller (driver, bench.py, or the pytest fixture).
"""

__version__ = "0.1.0"
