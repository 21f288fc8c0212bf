"""An empty module, kept importable for the benchmark harness.

perfbench loads ``hqec._kernels`` as one of its traced layers, and its
``kernels.*`` metrics read 0 calls.  The sort-and-sum of sparse states is
``states._coalesce``; no module in ``src/`` imports numpy.
"""
