"""perfbench — the standing benchmark for the engine this repository ships.

See ``perfbench/README.md``.  Nothing here is imported by ``src/``; the
package exists so ``run.py``, the smoke test and the tracer share one import
path (``perfbench.*``) whether they run as a script or under pytest.
"""
