"""The evaluator axis of the test matrices.

There is one set of physical operators; what still varies is how an
operator evaluates its expressions:

* ``"vectorized"`` — the product path: batch kernels, with compiled
  closures for anything that has no kernel;
* ``"row"`` — every expression evaluated one row at a time by the
  tree-walking interpreter (:func:`repro.engine.compile.interpreted_only`),
  inside the same operators.  Hash-join residual decomposition is off
  there too, so this is also the "residual exactly as written" mode.

Both must produce the same rows and the same page I/O.
"""

from contextlib import nullcontext

from repro.engine.compile import interpreted_only

MODES = ("row", "vectorized")


def evaluation(mode: str):
    """Context manager running its body under evaluator ``mode``."""
    if mode not in MODES:
        raise ValueError(f"unknown evaluation mode {mode!r}")
    return interpreted_only() if mode == "row" else nullcontext()
