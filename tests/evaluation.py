"""The batch-width axis of the test matrices.

There is one set of physical operators and one way each evaluates its
expressions — batch kernels over a page's rows.  What still varies is
how many rows a batch holds:

* ``"vectorized"`` — the product path: one batch per heap page, or a
  run of whole pages for a reader of one input;
* ``"row"`` — every batch split into one-row batches, so each kernel
  runs its one-row case: every AND/OR selection vector, every
  type-domain fast path and every error is decided a row at a time,
  inside the same operators.

Both must produce the same rows and the same page I/O: a batch is its
pages' rows handed over at once, never a unit of I/O of its own.
"""

from contextlib import contextmanager, nullcontext

from repro.engine.relation import Relation

MODES = ("row", "vectorized")


@contextmanager
def one_row_batches():
    """Split every batch and every run a relation yields into one-row
    batches."""
    readers = {name: getattr(Relation, name) for name in ("iter_batches", "iter_runs")}

    def split(read):
        def one_row_at_a_time(self):
            for batch in read(self):
                yield from ([row] for row in batch)

        return one_row_at_a_time

    for name, read in readers.items():
        setattr(Relation, name, split(read))
    try:
        yield
    finally:
        for name, read in readers.items():
            setattr(Relation, name, read)


def evaluation(mode: str):
    """Context manager running its body at batch width ``mode``."""
    if mode not in MODES:
        raise ValueError(f"unknown evaluation mode {mode!r}")
    return one_row_batches() if mode == "row" else nullcontext()
