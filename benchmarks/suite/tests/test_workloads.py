import itertools
from collections import Counter

from benchmarks.suite.workloads import (
    WORKLOADS,
    op_blocks,
    ops_digest,
    workload_rng,
)


def test_same_seed_same_ops_different_seed_different_ops():
    for workload in WORKLOADS.values():
        assert ops_digest(workload, 1987) == ops_digest(workload, 1987)
        assert ops_digest(workload, 1987) != ops_digest(workload, 2087)


def test_every_block_has_the_same_statement_mix():
    for workload in WORKLOADS.values():
        rng = workload_rng(7, workload.name)
        for block in itertools.islice(op_blocks(workload, rng), 5):
            assert len(block) == workload.block_size
            reads = Counter(op.shape for op in block if op.kind != "insert")
            assert reads == {shape: len(workload.read_kinds) for shape in workload.shapes}
            assert sum(op.kind == "insert" for op in block) == workload.writes_per_block


def test_fixed_op_counts_are_whole_blocks():
    for workload in WORKLOADS.values():
        assert workload.ops % workload.block_size == 0
        assert workload.rss_at_op % workload.block_size == 0
        assert 0 < workload.rss_at_op <= workload.ops
