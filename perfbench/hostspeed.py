"""A fixed reference load, timed between a workload's operations, that
measures how fast the shared host runs while the workload is timed."""

import time

import numpy as np

_TEXT = "\n".join(f"{i} {(i * 7919) % 512}" for i in range(3000))
_RNG = np.random.default_rng(0)
_MATRIX = _RNG.random((160, 160))
_VECTOR = _RNG.random(30000)


def _reference_load() -> int:
    # Python objects: dict and set traffic on small tuples, as in graph code
    seen, counts = set(), {}
    for i in range(3000):
        key = (i % 97, i % 89)
        seen.add(key)
        counts[key] = counts.get(key, 0) + 1
    # text parsing, as in reading an edge list
    pairs = [tuple(map(int, line.split())) for line in _TEXT.splitlines()]
    # numpy: dense algebra, sorting, and fresh pages from a large allocation
    m = _MATRIX @ _MATRIX
    v = np.sort(_VECTOR * m[0, 0])
    block = np.ones(1 << 21)
    return len(seen) + len(pairs) + int(v[0] > 2.0) + int(block.sum())


def time_reference_load() -> float:
    start = time.perf_counter()
    _reference_load()
    return time.perf_counter() - start

