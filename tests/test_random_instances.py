"""Random small instances against brute force over all 2^n configurations.

Layouts of up to 8 atoms on a 0.5 um grid in a 20 um square: with the
default blockade radius of about 9.8 um they range from edgeless to
dense graphs.  The references read each configuration as its bitstring
(atom i+1 is character i) and test every edge of the graph's own edge
set, so they share no code with the census or the classifier.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rydmis import AtomArray, blockade_graph, classify_bitstring, count_isets

RANDOM = settings(derandomize=True, database=None, max_examples=120, deadline=None)

layouts = st.integers(2, 8).flatmap(lambda n: st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 40)), min_size=n, max_size=n, unique=True,
)).map(lambda grid: AtomArray("random", tuple((0.5 * x, 0.5 * y) for x, y in grid)))


def _members(config: int, n: int) -> list[int]:
    bits = format(config, f"0{n}b")
    return [v for v in range(n) if bits[v] == "1"]


def _independent(config: int, g) -> bool:
    members = set(_members(config, g.n))
    return not any(u in members and v in members for u, v in g.edges)


@RANDOM
@given(layouts)
def test_census_matches_brute_force(params, arr):
    g = blockade_graph(arr, params)
    sets = [c for c in range(1 << g.n) if _independent(c, g)]
    sizes = [len(_members(c, g.n)) for c in sets]
    m = max(sizes)
    r = {k: sizes.count(k) for k in range(m + 1)}
    stats = count_isets(g)
    assert stats.r == r
    assert stats.mis_size == m
    assert stats.mis_configs.tolist() == [c for c, k in zip(sets, sizes) if k == m]
    assert stats.hp == (r[m - 1] / (m * r[m]) if m >= 1 else 0.0)


@RANDOM
@given(layouts)
def test_classification_matches_per_bitstring_reference(params, arr):
    g = blockade_graph(arr, params)
    configs = np.arange(1 << g.n)
    got = classify_bitstring(g, configs, count_isets(g))
    independent = [_independent(c, g) for c in configs.tolist()]
    sizes = [len(_members(c, g.n)) for c in configs.tolist()]
    m = max(k for i, k in zip(independent, sizes) if i)
    assert got["is_independent"].tolist() == independent
    assert got["is_mis"].tolist() == [i and k == m for i, k in zip(independent, sizes)]
    assert got["is_mis_minus_1"].tolist() == [i and k == m - 1
                                              for i, k in zip(independent, sizes)]
