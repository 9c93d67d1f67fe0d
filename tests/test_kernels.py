"""The state-histogram walk (`_kernels.count_profiles_batch`, one call per
tower level) against the definitional reference (`definitional.py`)."""

import pytest

from definitional import definitional_counts
from metamatrix._kernels import COUNT, SHIFT, count_profiles_batch
from metamatrix.coxeter import build_system, inverse, tower_plan
from metamatrix.tables import NTable, ntable_invariant_failure


def states(histogram):
    """The histogram as {(left-ascent mask, #right ascents, images): count}."""
    return {
        (code >> SHIFT, code & COUNT, images): count
        for images, group in histogram.items()
        for code, count in group.items()
    }


def collapse(histogram, n):
    """The (n+1)x(n+1) counts by (#left ascents, #right ascents)."""
    counts = [[0] * (n + 1) for _ in range(n + 1)]
    for (left, right, _), count in states(histogram).items():
        counts[left.bit_count()][right] += count
    return counts


def walk(plan, start=None):
    """The histogram after each level, from the identity (or `start`)."""
    histogram = start or {(): {0: 1}}
    out = []
    for k in range(1, plan.system.rank + 1):
        histogram = count_profiles_batch(plan, k, histogram)
        out.append(histogram)
    return out


def check_every_level(system):
    """At level k the walk has counted W_k, a Coxeter group of rank k: its
    histogram must pass the N-table invariants for |W_k|; the last level is
    the whole group and must equal the definitional N-table."""
    plan = tower_plan(system)
    order = 1
    for k, histogram in enumerate(walk(plan), start=1):
        order *= len(plan.transversals[k - 1][0])
        counts = [row[: k + 1] for row in collapse(histogram, system.rank)[: k + 1]]
        assert ntable_invariant_failure(NTable(k, tuple(map(tuple, counts))), order) is None, k
    assert collapse(histogram, system.rank) == definitional_counts(system)


@pytest.mark.parametrize(
    "family,rank",
    [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
     ("D", 4), ("F", 4), ("H", 3)],
)
def test_implementations_agree(family, rank):
    """The walk and the definitional reference give the same N-table."""
    check_every_level(build_system(family, rank))


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_dihedral_implementations_agree(m):
    # I2(2) = A1 x A1: the second node is not adjacent to the first
    check_every_level(build_system("I2", 2, m))


def test_multilevel_tower_shape():
    plan = tower_plan(build_system("B", 4))
    identity = tuple(range(plan.roots.size))
    assert plan.tail_mats == (identity,)
    assert [len(reps) for reps, _ in plan.transversals] == [2, 4, 6, 8]
    for reps, invs in plan.transversals:
        assert invs == [inverse(u) for u in reps]
        assert reps[0] == identity
    # B4's chain adds nodes 4, 3, 2, 1; each level watches the next node
    assert plan.order == (4, 3, 2, 1)
    assert plan.watched == ((), (3,), (2,), (1,), ())


def test_step_is_linear():
    """The step is linear in the incoming histogram: doubling every count
    doubles every outgoing count."""
    plan = tower_plan(build_system("B", 3))
    once = walk(plan)
    twice = walk(plan, {(): {0: 2}})
    for a, b in zip(once, twice):
        assert b == {images: {code: 2 * count for code, count in group.items()}
                     for images, group in a.items()}
    assert sum(states(once[-1]).values()) == 48


def test_identity_prefix_counts_tail_profiles():
    plan = tower_plan(build_system("A", 3))
    n = plan.system.rank
    histograms = walk(plan)
    # level 1 is W_1 = {e, s_1}: e has one ascent on each side, s_1 none, and
    # both carry the image of alpha_2 (s_1(alpha_2) = alpha_1 + alpha_2)
    level_1 = states(histograms[0])
    assert sorted(level_1.values()) == [1, 1]
    assert {(left, right) for left, right, _ in level_1} == {(1, 1), (0, 0)}
    out = collapse(histograms[-1], n)
    assert out[n][n] == 1  # identity element
    assert out[0][0] == 1  # longest element
    assert sum(map(sum, out)) == 24


@pytest.mark.parametrize(
    "family,rank", [("A", 4), ("B", 4), ("D", 5), ("E", 6), ("F", 4), ("H", 3)]
)
def test_level_keeps_the_histogram_shape(family, rank):
    """After level k every key holds the images of the nodes watched at k,
    and every code unpacks to a mask of nodes and at most k right ascents."""
    plan = tower_plan(build_system(family, rank))
    for k, histogram in enumerate(walk(plan), start=1):
        for images, group in histogram.items():
            assert len(images) == len(plan.watched[k])
            for code in group:
                assert code >> SHIFT < 1 << rank
                assert code & COUNT <= k
