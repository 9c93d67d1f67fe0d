"""The root-permutation path against the definitional matrix path."""

import numpy as np
import pytest

from definitional import definitional_counts
from metamatrix._kernels import count_profiles_batch
from metamatrix.coxeter import build_system, leaf_prefixes, tower_plan
from metamatrix.engine import _tower_counts

# tail_cap 1 puts one generator in every tower level; larger caps leave
# bigger tails and fewer levels
TAIL_CAPS = (1, 8, 100)


def tower_counts(system, tail_cap):
    return _tower_counts(tower_plan(system, tail_cap=tail_cap)).tolist()


def leaf_arrays(plan):
    """Kernel arguments for the identity prefix and the plan's tail."""
    n = plan.system.rank
    positive = plan.roots.positive
    e = np.arange(plan.roots.size)[None]
    tails = np.ascontiguousarray(plan.tail_mats[:, :n])
    tails_inv_pos = np.ascontiguousarray(positive[plan.tail_invs].T)
    return positive[e], e[:, :n], tails, tails_inv_pos


@pytest.mark.parametrize(
    "family,rank",
    [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
     ("D", 4), ("F", 4), ("H", 3)],
)
def test_implementations_agree(family, rank):
    system = build_system(family, rank)
    expected = definitional_counts(system)
    for cap in TAIL_CAPS:
        assert tower_counts(system, cap) == expected, cap


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_dihedral_implementations_agree(m):
    system = build_system("I2", 2, m)
    expected = definitional_counts(system)
    for cap in TAIL_CAPS:
        assert tower_counts(system, cap) == expected, cap


def test_multilevel_tower_shape():
    plan = tower_plan(build_system("B", 4), tail_cap=1)
    assert len(plan.tail_mats) == 1
    assert [len(reps) for reps, _ in plan.transversals] == [8, 6, 4, 2]
    pre, pre_inv = leaf_prefixes(plan, 0)
    assert len(pre) == 6 * 4 * 2
    assert (np.take_along_axis(pre, pre_inv, axis=1) == np.arange(plan.roots.size)).all()


def test_accumulates_into_out():
    plan = tower_plan(build_system("B", 3), tail_cap=10)
    n = plan.system.rank
    out = np.zeros((n + 1, n + 1), dtype=np.int64)
    count_profiles_batch(*leaf_arrays(plan), out)
    once = out.copy()
    count_profiles_batch(*leaf_arrays(plan), out)
    assert np.array_equal(out, 2 * once)
    assert int(once.sum()) == len(plan.tail_mats)


def test_identity_prefix_counts_tail_profiles():
    plan = tower_plan(build_system("A", 3), tail_cap=100)
    n = plan.system.rank
    # tail covers the whole symmetric group on 4 letters
    assert len(plan.tail_mats) == 24
    out = np.zeros((n + 1, n + 1), dtype=np.int64)
    count_profiles_batch(*leaf_arrays(plan), out)
    assert out[n, n] == 1  # identity element
    assert out[0, 0] == 1  # longest element
    assert int(out.sum()) == 24
