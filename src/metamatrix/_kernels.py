"""One level of the N-table walk over the coset tower, in python ints.

Write w in W_k as w = u * t, with u in T_k (the minimal representative of
w's coset of W_{k-1}) and t in W_{k-1}.  Then u maps the positive roots of
W_{k-1} to positive roots, and W_{k-1} permutes the positive roots outside
its own root system (Bjorner-Brenti, GTM 231, section 2.4).  Hence:

- right ascents: a node of W_{k-1} is a right ascent of w exactly when it is
  one of t; the new node j is one when u(t(alpha_j)) > 0;
- left ascents: for a node i of W_k, the root u^{-1}(alpha_i) is negative
  (i is no ascent), positive outside the root system of W_{k-1} (i is one),
  or, by Deodhar's lemma, a simple root alpha_m of W_{k-1}, and then i is an
  ascent of w exactly when m is one of t.

So w's ascents depend on t only through its state: its left-ascent set, its
number of right ascents, and t(alpha_j) for each node j watched at level
k - 1 (`coxeter.TowerPlan.watched`).  A histogram maps states
(left-ascent bitmask, #right ascents, images) to element counts; bit j - 1
of the mask stands for node j.
"""

from __future__ import annotations

SHIFT = 4  # a state's (mask, #right ascents) packs into mask << SHIFT | count
COUNT = (1 << SHIFT) - 1  # any rank up to 15 packs: #right ascents <= rank <= COUNT


def count_profiles_batch(plan, k: int, histogram: dict) -> dict:
    """The state histogram of W_k from `histogram`, that of W_{k-1}."""
    positive = plan.roots.positive
    reps, invs = plan.transversals[k - 1]
    below = {j - 1 for j in plan.order[: k - 1]}
    watched = plan.watched[k - 1]
    # t(alpha_j) is a watched slot of the state, or alpha_j (root j - 1) itself
    slot = {j: s for s, j in enumerate(watched)}
    simple = tuple(range(plan.system.rank))

    def source(j: int) -> int:
        return slot.get(j, len(watched) + j - 1)

    new = source(plan.order[k - 1])
    carried = [source(j) for j in plan.watched[k]]

    # the states grouped by their images, (mask, count) packed into one code
    groups: dict[tuple[int, ...], dict[int, int]] = {}
    for (mask, right, images), count in histogram.items():
        groups.setdefault(images, {})[mask << SHIFT | right] = count
    codes = {code for group in groups.values() for code in group}
    masks = {code >> SHIFT for code in codes}

    # per representative u: the code each incoming (mask, count) turns into,
    # before the new node's right ascent is added
    moves = []
    for u, u_inv in zip(reps, invs):
        ascents, renamed = 0, []
        for j in plan.order[:k]:
            root = u_inv[j - 1]
            if positive[root]:
                if root in below:  # u^{-1}(alpha_j) = alpha_{root + 1}
                    renamed.append((1 << root, 1 << (j - 1)))
                else:
                    ascents |= 1 << (j - 1)
        left = {}
        for mask in masks:
            out = ascents
            for bit, to in renamed:
                if mask & bit:
                    out |= to
            left[mask] = out << SHIFT
        moves.append((u, {code: left[code >> SHIFT] | code & COUNT for code in codes}))

    out: dict[tuple[int, ...], dict[int, int]] = {}
    for images, group in groups.items():
        roots = images + simple
        new_root = roots[new]
        sources = [roots[s] for s in carried]
        items = list(group.items())
        for u, move in moves:
            step = positive[u[new_root]]
            key = tuple([u[r] for r in sources])
            target = out.get(key)
            if target is None:
                target = out[key] = {}
            get = target.get
            for code, count in items:
                to = move[code] + step
                target[to] = get(to, 0) + count
    return {
        (code >> SHIFT, code & COUNT, images): count
        for images, group in out.items()
        for code, count in group.items()
    }
