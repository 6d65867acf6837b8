"""Bagged Gini CART trees producing propensity scores.

Each tree trains on a bootstrap resample (with replacement, same size as
the input).  At every internal node a random subset of features is
drawn without replacement; candidate cuts are the midpoints between
consecutive distinct sorted values of each candidate feature, and the
cut with the largest Gini impurity reduction wins, ties resolved to the
lowest feature index then the smallest cut value.  Growth stops when a
node is pure, smaller than ``min_samples_split``, or no cut reduces
impurity.  A leaf predicts its positive fraction; the forest predicts
the mean over trees.

A tree is stored as two node arrays in breadth-first order (see
``Tree``) and grown one depth level at a time.  It grows on the distinct
rows its bootstrap drew, each weighted by how often it was drawn (as
Breiman's bagged trees are), so counts are weighted sums and the model
equals one grown on every bootstrap slot.  The rows are sorted once per
feature per forest, and a tree keeps the drawn ones.

A level is laid out feature by feature and, within a feature, node by
node, each node's rows sorted by that feature's value.  Every entry
carries its row, its value, its weight and its weighted label, gathered
once at the root (the attribute lists of SLIQ and SPRINT).  Each level
evaluates the Gini expression at every distinct-value boundary of every
open node in one vectorised pass.  A node's rows sorted by its winning
feature are one segment of the layout; the values up to the winning
boundary are at most the cut and those past it exceed it, so the left
child is a prefix of that segment, and its size, weight and positives
are the sums at the boundary.  A stable sort by (feature, open child)
then moves every node's entries, still sorted, into its open children,
the one permutation applied to all four carried arrays; entries of
settled nodes drop out.  Prediction moves every row one step per level,
a leaf sending a row back to itself.

The weights and counts are float64 holding integers far below 2**53,
so every sum of them is exact.  The Gini pass writes into scratch
buffers allocated once per tree, sized for the root level and sliced at
every level below it, so a level allocates no array per boundary for
the arithmetic.  The sort keys of a level take the narrowest unsigned
type that holds them; numpy sorts keys of up to 16 bits stably by
radix, and a stable sort has one result whatever the key type.

When ``max_features`` is at least the number of features every node
uses every feature and nothing is drawn.  Otherwise each level draws
the subsets of all its open nodes in one batch, in breadth-first node
order, from the tree's substream after its bootstrap draw.

A tree reads only its own substream, the forest's presort and the data,
so the trees grow through ``workers.map_forked``: in worker processes
forked from the caller, one per CPU in the process's affinity mask, the
parent growing its share too, or in the calling process where that
module's fallbacks apply.  The model does not depend on how many CPUs
there are.  Prediction forks the same way, one contiguous block of rows
per CPU, each row's score the sum of its leaf values in tree order, so
the scores do not depend on it either.
"""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .rng import substream
from .workers import cpus, map_forked

__all__ = [
    "ForestParams",
    "Tree",
    "Forest",
    "train_forest",
    "forest_to_json",
    "forest_from_json",
    "save_forest",
    "load_forest",
]

FORMAT = 3  # forest JSON layout: two breadth-first node arrays per tree
_ARRAYS = ("feature", "value")
_LARGEST = sys.float_info.max  # a JSON number past it, NaN or Infinity is no finite node value


def _check_integers(settings, floors) -> None:
    """Store each (field, floor) of the frozen ``settings`` as a plain int, refusing a non-integer or a value below the floor."""
    for name, least in floors:
        value = getattr(settings, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < least:
            raise ValueError(f"{name} must be >= {least}")
        object.__setattr__(settings, name, int(value))


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    max_features: int = 50
    min_samples_split: int = 50
    bootstrap: bool = True  # disable to fit plain CART trees on the raw sample
    seed: int = 0

    def __post_init__(self):
        _check_integers(self, (("n_trees", 1), ("max_features", 1), ("min_samples_split", 2), ("seed", 0)))
        if not isinstance(self.bootstrap, bool):
            raise ValueError(f"bootstrap must be true or false, got {self.bootstrap!r}")


@dataclass(frozen=True, eq=False)
class Tree:
    """One tree as two node arrays, root first, in breadth-first order.

    A leaf has ``feature == -1`` and predicts ``value``, its positive
    fraction.  Internal node ``i`` sends a row to its left child when its
    value of ``feature[i]`` is at most ``value[i]``, else to its right
    child.  The children are implied: those of the k-th internal node in
    id order are nodes 2k + 1 and 2k + 2, so a tree of I internal nodes
    has 2I + 1 nodes.
    """

    feature: np.ndarray
    value: np.ndarray

    def predict(self, columns: np.ndarray) -> np.ndarray:
        """Leaf value of each row of ``columns``, the (d, n) C-contiguous transpose of the rows.

        Every row takes one step per level of the tree.  A leaf sends a
        row back to itself: it cuts feature 0 at +inf, which no finite
        value exceeds.
        """
        n = columns.shape[1]
        column_major = columns.ravel()  # row r's value of feature f at f * n + r
        inner = self.feature >= 0
        child = np.where(inner, 2 * inner.cumsum() - 1, np.arange(inner.size))  # left child, or the leaf itself
        offset = np.where(inner, self.feature * n, 0)
        cut = np.where(inner, self.value, np.inf)
        depth, level = 0, np.zeros(1, dtype=np.int64)
        while (level := level[inner.take(level)]).size:  # ids increase down every path, so this ends
            depth += 1
            level = np.concatenate((child.take(level), child.take(level) + 1))
        rows = np.arange(n)
        node = np.zeros(n, dtype=np.int64)
        for _ in range(depth):
            node = child.take(node) + (column_major.take(offset.take(node) + rows) > cut.take(node))
        return self.value.take(node)


@dataclass
class Forest:
    params: ForestParams
    n_features: int
    trees: list[Tree] = field(default_factory=list)

    def predict_propensity(self, X) -> np.ndarray:
        """Mean leaf positive-fraction over trees, one score per row.

        The rows are cut into one contiguous block per CPU in the
        process's affinity mask, scored through ``workers.map_forked``.
        A block adds its trees' leaf values in tree order, so each score
        is the same sum in the same order, whatever the CPU count.
        """
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got {X.shape[1]}")
        if not np.isfinite(X).all():
            raise ValueError("non-finite feature values")
        n = X.shape[0]
        blocks = max(1, min(cpus(), n))
        edges = [b * n // blocks for b in range(blocks + 1)]

        def block(b):
            columns = np.ascontiguousarray(X[edges[b] : edges[b + 1]].T)
            total = np.zeros(columns.shape[1])
            for tree in self.trees:
                total += tree.predict(columns)
            return total / len(self.trees)

        return np.concatenate(map_forked(block, blocks))


def _settled(count, pos, min_samples_split):
    return (pos == 0) | (pos == count) | (count < min_samples_split)


def _best_cuts(vals, wts, wpos, gstart, gsize, gcount, gpos, gparent, allowed, buf):
    """Best Gini cut of each (feature, node) group of one level.

    ``vals`` holds the level's rows feature by feature and, within a
    feature, node by node, sorted by that feature's value; ``wts`` and
    ``wpos`` hold each row's weight and weighted label.  Group g covers
    ``gsize[g]`` positions from ``gstart[g]``, has weight ``gcount[g]``
    with ``gpos[g]`` positive, and Gini impurity ``gparent[g]``.
    ``allowed`` (one flag per group, or None for all) limits the search.
    ``buf`` is a float64 scratch array of six rows, each at least
    ``vals.size + 1`` long; its contents are overwritten.

    Returns five arrays with one entry per group: the gain, the cut, the
    position of the last row at or below the cut, and the weight and the
    weighted positives of the rows from ``gstart`` to that position.  A
    gain of 0 or less means no cut; a group with no boundary has 0 in all
    five.

    Weights, weighted labels and the group sums are float64 holding
    integers, and every sum of them is at most the bootstrap's slot
    count, far below 2**53: the cumulative sums and their differences
    are exact, the counts the bootstrap slots gave.
    """
    gend = gstart + gsize
    boundary = np.empty(vals.size, dtype=bool)
    np.not_equal(vals[1:], vals[:-1], out=boundary[:-1])
    boundary[gend - 1] = False
    if allowed is not None:
        boundary &= allowed.repeat(gsize)
    at = boundary.nonzero()[0]
    gain, cuts, n_below, pos_below = (np.zeros(gstart.size) for _ in range(4))
    last = np.zeros(gstart.size, dtype=np.int64)
    if at.size == 0:
        return gain, cuts, last, n_below, pos_below
    # each group's boundaries are one run of ``at``
    head = at.searchsorted(gstart)
    runs = at.searchsorted(gend) - head
    group = np.arange(gstart.size).repeat(runs)
    ccount, cpos = buf[0, : wts.size + 1], buf[1, : wpos.size + 1]
    ccount[0] = cpos[0] = 0.0
    wts.cumsum(out=ccount[1:])
    wpos.cumsum(out=cpos[1:])

    # the Gini expression in the level's buffers, operation by operation as
    # 1.0 - (a / n) ** 2 - (b / n) ** 2 rounds (``** 2`` is ``np.square``);
    # n_right and pos_right take the cumulative sums' rows once those are read,
    # and n_left and pos_left are kept for the winning boundaries
    size = at.size
    n_left, pos_left, weighted, spare = (row[:size] for row in buf[2:])
    n_right, pos_right = buf[0, :size], buf[1, :size]
    ccount[1:].take(at, out=n_left)
    n_left -= ccount.take(gstart).take(group, out=weighted)
    cpos[1:].take(at, out=pos_left)
    pos_left -= cpos.take(gstart).take(group, out=weighted)
    gcount.take(group, out=n_right)
    n_right -= n_left
    gpos.take(group, out=pos_right)
    pos_right -= pos_left
    g_left = np.divide(pos_left, n_left, out=weighted)
    np.square(g_left, out=g_left)
    np.subtract(1.0, g_left, out=g_left)
    neg_left = np.subtract(n_left, pos_left, out=spare)
    neg_left /= n_left
    np.square(neg_left, out=neg_left)
    g_left -= neg_left
    g_left *= n_left
    g_right = np.divide(pos_right, n_right, out=spare)  # neg_left is read no more
    np.square(g_right, out=g_right)
    np.subtract(1.0, g_right, out=g_right)
    neg_right = np.subtract(n_right, pos_right, out=pos_right)
    neg_right /= n_right
    np.square(neg_right, out=neg_right)
    g_right -= neg_right
    g_right *= n_right
    weighted += g_right
    weighted /= gcount.take(group, out=spare)  # n, and g_right is read no more

    # first minimum per group: the smallest cut wins a tie
    won = runs.nonzero()[0]
    runs, head = runs.take(won), head.take(won)
    low = np.minimum.reduceat(weighted, head)
    at_low = (weighted == low.repeat(runs)).nonzero()[0]
    first = at_low.take(at_low.searchsorted(head))

    gain[won] = gparent.take(won) - low
    below = at.take(first)
    lo, hi = vals.take(below), vals.take(below + 1)
    mid = (lo + hi) / 2.0
    # the midpoint of adjacent doubles can round up to ``hi``, and a sum
    # can overflow; ``lo`` then cuts the same rows
    cuts[won] = np.where((mid >= lo) & (mid < hi), mid, lo)
    last[won] = below
    n_below[won] = n_left.take(first)
    pos_below[won] = pos_left.take(first)
    return gain, cuts, last, n_below, pos_below


def _grow_tree(X, y, w, sorted_rows, params: ForestParams, rng) -> Tree:
    """The tree of the rows of ``X`` drawn ``w`` times each.

    ``sorted_rows`` is the forest's (d, N) stable sort of each feature's
    rows.  Only the drawn rows (``w > 0``) take part, each weighted by
    its count, so the tree equals one grown on every bootstrap slot.
    """
    d = X.shape[1]
    feats = np.arange(d)
    # the open rows of every feature, node by node, each node sorted by
    # that feature: row f of the (d, m) layout, flattened.  Each entry
    # carries its row, its value of f, its weight and its weighted label
    order = sorted_rows[w.take(sorted_rows) > 0]
    n = order.size // d
    vals = X.take(order.reshape(d, n) * d + feats[:, None]).ravel()
    wts = w.take(order).astype(np.float64)  # integers, so every sum of them is exact
    wpos = wts * y.take(order)
    cap = 2 * n - 1  # every leaf holds at least one drawn row
    feature = np.full(cap, -1, dtype=np.int64)
    value = np.zeros(cap)
    buf = np.empty((6, d * n + 1))  # _best_cuts' scratch, sized for the root level

    # per open node: drawn rows (size), their weight (count) and weighted positives
    ids, size, count, pos = np.array([0]), np.array([n]), np.array([wts[:n].sum()]), np.array([wpos[:n].sum()])
    n_nodes = 1
    if _settled(count, pos, params.min_samples_split)[0]:
        value[0] = pos[0] / count[0]
        ids = ids[:0]
    while ids.size:
        k, m = ids.size, int(size.sum())
        allowed = None
        if params.max_features < d:
            pick = np.argsort(rng.random((k, d)), axis=1)[:, : params.max_features]
            allowed = np.zeros((d, k), dtype=bool)
            allowed[pick, np.arange(k)[:, None]] = True
            allowed = allowed.ravel()
        gstart = (feats[:, None] * m + (size.cumsum() - size)).ravel()
        # Python floats (``**`` is C pow, not numpy's square), so the parent
        # impurity rounds as the models' split rule has always rounded it
        parent = np.array([1.0 - (p / c) ** 2 - ((c - p) / c) ** 2 for p, c in zip(pos.tolist(), count.tolist())])
        gain, cuts, last, n_below, pos_below = _best_cuts(
            vals, wts, wpos, gstart, *(np.concatenate((a,) * d) for a in (size, count, pos, parent)), allowed, buf
        )
        win = gain.reshape(d, k).argmax(axis=0) * k + np.arange(k)  # first feature of the largest gain
        ok = gain.take(win) > 0.0
        value[ids[~ok]] = pos[~ok] / count[~ok]
        n_split = int(ok.sum())
        if n_split == 0:
            break

        # a splitting node's rows sorted by its cut feature are its winning
        # group's segment, and its left child is the segment up to the last
        # row at or below the cut.  Children get ids in node order, so those
        # of the k-th internal node are 2k + 1 and 2k + 2
        win = win[ok]
        feature[ids[ok]] = win // k
        value[ids[ok]] = cuts.take(win)
        seg = gstart.take(win)
        c_start, c_size, c_count, c_pos = (a.repeat(2) for a in (seg, size[ok], count[ok], pos[ok]))
        c_size[0::2] = last.take(win) + 1 - seg
        c_count[0::2] = n_below.take(win)
        c_pos[0::2] = pos_below.take(win)
        c_start[1::2] += c_size[0::2]
        c_size[1::2] -= c_size[0::2]
        c_count[1::2] -= c_count[0::2]
        c_pos[1::2] -= c_pos[0::2]
        c_ids = n_nodes + np.arange(2 * n_split)
        n_nodes += 2 * n_split
        done = _settled(c_count, c_pos, params.min_samples_split)
        value[c_ids[done]] = c_pos[done] / c_count[done]
        ids, size, count, pos = c_ids[~done], c_size[~done], c_count[~done], c_pos[~done]
        if not ids.size:
            break

        # next layout: a stable sort by (feature, open child); rows of settled
        # children and of nodes that did not split sort past all others.  The
        # keys take the narrowest unsigned type, so up to 16 bits numpy sorts
        # them by radix; a stable sort has one result in any key type
        past = 2 * n_split * d
        key_type = np.min_scalar_type(past + (d - 1) * 2 * n_split)
        slot = np.full(X.shape[0], past, dtype=key_type)
        kept = int(size.sum())
        # each open child's rows are one run of positions in its parent's winning segment
        runs = np.arange(kept) + (c_start[~done] - (size.cumsum() - size)).repeat(size)
        slot[order.take(runs)] = (~done).nonzero()[0].astype(key_type).repeat(size)
        key = slot.take(order)
        lanes = key.reshape(d, m)
        lanes += (feats * (2 * n_split)).astype(key_type)[:, None]
        perm = key.argsort(kind="stable")[: d * kept]
        order = order.take(perm)  # one array at a time, so each old one is freed before the next is made
        vals = vals.take(perm)
        wts = wts.take(perm)
        wpos = wpos.take(perm)
    return Tree(feature[:n_nodes].copy(), value[:n_nodes].copy())


def train_forest(X, y, params: ForestParams = ForestParams()) -> Forest:
    """Fit a forest; same (data, params) always yields the identical model.

    The trees grow across the CPUs in the process's affinity mask; the
    model does not depend on how many there are.
    """
    X = np.ascontiguousarray(np.atleast_2d(np.asarray(X, dtype=np.float64)))
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (n, d) with one label per row")
    if not np.isfinite(X).all():
        raise ValueError("non-finite feature values")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    y = y.astype(np.int64)
    if y.min() == y.max():
        raise ValueError("training data must contain both classes")
    n, d = X.shape
    sorted_rows = np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)

    def tree(i):
        rng = substream(params.seed, "tree", i)
        # bootstrap multiplicity of every row
        w = np.bincount(rng.integers(0, n, size=n), minlength=n) if params.bootstrap else np.ones(n, dtype=np.int64)
        return _grow_tree(X, y, w, sorted_rows, params, rng)

    return Forest(params=params, n_features=d, trees=map_forked(tree, params.n_trees))


# -- serialization -----------------------------------------------------


def forest_to_json(forest: Forest) -> str:
    payload = {
        "format": FORMAT,
        "params": asdict(forest.params),
        "n_features": forest.n_features,
        "trees": [{name: getattr(t, name).tolist() for name in _ARRAYS} for t in forest.trees],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _tree_from_dict(data: dict, n_features: int) -> Tree:
    """The checked tree; the checks suffice for ``Tree.predict`` to end.

    With n = 2I + 1 nodes every implied child id is below n, and along
    any path from the root the ids increase: a reachable internal node
    ranks above its parent, so its children come after it.
    """
    if not isinstance(data, dict) or set(data) != set(_ARRAYS):
        raise ValueError(f"expected an object of exactly the arrays {' and '.join(_ARRAYS)}")
    if not isinstance(data["feature"], list) or any(type(f) is not int for f in data["feature"]):
        raise ValueError("feature entries must be integers")
    if any(not -1 <= f < n_features for f in data["feature"]):
        raise ValueError("feature index out of range")
    if not isinstance(data["value"], list) or any(type(v) not in (int, float) or not abs(v) <= _LARGEST for v in data["value"]):
        raise ValueError("value entries must be finite numbers")  # as forest_to_json writes them
    tree = Tree(np.asarray(data["feature"], dtype=np.int64), np.asarray(data["value"], dtype=np.float64))
    n = tree.feature.size
    if n == 0 or tree.feature.shape != (n,) or tree.value.shape != (n,):
        raise ValueError("node arrays of unequal length or empty")
    leaf = tree.feature < 0
    inner = n - int(leaf.sum())
    if n != 2 * inner + 1:
        raise ValueError(f"node count {n}, expected 2 * {inner} internal + 1")
    if not ((tree.value[leaf] >= 0.0) & (tree.value[leaf] <= 1.0)).all():
        raise ValueError("leaf prob outside [0, 1]")
    return tree


def forest_from_json(text: str) -> Forest:
    payload = json.loads(text)
    if not isinstance(payload, dict) or "format" not in payload:
        raise ValueError("forest JSON has no format field (nested trees from an older release; retrain)")
    if payload["format"] != FORMAT:
        raise ValueError(f"unknown forest format {payload['format']!r}, expected {FORMAT}; retrain")
    params, names = payload.get("params"), {f.name for f in fields(ForestParams)}
    if not isinstance(params, dict) or set(params) != names:
        raise ValueError(f"params must be an object of exactly the keys {', '.join(sorted(names))}")
    if set(payload) != {"format", "params", "n_features", "trees"}:
        raise ValueError("forest JSON must be an object of exactly the keys format, n_features, params, trees")
    params, n_features = ForestParams(**params), payload["n_features"]
    if type(n_features) is not int or n_features < 1:
        raise ValueError(f"n_features must be an integer >= 1, got {n_features!r}")
    if not isinstance(payload["trees"], list):
        raise ValueError("trees must be a list")
    trees = []
    for i, data in enumerate(payload["trees"]):
        try:
            trees.append(_tree_from_dict(data, n_features))
        except ValueError as exc:
            raise ValueError(f"tree {i}: {exc}") from None
    if len(trees) != params.n_trees:
        raise ValueError("tree count disagrees with params")
    return Forest(params=params, n_features=n_features, trees=trees)


def save_forest(path, forest: Forest) -> None:
    text = forest_to_json(forest) + "\n"  # before the open, so a failure leaves no partial file
    with open(path, "w") as fh:
        fh.write(text)


def load_forest(path) -> Forest:
    with open(path) as fh:
        text = fh.read()
    try:
        return forest_from_json(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
