"""Tree growth, prediction, determinism, JSON interchange."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rocbench.forest import (
    Forest,
    ForestParams,
    forest_from_json,
    forest_to_json,
    load_forest,
    save_forest,
    train_forest,
)
from rocbench.rng import substream
from rocbench.roc import build_roc


def single_cart(x, y, **kw):
    params = ForestParams(
        n_trees=1, max_features=kw.pop("max_features", 1),
        min_samples_split=kw.pop("min_samples_split", 2),
        bootstrap=False, seed=kw.pop("seed", 0),
    )
    X = np.asarray(x, dtype=float).reshape(-1, 1)
    return train_forest(X, y, params)


def walk(tree, path=""):
    """Node index reached from the root by a string of L/R steps."""
    node = 0
    for step in path:
        node = int((tree.left if step == "L" else tree.right)[node])
    return node


def is_leaf(tree, path=""):
    return tree.feature[walk(tree, path)] == -1


class TestHandTree:
    """Six points, one feature, worked out by hand."""

    X = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    Y = [0, 0, 1, 0, 1, 1]

    def test_cut_sequence(self):
        tree = single_cart(self.X, self.Y).trees[0]
        # impurity tie between 2.5 and 4.5 resolves to the smaller cut
        assert tree.split[walk(tree)] == 2.5
        assert is_leaf(tree, "L") and tree.prob[walk(tree, "L")] == 0.0
        assert tree.split[walk(tree, "R")] == 4.5
        assert tree.split[walk(tree, "RL")] == 3.5
        assert tree.prob[walk(tree, "RR")] == 1.0

    def test_leaf_predictions(self):
        forest = single_cart(self.X, self.Y)
        grid = np.array([[1.0], [3.0], [4.0], [5.5]])
        np.testing.assert_array_equal(
            forest.predict_propensity(grid), [0.0, 1.0, 0.0, 1.0]
        )

    def test_min_samples_split_stops_growth(self):
        forest = single_cart(self.X, self.Y, min_samples_split=5)
        tree = forest.trees[0]
        assert tree.split[walk(tree)] == 2.5
        # the 4-row right child is below the split floor: mixed leaf
        assert is_leaf(tree, "R")
        assert tree.prob[walk(tree, "R")] == pytest.approx(0.75)

    def test_no_usable_cut_becomes_leaf(self):
        forest = single_cart([1.0, 1.0, 1.0, 1.0], [0, 1, 0, 1])
        tree = forest.trees[0]
        assert is_leaf(tree)
        assert tree.prob[0] == pytest.approx(0.5)

    def test_breadth_first_layout(self):
        tree = single_cart(self.X, self.Y).trees[0]
        assert tree.feature.tolist() == [0, -1, 0, 0, -1, -1, -1]
        assert tree.left.tolist() == [1, -1, 3, 5, -1, -1, -1]
        assert tree.right.tolist() == [2, -1, 4, 6, -1, -1, -1]

    def test_adjacent_doubles_cut_below_the_upper_value(self):
        # the midpoint of these two rounds to the larger one; a cut there
        # would send both rows left and leave an empty right child
        lo = 1.0 + 2.0**-52
        hi = np.nextafter(lo, 2.0)
        assert (lo + hi) / 2.0 == hi
        forest = single_cart([lo, hi], [0, 1])
        tree = forest.trees[0]
        assert tree.split[0] == lo
        np.testing.assert_array_equal(forest.predict_propensity([[lo], [hi]]), [0.0, 1.0])


class TestTrainValidation:
    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            single_cart([1.0, 2.0], [1, 1])

    def test_non_binary_labels_rejected(self):
        with pytest.raises(ValueError):
            single_cart([1.0, 2.0], [0, 2])

    def test_non_finite_features_rejected(self):
        with pytest.raises(ValueError):
            single_cart([1.0, np.nan], [0, 1])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            train_forest(np.zeros((3, 2)), [0, 1])

    def test_params_bounds(self):
        with pytest.raises(ValueError):
            ForestParams(n_trees=0)
        with pytest.raises(ValueError):
            ForestParams(max_features=0)
        with pytest.raises(ValueError):
            ForestParams(min_samples_split=1)


def _collect_features(tree, out):
    out.update(tree.feature[tree.feature >= 0].tolist())


class TestRandomness:
    def test_feature_subsets_vary_across_nodes(self):
        # one informative + one noise feature; with one candidate per node
        # both features must show up somewhere in a 40-tree forest
        rng = np.random.default_rng(2)
        X = rng.random((400, 2))
        y = (X[:, 0] > 0.5).astype(int)
        params = ForestParams(n_trees=40, max_features=1, min_samples_split=20, seed=3)
        forest = train_forest(X, y, params)
        used = set()
        for tree in forest.trees:
            _collect_features(tree, used)
        assert used == {0, 1}

    def test_max_features_capped_at_dimension(self):
        rng = np.random.default_rng(4)
        X = rng.random((200, 3))
        y = (X[:, 1] > 0.5).astype(int)
        params = ForestParams(n_trees=5, max_features=50, min_samples_split=10, seed=0)
        forest = train_forest(X, y, params)
        used = set()
        for tree in forest.trees:
            _collect_features(tree, used)
        assert used <= {0, 1, 2}
        assert 1 in used

    def test_bootstrap_changes_trees(self):
        rng = np.random.default_rng(6)
        X = rng.random((300, 2))
        y = (X.sum(axis=1) > 1.0).astype(int)
        params = ForestParams(n_trees=8, max_features=2, min_samples_split=20, seed=1)
        forest = train_forest(X, y, params)
        blobs = {forest_to_json(Forest(params, 2, [t])) for t in forest.trees}
        assert len(blobs) > 1


class TestAccuracy:
    def test_separable_signal(self):
        rng = np.random.default_rng(11)
        X = rng.random((3000, 2))
        y = (X[:, 0] + 0.1 * rng.standard_normal(3000) > 0.5).astype(int)
        params = ForestParams(n_trees=30, max_features=2, min_samples_split=50, seed=7)
        forest = train_forest(X[:2000], y[:2000], params)
        scores = forest.predict_propensity(X[2000:])
        assert build_roc(scores, y[2000:]).auc() > 0.95

    def test_pure_noise(self):
        rng = np.random.default_rng(12)
        X = rng.random((4000, 2))
        y = rng.integers(0, 2, 4000)
        params = ForestParams(n_trees=30, max_features=2, min_samples_split=50, seed=7)
        forest = train_forest(X[:2000], y[:2000], params)
        scores = forest.predict_propensity(X[2000:])
        auc = build_roc(scores, y[2000:]).auc()
        assert 0.45 <= auc <= 0.55


class TestDeterminism:
    def test_retrain_is_bit_identical(self):
        rng = np.random.default_rng(13)
        X = rng.random((500, 3))
        y = (X[:, 0] > X[:, 1]).astype(int)
        params = ForestParams(n_trees=12, max_features=2, min_samples_split=25, seed=9)
        a = train_forest(X, y, params)
        b = train_forest(X, y, params)
        assert forest_to_json(a) == forest_to_json(b)

    def test_retrain_with_feature_draws_is_bit_identical(self):
        # max_features < d: subsets drawn per level from the tree's substream
        rng = np.random.default_rng(16)
        X = rng.random((600, 4))
        y = (X[:, 0] + X[:, 2] > 1.0).astype(int)
        params = ForestParams(n_trees=6, max_features=2, min_samples_split=10, seed=4)
        a = train_forest(X, y, params)
        b = train_forest(X, y, params)
        assert forest_to_json(a) == forest_to_json(b)
        np.testing.assert_array_equal(a.predict_propensity(X), b.predict_propensity(X))
        every = train_forest(X, y, ForestParams(n_trees=6, max_features=4, min_samples_split=10, seed=4))
        assert [t.feature.tolist() for t in a.trees] != [t.feature.tolist() for t in every.trees]

    def test_seed_changes_model(self):
        rng = np.random.default_rng(14)
        X = rng.random((500, 3))
        y = (X[:, 0] > X[:, 1]).astype(int)
        base = dict(n_trees=12, max_features=2, min_samples_split=25)
        a = train_forest(X, y, ForestParams(seed=1, **base))
        b = train_forest(X, y, ForestParams(seed=2, **base))
        assert forest_to_json(a) != forest_to_json(b)


class TestSerialization:
    def make(self):
        rng = np.random.default_rng(15)
        X = rng.random((400, 2))
        y = (X[:, 0] > 0.4).astype(int)
        params = ForestParams(n_trees=6, max_features=2, min_samples_split=30, seed=5)
        return train_forest(X, y, params), X

    def test_round_trip_preserves_predictions(self):
        forest, X = self.make()
        back = forest_from_json(forest_to_json(forest))
        np.testing.assert_array_equal(
            back.predict_propensity(X), forest.predict_propensity(X)
        )

    def test_round_trip_fixpoint(self):
        forest, _ = self.make()
        blob = forest_to_json(forest)
        assert forest_to_json(forest_from_json(blob)) == blob

    def test_file_round_trip(self, tmp_path):
        forest, _ = self.make()
        path = tmp_path / "forest.json"
        save_forest(path, forest)
        assert forest_to_json(load_forest(path)) == forest_to_json(forest)

    def test_tree_count_mismatch_rejected(self):
        forest, _ = self.make()
        payload = json.loads(forest_to_json(forest))
        payload["trees"] = payload["trees"][:-1]
        with pytest.raises(ValueError):
            forest_from_json(json.dumps(payload))

    def test_flat_layout(self):
        forest, _ = self.make()
        payload = json.loads(forest_to_json(forest))
        assert payload["format"] == 2
        tree = payload["trees"][0]
        assert sorted(tree) == ["feature", "left", "prob", "right", "split"]
        assert len({len(v) for v in tree.values()}) == 1

    def _broken(self, edit):
        forest, _ = self.make()
        payload = json.loads(forest_to_json(forest))
        edit(payload)
        return json.dumps(payload)

    @pytest.mark.parametrize("edit, message", [
        (lambda p: p.pop("format"), "no format field"),
        (lambda p: p.update(format=3), "unknown forest format 3"),
        (lambda p: p["trees"][1]["split"].pop(), "tree 1: node arrays of unequal length"),
        (lambda p: p["trees"][0]["left"].__setitem__(0, 10**6), "tree 0: child index out of range"),
        (lambda p: p["trees"][0]["right"].__setitem__(0, 0), "tree 0: child index out of range or not after"),
        (lambda p: p["trees"][0]["feature"].__setitem__(0, 2), "tree 0: feature index out of range"),
        (lambda p: p["trees"][2]["prob"].__setitem__(-1, 1.5), r"tree 2: leaf prob outside \[0, 1\]"),
        (lambda p: p["trees"][2]["prob"].__setitem__(-1, -0.1), r"tree 2: leaf prob outside \[0, 1\]"),
    ])
    def test_loader_rejects(self, edit, message):
        with pytest.raises(ValueError, match=message):
            forest_from_json(self._broken(edit))

    def test_nested_file_names_path_and_format(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(NESTED_FOREST_JSON)
        with pytest.raises(ValueError, match=r"old\.json: forest JSON has no format field"):
            load_forest(path)


# a model file in the nested layout that preceded the flat node arrays
NESTED_FOREST_JSON = json.dumps({
    "n_features": 1,
    "params": {"bootstrap": False, "max_features": 1, "min_samples_split": 2,
               "n_trees": 1, "seed": 0},
    "trees": [{"feature": 0, "split": 2.5, "left": {"prob": 0.0}, "right": {"prob": 1.0}}],
})


class TestPredictValidation:
    def test_wrong_width_rejected(self):
        forest = single_cart([1.0, 2.0, 3.0, 4.0], [0, 0, 1, 1])
        with pytest.raises(ValueError):
            forest.predict_propensity(np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        forest = single_cart([1.0, 2.0, 3.0, 4.0], [0, 0, 1, 1])
        with pytest.raises(ValueError):
            forest.predict_propensity([[np.inf]])


# -- the recursive per-node grower the flat trees replaced: the reference --


def _ref_best_cut(X, y, rows, feats):
    n = rows.size
    pos = float(y[rows].sum())
    parent = 1.0 - (pos / n) ** 2 - ((n - pos) / n) ** 2
    best = None
    for f in feats:
        v = X[rows, f]
        order = np.argsort(v, kind="stable")
        sv = v[order]
        sy = y[rows][order]
        bounds = np.flatnonzero(np.diff(sv))
        if bounds.size == 0:
            continue
        n_left = (bounds + 1).astype(np.float64)
        n_right = n - n_left
        pos_left = np.cumsum(sy)[bounds].astype(np.float64)
        pos_right = pos - pos_left
        g_left = 1.0 - (pos_left / n_left) ** 2 - ((n_left - pos_left) / n_left) ** 2
        g_right = 1.0 - (pos_right / n_right) ** 2 - ((n_right - pos_right) / n_right) ** 2
        weighted = (n_left * g_left + n_right * g_right) / n
        j = int(np.argmin(weighted))
        reduction = parent - float(weighted[j])
        if reduction > 0.0 and (best is None or reduction > best[0]):
            lo, hi = float(sv[bounds[j]]), float(sv[bounds[j] + 1])
            mid = (lo + hi) / 2.0
            best = (reduction, int(f), mid if lo <= mid < hi else lo)
    return best


def _ref_grow(X, y, rows, params, rng, d):
    n = rows.size
    pos = int(y[rows].sum())
    if pos == 0 or pos == n or n < params.min_samples_split:
        return {"prob": pos / n}
    m = min(params.max_features, d)
    feats = np.sort(rng.choice(d, size=m, replace=False))
    best = _ref_best_cut(X, y, rows, feats)
    if best is None:
        return {"prob": pos / n}
    _, f, cut = best
    mask = X[rows, f] <= cut
    return {
        "feature": f, "split": cut,
        "left": _ref_grow(X, y, rows[mask], params, rng, d),
        "right": _ref_grow(X, y, rows[~mask], params, rng, d),
    }


def _ref_train(X, y, params):
    n, d = X.shape
    roots = []
    for i in range(params.n_trees):
        rng = substream(params.seed, "tree", i)
        rows = rng.integers(0, n, size=n) if params.bootstrap else np.arange(n)
        roots.append(_ref_grow(X, y, rows, params, rng, d))
    return roots


def _ref_predict_into(node, X, rows, out):
    if "prob" in node:
        out[rows] = node["prob"]
        return
    mask = X[rows, node["feature"]] <= node["split"]
    _ref_predict_into(node["left"], X, rows[mask], out)
    _ref_predict_into(node["right"], X, rows[~mask], out)


def _ref_predict(roots, X):
    total = np.zeros(X.shape[0])
    for root in roots:
        out = np.empty(X.shape[0])
        _ref_predict_into(root, X, np.arange(X.shape[0]), out)
        total += out
    return total / len(roots)


def _breadth_first(root):
    """The nested tree as the five node arrays, in breadth-first order."""
    arrays = {name: [] for name in ("feature", "split", "left", "right", "prob")}
    queue, head = [root], 0
    while head < len(queue):
        node = queue[head]
        head += 1
        leaf = "prob" in node
        arrays["feature"].append(-1 if leaf else node["feature"])
        arrays["split"].append(0.0 if leaf else node["split"])
        arrays["prob"].append(node["prob"] if leaf else 0.0)
        for side in ("left", "right"):
            arrays[side].append(-1 if leaf else len(queue))
            if not leaf:
                queue.append(node[side])
    return arrays


def _assert_matches_reference(X, y, params):
    forest = train_forest(X, y, params)
    roots = _ref_train(X, y, params)
    assert len(forest.trees) == len(roots)
    for tree, root in zip(forest.trees, roots):
        for name, expected in _breadth_first(root).items():
            assert getattr(tree, name).tolist() == expected, name
    probe = np.vstack([X, X + 0.5, X - 0.5])
    np.testing.assert_array_equal(forest.predict_propensity(probe), _ref_predict(roots, probe))


@st.composite
def training_sets(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(2, 70))
    columns = []
    for _ in range(d):
        kind = draw(st.sampled_from(["grid", "float", "constant"]))
        if kind == "grid":  # heavy ties
            col = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        elif kind == "float":
            col = draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=n, max_size=n))
        else:
            col = [draw(st.floats(-10.0, 10.0))] * n
        columns.append(col)
    X = np.array(columns, dtype=np.float64).T.reshape(n, d)
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    i = draw(st.integers(0, n - 1))
    y[i] = 1 - y[(i + 1) % n]  # both classes
    params = ForestParams(
        n_trees=draw(st.integers(1, 3)),
        max_features=d + draw(st.integers(0, 2)),
        min_samples_split=draw(st.integers(2, 60)),
        bootstrap=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return X, y, params


class TestAgainstRecursiveReference:
    """Level-wise flat trees equal the recursive grower node for node."""

    @given(training_sets())
    @settings(max_examples=300, deadline=None)
    def test_property(self, case):
        _assert_matches_reference(*case)

    def test_zero_gain_cut_rounds_as_reference(self):
        # each value holds 34 of 193 positives, so the cut's exact gain is
        # 0; its rounded gain is positive only with the parent impurity
        # computed in Python floats, as the reference does
        x = np.repeat([0.0, 1.0], 193).reshape(-1, 1)
        y = np.zeros(386, dtype=int)
        y[:34] = y[193:227] = 1
        params = ForestParams(n_trees=1, max_features=1, min_samples_split=2, bootstrap=False)
        _assert_matches_reference(x, y, params)
        assert train_forest(x, y, params).trees[0].feature[0] == 0

    def test_two_feature_cohort(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(3000, 2))
        y = (X[:, 0] - X[:, 1] + rng.normal(0.0, 2.0, 3000) > 0.3).astype(int)
        params = ForestParams(n_trees=4, max_features=50, min_samples_split=20, seed=8)
        _assert_matches_reference(X, y, params)
