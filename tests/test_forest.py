"""Tree growth, prediction, determinism, JSON interchange."""

import dataclasses
import functools
import json
import multiprocessing
import os
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rocbench import forest as forest_module
from rocbench.forest import (
    Forest,
    ForestParams,
    Tree,
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
    left = 2 * np.cumsum(tree.feature >= 0) - 1
    node = 0
    for step in path:
        node = int(left[node]) + (step == "R")
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
        assert tree.value[walk(tree)] == 2.5
        assert is_leaf(tree, "L") and tree.value[walk(tree, "L")] == 0.0
        assert tree.value[walk(tree, "R")] == 4.5
        assert tree.value[walk(tree, "RL")] == 3.5
        assert tree.value[walk(tree, "RR")] == 1.0

    def test_leaf_predictions(self):
        forest = single_cart(self.X, self.Y)
        grid = np.array([[1.0], [3.0], [4.0], [5.5]])
        np.testing.assert_array_equal(
            forest.predict_propensity(grid), [0.0, 1.0, 0.0, 1.0]
        )

    def test_min_samples_split_stops_growth(self):
        forest = single_cart(self.X, self.Y, min_samples_split=5)
        tree = forest.trees[0]
        assert tree.value[walk(tree)] == 2.5
        # the 4-row right child is below the split floor: mixed leaf
        assert is_leaf(tree, "R")
        assert tree.value[walk(tree, "R")] == pytest.approx(0.75)

    def test_no_usable_cut_becomes_leaf(self):
        forest = single_cart([1.0, 1.0, 1.0, 1.0], [0, 1, 0, 1])
        tree = forest.trees[0]
        assert is_leaf(tree)
        assert tree.value[0] == pytest.approx(0.5)

    def test_breadth_first_layout(self):
        tree = single_cart(self.X, self.Y).trees[0]
        # internal nodes 0, 2, 3 (ranks 0, 1, 2) have children 1-2, 3-4, 5-6
        assert tree.feature.tolist() == [0, -1, 0, 0, -1, -1, -1]
        assert tree.value.tolist() == [2.5, 0.0, 4.5, 3.5, 1.0, 1.0, 0.0]

    def test_adjacent_doubles_cut_below_the_upper_value(self):
        # the midpoint of these two rounds to the larger one; a cut there
        # would send both rows left and leave an empty right child
        lo = 1.0 + 2.0**-52
        hi = np.nextafter(lo, 2.0)
        assert (lo + hi) / 2.0 == hi
        forest = single_cart([lo, hi], [0, 1])
        tree = forest.trees[0]
        assert tree.value[0] == lo
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
        # numpy integers are integers; bool is not
        assert ForestParams(n_trees=np.int64(3), seed=np.uint64(2**63)).n_trees == 3
        with pytest.raises(ValueError, match="^n_trees must be an integer, got True$"):
            ForestParams(n_trees=True)


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


def _train_json(args):
    X, y, params = args
    return forest_to_json(train_forest(X, y, params))


def _refuse_fork():
    raise AssertionError("forked")


def _train_json_unforked(args):
    """``_train_json`` in a process whose ``os.fork`` fails, so it succeeds only if every tree grew in-process."""
    os.fork = _refuse_fork  # this process is a pool worker, which the pool ends
    return _train_json(args)


class TestWorkerProcesses:
    """Trees grown in forked workers equal trees grown in the calling process, and no worker outlives a call."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("bootstrap", [True, False])
    def test_forked_and_in_process_forests_are_identical(self, cpu_mask, assert_childless, seed, bootstrap):
        rng = np.random.default_rng(30 + seed)
        X = np.round(rng.normal(size=(400, 4)), 1)
        y = (X[:, 0] + X[:, 2] + rng.normal(0.0, 1.0, 400) > 0).astype(int)
        probe = rng.normal(size=(200, 4))
        for n_trees in (1, 2, 3, 7):
            # max_features < d: the per-level feature draws run inside the workers
            params = ForestParams(n_trees=n_trees, max_features=2, min_samples_split=10,
                                  bootstrap=bootstrap, seed=seed)
            runs = []
            for cpus in (1, 3):
                cpu_mask(cpus)
                forest = train_forest(X, y, params)
                runs.append((forest_to_json(forest), forest.predict_propensity(probe)))
                assert_childless()  # no worker outlives the call
            assert runs[0][0] == runs[1][0], n_trees
            assert runs[0][1].tobytes() == runs[1][1].tobytes(), n_trees

    def test_without_an_affinity_mask_trees_grow_in_process(self, monkeypatch, cpu_mask):
        rng = np.random.default_rng(40)
        X = rng.random((300, 3))
        y = (X[:, 0] > X[:, 1]).astype(int)
        params = ForestParams(n_trees=4, max_features=2, min_samples_split=20)
        cpu_mask(2)
        forked = forest_to_json(train_forest(X, y, params))
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "fork", _refuse_fork)
        assert forest_to_json(train_forest(X, y, params)) == forked

    @staticmethod
    def _train_failing(monkeypatch, failing, slow=()):
        """Train seven trees of which the trees ``failing`` raise, each of ``slow`` after a pause."""
        rng = np.random.default_rng(42)
        X = rng.random((300, 3))
        y = (X[:, 0] > X[:, 1]).astype(int)
        params = ForestParams(n_trees=7, max_features=2, min_samples_split=20, seed=5)
        # a tree is known by its bootstrap multiplicities
        targets = {i: np.bincount(substream(params.seed, "tree", i).integers(0, 300, size=300), minlength=300)
                   for i in failing}
        grow = forest_module._grow_tree

        def grow_or_fail(X, y, w, *rest):
            for i, target in targets.items():
                if np.array_equal(w, target):
                    time.sleep(0.3 if i in slow else 0.0)
                    raise RuntimeError(f"tree {i} failed")
            return grow(X, y, w, *rest)

        monkeypatch.setattr(forest_module, "_grow_tree", grow_or_fail)
        train_forest(X, y, params)

    @pytest.mark.parametrize("failing", [0, 3])  # 0 grows in the parent, 3 in a worker
    def test_a_failing_tree_reaches_the_caller(self, monkeypatch, cpu_mask, assert_childless, failing):
        cpu_mask(3)
        with pytest.raises(RuntimeError, match=f"tree {failing} failed"):
            self._train_failing(monkeypatch, [failing])
        assert_childless()

    def test_the_lowest_failing_tree_is_reported(self, monkeypatch, cpu_mask, assert_childless):
        # under four CPUs the parent grows tree 0 and three workers take trees 1-6 one by one;
        # tree 2 fails after tree 5 has, and it is the one reported, on every run
        cpu_mask(4)
        for _ in range(3):
            with pytest.raises(RuntimeError, match="^tree 2 failed$"):
                self._train_failing(monkeypatch, [2, 5], slow=[2])
            assert_childless()

    @given(st.deferred(lambda: training_sets(narrow=True)))  # defined below, beside the reference growers
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_property(self, cpu_mask, case):
        X, y, params = case
        runs = []
        for cpus in (1, 2):
            cpu_mask(cpus)
            runs.append(forest_to_json(train_forest(X, y, params)))
        assert runs[0] == runs[1]

    def test_inside_a_daemonic_pool_worker(self, cpu_mask, assert_childless):
        rng = np.random.default_rng(43)
        X = rng.random((300, 3))
        y = (X[:, 0] > X[:, 1]).astype(int)
        args = (X, y, ForestParams(n_trees=5, max_features=2, min_samples_split=20, seed=2))
        cpu_mask(3)  # the pool's fork inherits the mask, so only the daemon check keeps it in-process
        with multiprocessing.get_context("fork").Pool(1) as pool:
            inside = pool.apply_async(_train_json_unforked, (args,)).get(timeout=60)
        assert inside == _train_json(args)
        assert_childless()


@functools.cache
def _block_forest():
    rng = np.random.default_rng(44)
    X = np.round(rng.normal(size=(500, 3)), 1)
    y = (X[:, 0] - X[:, 1] + rng.normal(0.0, 1.0, 500) > 0).astype(int)
    return train_forest(X, y, ForestParams(n_trees=7, max_features=2, min_samples_split=10, seed=4))


def _one_pass_scores(forest, X):
    """The forest's scores in one process, all rows at once: the loop the row blocks replaced."""
    columns = np.ascontiguousarray(np.asarray(X, dtype=np.float64).T)
    total = np.zeros(columns.shape[1])
    for tree in forest.trees:
        total += tree.predict(columns)
    return total / len(forest.trees)


class TestRowBlocks:
    """Rows scored in one block per CPU get the bytes of one pass over all rows, on any mask."""

    @given(n=st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(4, 2000)), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_mask_gives_the_one_pass_bytes(self, cpu_mask, assert_childless, n, seed):
        forest = _block_forest()
        X = np.round(np.random.default_rng(seed).normal(size=(n, 3)), 1)  # ties with the cuts' midpoints too
        expected = _one_pass_scores(forest, X)
        for mask in (1, 2, 3, 4):
            cpu_mask(mask)
            got = forest.predict_propensity(X)
            assert got.dtype == np.float64 and got.shape == (n,)
            assert got.tobytes() == expected.tobytes(), mask
        assert_childless()

    @pytest.mark.parametrize("mask", [1, 2, 3])
    def test_one_call_over_two_splits_equals_a_call_each(self, cpu_mask, mask):
        # report scores its validation and performance rows in one call and splits the result
        rng = np.random.default_rng(45)
        first, second = rng.normal(size=(301, 3)), rng.normal(size=(257, 3))
        cpu_mask(mask)
        forest = _block_forest()
        both = forest.predict_propensity(np.concatenate([first, second]))
        assert both[:301].tobytes() == forest.predict_propensity(first).tobytes()
        assert both[301:].tobytes() == forest.predict_propensity(second).tobytes()

    def test_one_cpu_forks_nothing(self, cpu_mask, monkeypatch):
        cpu_mask(1)
        monkeypatch.setattr(os, "fork", _refuse_fork)
        X = np.random.default_rng(46).normal(size=(40, 3))
        assert _block_forest().predict_propensity(X).tobytes() == _one_pass_scores(_block_forest(), X).tobytes()


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

    def test_numpy_integer_params_save_as_plain_ints(self, tmp_path):
        forest, X = self.make()
        params = ForestParams(n_trees=np.int64(6), max_features=np.int32(2), min_samples_split=np.uint8(30),
                              seed=np.int64(5))
        assert [type(v) for v in dataclasses.astuple(params)] == [int, int, int, bool, int]
        path = tmp_path / "forest.json"
        save_forest(path, train_forest(X, (X[:, 0] > 0.4).astype(int), params))
        assert path.read_text() == forest_to_json(forest) + "\n"

    def test_failed_save_leaves_the_file_as_it_was(self, tmp_path, monkeypatch):
        forest, _ = self.make()
        path = tmp_path / "forest.json"
        path.write_text("kept\n")

        def fail(_):
            raise TypeError("not serialisable")

        monkeypatch.setattr(forest_module, "forest_to_json", fail)
        with pytest.raises(TypeError, match="not serialisable"):
            save_forest(path, forest)
        assert path.read_text() == "kept\n"

    def test_non_finite_leaf_value_is_not_written(self, tmp_path):
        forest, _ = self.make()
        tree = forest.trees[0]
        value = tree.value.copy()
        value[-1] = np.nan
        forest.trees[0] = Tree(tree.feature, value)
        with pytest.raises(ValueError, match="not JSON compliant"):
            forest_to_json(forest)
        path = tmp_path / "forest.json"
        path.write_text("kept\n")
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_forest(path, forest)
        assert path.read_text() == "kept\n"

    def test_tree_count_mismatch_rejected(self):
        forest, _ = self.make()
        payload = json.loads(forest_to_json(forest))
        payload["trees"] = payload["trees"][:-1]
        with pytest.raises(ValueError):
            forest_from_json(json.dumps(payload))

    def test_flat_layout(self):
        forest, _ = self.make()
        payload = json.loads(forest_to_json(forest))
        assert payload["format"] == 3
        for tree in payload["trees"]:
            assert sorted(tree) == ["feature", "value"]
            n_inner = sum(f >= 0 for f in tree["feature"])
            assert len(tree["feature"]) == len(tree["value"]) == 2 * n_inner + 1

    def _broken(self, edit):
        forest, _ = self.make()
        payload = json.loads(forest_to_json(forest))
        edit(payload)
        return json.dumps(payload)

    @pytest.mark.parametrize("edit, message", [
        (lambda p: p.pop("format"), "no format field"),
        (lambda p: p.update(format=4), "unknown forest format 4"),
        (lambda p: p.update(format=2), "unknown forest format 2, expected 3; retrain"),
        (lambda p: p["trees"][1]["value"].pop(), "tree 1: node arrays of unequal length"),
        (lambda p: p["trees"][1].pop("value"), "tree 1: expected an object of exactly the arrays feature and value"),
        (lambda p: [p["trees"][0][a].pop() for a in ("feature", "value")], "tree 0: node count"),
        (lambda p: p["trees"][0]["feature"].__setitem__(0, 2), "tree 0: feature index out of range"),
        (lambda p: p["trees"][2]["value"].__setitem__(-1, 1.5), r"tree 2: leaf prob outside \[0, 1\]"),
        (lambda p: p["trees"][2]["value"].__setitem__(-1, -0.1), r"tree 2: leaf prob outside \[0, 1\]"),
        (lambda p: p["params"].update(foo=1), "params must be an object of exactly the keys bootstrap, max_features"),
        (lambda p: p["params"].pop("seed"), "exactly the keys bootstrap, max_features, min_samples_split, n_trees, seed$"),
        (lambda p: p.update(params=[1, 2]), "params must be an object"),
        (lambda p: p.pop("params"), "^params must be an object of exactly the keys"),
        (lambda p: p["trees"][1]["feature"].__setitem__(0, 0.7), "tree 1: feature entries must be integers"),
        (lambda p: p["trees"][1]["feature"].__setitem__(-1, 0.0), "tree 1: feature entries must be integers$"),
        (lambda p: p["trees"][0]["feature"].__setitem__(0, True), "tree 0: feature entries must be integers"),
        (lambda p: p["trees"][0].update(feature=0), "tree 0: feature entries must be"),
        (lambda p: p["trees"][0]["feature"].__setitem__(0, 2**70), "tree 0: feature index out of range$"),
        (lambda p: p.pop("trees"), "^forest JSON must be an object of exactly the keys format, n_features, params"),
        (lambda p: p.pop("n_features"), "exactly the keys format, n_features, params, trees$"),
        (lambda p: p.update(extra=1), "^forest JSON must be an object of exactly the keys"),
        (lambda p: p.update(n_features=1.5), "^n_features must be an integer >= 1, got 1.5$"),
        (lambda p: p.update(n_features="2"), "^n_features must be an integer >= 1, got '2'$"),
        (lambda p: p.update(n_features=True), "^n_features must be an integer >= 1, got True$"),
        (lambda p: p.update(n_features=0), "^n_features must be an integer >= 1, got 0$"),
        (lambda p: p.update(trees={}), "^trees must be a list$"),
        (lambda p: p["params"].update(n_trees="3"), "^n_trees must be an integer, got '3'$"),
        (lambda p: p["params"].update(min_samples_split=20.0), "^min_samples_split must be an integer, got 20.0$"),
        (lambda p: p["params"].update(max_features=True), "^max_features must be an integer, got True$"),
        (lambda p: p["params"].update(seed=1.5), "^seed must be an integer, got 1.5$"),
        (lambda p: p["params"].update(seed=-2), "^seed must be >= 0$"),
        (lambda p: p["params"].update(bootstrap="no"), "^bootstrap must be true or false, got 'no'$"),
        (lambda p: p["params"].update(bootstrap=1), "^bootstrap must be true or false, got 1$"),
    ])
    def test_loader_rejects(self, edit, message):
        with pytest.raises(ValueError, match=message):
            forest_from_json(self._broken(edit))

    def test_file_errors_name_the_path(self, tmp_path):
        path = tmp_path / "edited.json"
        path.write_text(self._broken(lambda p: p["params"].update(foo=1)))
        with pytest.raises(ValueError, match=r"edited\.json: params must be an object"):
            load_forest(path)
        path.write_text(self._broken(lambda p: p["trees"][0]["feature"].__setitem__(0, 0.7)))
        with pytest.raises(ValueError, match=r"edited\.json: tree 0: feature entries must be integers"):
            load_forest(path)
        path.write_text(self._broken(lambda p: p.pop("trees")))
        with pytest.raises(ValueError, match=r"edited\.json: forest JSON must be an object of exactly the keys"):
            load_forest(path)
        path.write_text(self._broken(lambda p: p["params"].update(n_trees="3")))
        with pytest.raises(ValueError, match=r"edited\.json: n_trees must be an integer, got '3'$"):
            load_forest(path)

    def test_nested_file_names_path_and_format(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(NESTED_FOREST_JSON)
        with pytest.raises(ValueError, match=r"old\.json: forest JSON has no format field"):
            load_forest(path)

    # node values that forest_to_json (allow_nan=False, floats from tolist) could never write
    BAD_VALUES = [float("nan"), float("inf"), float("-inf"), "0.25", True, False, None, [0.5], 10**400]

    @pytest.mark.parametrize("bad", BAD_VALUES, ids=repr)
    @pytest.mark.parametrize("node", [0, -1], ids=["cut", "leaf"])
    def test_loader_rejects_non_finite_or_non_number_values(self, tmp_path, bad, node):
        text = self._broken(lambda p: p["trees"][0]["value"].__setitem__(node, bad))
        with pytest.raises(ValueError, match="^tree 0: value entries must be finite numbers$"):
            forest_from_json(text)
        path = tmp_path / "edited.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=r"edited\.json: tree 0: value entries must be finite numbers$"):
            load_forest(path)

    def test_loader_rejects_value_that_is_not_a_list(self):
        with pytest.raises(ValueError, match="^tree 0: value entries must be finite numbers$"):
            forest_from_json(self._broken(lambda p: p["trees"][0].update(value=0.5)))

    def test_loader_takes_integer_values(self):
        forest, X = self.make()
        payload = json.loads(forest_to_json(forest))
        tree = payload["trees"][0]
        leaves = [i for i, f in enumerate(tree["feature"]) if f < 0]
        tree["value"][leaves[0]] = 1  # a JSON integer is a number too
        tree["value"][0] = int(tree["value"][0] // 1)
        back = forest_from_json(json.dumps(payload))
        assert back.trees[0].value[leaves[0]] == 1.0
        assert back.trees[0].value.dtype == np.float64


def _implied_walk(feature, value, x):
    """Leaf value that row ``x`` reaches through the implied children, one node at a time."""
    left = 2 * np.cumsum(feature >= 0) - 1
    node = 0
    for _ in range(feature.size):  # ids increase along a path, so no walk is longer
        if feature[node] < 0:
            return value[node]
        child = int(left[node]) + int(x[feature[node]] > value[node])
        assert node < child < feature.size
        node = child
    raise AssertionError("no leaf within one step per node")


@st.composite
def format3_payloads(draw):
    """(payload, probe rows, internal count) of a one-tree file of 2I + 1 nodes, any layout.

    The internal count is I, or one more or one less, which the loader must refuse.
    """
    d = draw(st.integers(1, 3))
    half = draw(st.integers(0, 15))
    n = 2 * half + 1
    n_inner = max(draw(st.sampled_from([half, half, half, half - 1, half + 1])), 0)
    inner = draw(st.permutations([True] * n_inner + [False] * (n - n_inner)))
    cuts = st.floats(-4.0, 4.0).map(lambda v: round(v, 1))
    feature = [draw(st.integers(0, d - 1)) if i else -1 for i in inner]
    value = [draw(cuts) if i else draw(st.floats(0.0, 1.0)) for i in inner]
    payload = {
        "format": 3, "n_features": d, "trees": [{"feature": feature, "value": value}],
        "params": {"bootstrap": True, "max_features": d, "min_samples_split": 2, "n_trees": 1, "seed": 0},
    }
    rows = draw(st.lists(st.lists(cuts, min_size=d, max_size=d), min_size=1, max_size=20))
    return payload, np.array(rows, dtype=np.float64), n_inner


class TestFormat3:
    """Any tree the loader accepts sends every row to a leaf through the implied children."""

    @given(format3_payloads())
    @settings(max_examples=400, deadline=None)
    def test_accepted_trees_reach_a_leaf(self, case):
        payload, X, n_inner = case
        n = len(payload["trees"][0]["feature"])
        try:
            forest = forest_from_json(json.dumps(payload))
        except ValueError as exc:
            assert n != 2 * n_inner + 1 and "node count" in str(exc)
            return
        assert n == 2 * n_inner + 1
        tree = forest.trees[0]
        expected = [_implied_walk(tree.feature, tree.value, x) for x in X]
        np.testing.assert_array_equal(forest.predict_propensity(X), expected)


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


FIVE = ("feature", "split", "left", "right", "prob")  # the node arrays of forest format 2


def _breadth_first(root):
    """The nested tree as the five node arrays, in breadth-first order."""
    arrays = {name: [] for name in FIVE}
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


def _two_arrays(arrays):
    """A reference's five node arrays as ``(feature, value)``.

    Asserts what lets format 3 drop the other three: a leaf holds
    ``split == 0.0``, an internal node ``prob == 0.0``, and the children
    of the k-th internal node in id order are 2k + 1 and 2k + 2.
    """
    feature, split, left, right, prob = (np.asarray(arrays[name]) for name in FIVE)
    inner = feature >= 0
    k = np.arange(int(inner.sum()))
    assert feature.size == 2 * k.size + 1
    assert (split[~inner] == 0.0).all() and (prob[inner] == 0.0).all()
    assert left[inner].tolist() == (2 * k + 1).tolist() and right[inner].tolist() == (2 * k + 2).tolist()
    assert (left[~inner] == -1).all() and (right[~inner] == -1).all()
    return feature, np.where(inner, split, prob)


def _pointer_predict(trees, X):
    """Mean leaf value over ``trees`` (five node arrays each), following explicit child pointers."""
    total = np.zeros(X.shape[0])
    for arrays in trees:
        feature, split, left, right, prob = (np.asarray(arrays[name]) for name in FIVE)
        node = np.zeros(X.shape[0], dtype=np.int64)
        for _ in range(feature.size):
            at = np.flatnonzero(feature[node] >= 0)
            if at.size == 0:
                break
            go_right = X[at, feature[node[at]]] > split[node[at]]
            node[at] = np.where(go_right, right[node[at]], left[node[at]])
        assert (feature[node] < 0).all()
        total += prob[node]
    return total / len(trees)


def _assert_matches_reference(X, y, params):
    forest = train_forest(X, y, params)
    roots = _ref_train(X, y, params)
    assert len(forest.trees) == len(roots)
    arrays = [_breadth_first(root) for root in roots]
    for tree, five in zip(forest.trees, arrays):
        feature, value = _two_arrays(five)
        assert tree.feature.tolist() == feature.tolist()
        assert tree.value.tolist() == value.tolist()
    probe = np.vstack([X, X + 0.5, X - 0.5])
    scores = forest.predict_propensity(probe)
    np.testing.assert_array_equal(scores, _ref_predict(roots, probe))
    np.testing.assert_array_equal(scores, _pointer_predict(arrays, probe))


# -- the level-wise grower on every bootstrap slot, duplicates included, --
# -- that the distinct-row grower replaced: the reference for any max_features --


def _slot_settled(count, pos, min_samples_split):
    return (pos == 0) | (pos == count) | (count < min_samples_split)


def _slot_best_cuts(vals, labs, gstart, gcount, gpos, allowed):
    """Best Gini cut of each (feature, node) group of one level.

    ``vals``/``labs`` hold the level's samples feature by feature and,
    within a feature, node by node, sorted by that feature's value; group
    g covers ``gcount[g]`` positions from ``gstart[g]`` and has ``gpos[g]``
    positives.  ``allowed`` (one flag per group, or None for all) limits
    the search.  Returns the gain and the cut of every group; a gain of 0
    means no cut.
    """
    boundary = np.empty(vals.size, dtype=bool)
    np.not_equal(vals[1:], vals[:-1], out=boundary[:-1])
    boundary[gstart + gcount - 1] = False
    if allowed is not None:
        boundary &= np.repeat(allowed, gcount)
    at = np.flatnonzero(boundary)
    gain, cuts = np.zeros(gstart.size), np.zeros(gstart.size)
    if at.size == 0:
        return gain, cuts
    group = np.repeat(np.arange(gstart.size), gcount).take(at)
    start = gstart.take(group)
    csum = np.zeros(labs.size + 1, dtype=np.int64)
    np.cumsum(labs, out=csum[1:])

    n = gcount.take(group).astype(np.float64)
    n_left = (at + 1 - start).astype(np.float64)
    n_right = n - n_left
    pos_left = (csum.take(at + 1) - csum.take(start)).astype(np.float64)
    pos_right = gpos.take(group).astype(np.float64) - pos_left
    g_left = 1.0 - (pos_left / n_left) ** 2 - ((n_left - pos_left) / n_left) ** 2
    g_right = 1.0 - (pos_right / n_right) ** 2 - ((n_right - pos_right) / n_right) ** 2
    weighted = (n_left * g_left + n_right * g_right) / n

    # first minimum per group: the smallest cut wins a tie
    runs = np.bincount(group, minlength=gstart.size)
    won = np.flatnonzero(runs)
    runs = runs.take(won)
    head = np.cumsum(runs) - runs
    low = np.minimum.reduceat(weighted, head)
    at_low = np.flatnonzero(weighted == np.repeat(low, runs))
    first = at_low.take(np.searchsorted(at_low, head))

    # Python floats (``**`` is C pow, not numpy's square), so the parent
    # impurity rounds as the models' split rule has always rounded it
    parent = np.array([
        1.0 - (p / c) ** 2 - ((c - p) / c) ** 2
        for p, c in zip(gpos.take(won).astype(np.float64).tolist(), gcount.take(won).tolist())
    ])
    gain[won] = parent - low
    lo, hi = vals.take(at.take(first)), vals.take(at.take(first) + 1)
    mid = (lo + hi) / 2.0
    # the midpoint of adjacent doubles can round up to ``hi``, and a sum
    # can overflow; ``lo`` then cuts the same rows
    cuts[won] = np.where((mid >= lo) & (mid < hi), mid, lo)
    return gain, cuts


def _slot_grow_tree(X, y, rows, params, rng):
    n, d = rows.size, X.shape[1]
    xs = np.ascontiguousarray(X[rows].T).ravel()  # feature f of bootstrap sample s at f * n + s
    ys = y[rows]
    cap = 2 * n - 1  # every leaf holds at least one sample
    feature = np.full(cap, -1, dtype=np.int64)
    split = np.zeros(cap)
    left = np.full(cap, -1, dtype=np.int64)
    right = np.full(cap, -1, dtype=np.int64)
    prob = np.zeros(cap)

    ids, count, pos = np.array([0]), np.array([n]), np.array([int(ys.sum())])
    n_nodes = 1
    if _slot_settled(count, pos, params.min_samples_split)[0]:
        prob[0] = pos[0] / n
        ids = ids[:0]
    # the open samples of every feature, node by node, each node sorted by
    # that feature: row f of the (d, m) layout, flattened
    order = np.argsort(xs.reshape(d, n), axis=1, kind="stable").ravel()
    feats = np.arange(d)
    while ids.size:
        k, m = ids.size, int(count.sum())
        allowed = None
        if params.max_features < d:
            pick = np.argsort(rng.random((k, d)), axis=1)[:, : params.max_features]
            allowed = np.zeros((d, k), dtype=bool)
            allowed[pick, np.arange(k)[:, None]] = True
            allowed = allowed.ravel()
        start = np.cumsum(count) - count
        gstart = (feats[:, None] * m + start).ravel()
        offset = np.repeat(feats * n, m)
        gain, cuts = _slot_best_cuts(
            xs.take(order + offset), ys.take(order), gstart, np.tile(count, d), np.tile(pos, d), allowed
        )
        gain, cuts = gain.reshape(d, k), cuts.reshape(d, k)
        best = np.argmax(gain, axis=0)  # first feature of the largest gain
        cut = cuts[best, np.arange(k)]
        ok = gain[best, np.arange(k)] > 0.0
        prob[ids[~ok]] = pos[~ok] / count[~ok]
        n_split = int(ok.sum())
        if n_split == 0:
            break

        # route the samples of splitting nodes; children get ids in node order
        seg = np.repeat(np.arange(k), count)
        sel = ok.take(seg)
        samples, node = order[:m][sel], seg[sel]
        go_left = xs.take(best.take(node) * n + samples) <= cut.take(node)
        rank = np.cumsum(ok) - 1
        child = 2 * rank.take(node) + ~go_left
        c_count = np.bincount(child, minlength=2 * n_split)
        c_pos = np.bincount(child, weights=ys.take(samples), minlength=2 * n_split).astype(np.int64)
        c_ids = n_nodes + np.arange(2 * n_split)
        n_nodes += 2 * n_split
        feature[ids[ok]] = best[ok]
        split[ids[ok]] = cut[ok]
        left[ids[ok]], right[ids[ok]] = c_ids[0::2], c_ids[1::2]
        done = _slot_settled(c_count, c_pos, params.min_samples_split)
        prob[c_ids[done]] = c_pos[done] / c_count[done]
        ids, count, pos = c_ids[~done], c_count[~done], c_pos[~done]

        # stable partition into the next layout, where each row holds the
        # open children node by node.  The i-th kept-left sample of the
        # whole layout moves to i plus the kept-right samples ahead of it
        # there (those of earlier rows and of earlier nodes in its row);
        # kept-right samples move the same way past kept-left ones.
        side = np.zeros(n, dtype=np.int8)
        side[samples] = np.where(done.take(child), 0, 2 - go_left)
        sides = side.take(order)
        kept_left = np.zeros(k, dtype=np.int64)
        kept_right = np.zeros(k, dtype=np.int64)
        kept_left[ok] = np.where(done[0::2], 0, c_count[0::2])
        kept_right[ok] = np.where(done[1::2], 0, c_count[1::2])
        n_left, n_right = int(kept_left.sum()), int(kept_right.sum())
        shift_left = (feats[:, None] * n_right + np.cumsum(kept_right) - kept_right).ravel()
        shift_right = (feats[:, None] * n_left + np.cumsum(kept_left)).ravel()
        nxt = np.empty(d * (n_left + n_right), dtype=order.dtype)
        nxt[np.arange(d * n_left) + np.repeat(shift_left, np.tile(kept_left, d))] = order[sides == 1]
        nxt[np.arange(d * n_right) + np.repeat(shift_right, np.tile(kept_right, d))] = order[sides == 2]
        order = nxt
    return {name: a[:n_nodes].copy() for name, a in zip(FIVE, (feature, split, left, right, prob))}


def _slot_train(X, y, params):
    n = X.shape[0]
    trees = []
    for i in range(params.n_trees):
        rng = substream(params.seed, "tree", i)
        rows = rng.integers(0, n, size=n) if params.bootstrap else np.arange(n)
        trees.append(_slot_grow_tree(X, y.astype(np.int64), rows, params, rng))
    return trees


@st.composite
def training_sets(draw, narrow=False):
    """(X, y, params); ``narrow`` also draws ``max_features`` below the feature count."""
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
        max_features=draw(st.integers(1, d + 1)) if narrow else d + draw(st.integers(0, 2)),
        min_samples_split=draw(st.integers(2, 60)),
        bootstrap=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return X, y, params


class TestAgainstRecursiveReference:
    """Level-wise flat trees equal the recursive grower node for node."""

    @given(training_sets())
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_property(self, cpu_mask, case):
        cpu_mask(1)  # no worker pool per example
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


def _assert_matches_slots(X, y, params):
    forest, refs = train_forest(X, y, params), _slot_train(X, y, params)
    for tree, ref in zip(forest.trees, refs, strict=True):
        feature, value = _two_arrays(ref)
        assert tree.feature.tobytes() == feature.tobytes()
        assert tree.value.tobytes() == value.tobytes()
    probe = np.vstack([X, X + 0.5, X - 0.5])
    np.testing.assert_array_equal(forest.predict_propensity(probe), _pointer_predict(refs, probe))


class TestAgainstSlotReference:
    """Trees grown on the distinct drawn rows equal trees grown on every bootstrap slot, node for node."""

    @given(training_sets(narrow=True))
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_property(self, cpu_mask, case):
        cpu_mask(1)  # no worker pool per example
        _assert_matches_slots(*case)

    def test_feature_draws_on_a_cohort(self):
        rng = np.random.default_rng(5)
        X = np.round(rng.normal(size=(2000, 4)), 1)  # ties on every feature
        y = (X[:, 0] + X[:, 2] + rng.normal(0.0, 1.0, 2000) > 0).astype(int)
        params = ForestParams(n_trees=3, max_features=2, min_samples_split=10, seed=3)
        _assert_matches_slots(X, y, params)
        # deep trees: levels of about a hundred open nodes, many children settling mid-level
        X = np.round(rng.normal(size=(5000, 6)), 1)
        y = (X[:, 1] - X[:, 4] + rng.normal(0.0, 3.0, 5000) > 0).astype(int)
        _assert_matches_slots(X, y, ForestParams(n_trees=2, max_features=3, min_samples_split=2, seed=8))


# -- the Gini pass that allocated each step's array, on integer sums: --
# -- the reference for the buffered pass --


def _alloc_best_cuts(vals, wts, wpos, gstart, gsize, gcount, gpos, allowed):
    """``forest._best_cuts`` as it was before the level buffers: integer
    weights and sums, and a fresh array for every step of the Gini
    expression.
    """
    boundary = np.empty(vals.size, dtype=bool)
    np.not_equal(vals[1:], vals[:-1], out=boundary[:-1])
    boundary[gstart + gsize - 1] = False
    if allowed is not None:
        boundary &= np.repeat(allowed, gsize)
    at = np.flatnonzero(boundary)
    gain, cuts = np.zeros(gstart.size), np.zeros(gstart.size)
    if at.size == 0:
        return gain, cuts
    group = np.repeat(np.arange(gstart.size), gsize).take(at)
    start = gstart.take(group)
    ccount = np.zeros(wts.size + 1, dtype=np.int64)
    np.cumsum(wts, out=ccount[1:])
    cpos = np.zeros(wpos.size + 1, dtype=np.int64)
    np.cumsum(wpos, out=cpos[1:])

    # integer weights: every sum below is the count the bootstrap slots gave
    n = gcount.take(group).astype(np.float64)
    n_left = (ccount.take(at + 1) - ccount.take(start)).astype(np.float64)
    n_right = n - n_left
    pos_left = (cpos.take(at + 1) - cpos.take(start)).astype(np.float64)
    pos_right = gpos.take(group).astype(np.float64) - pos_left
    g_left = 1.0 - (pos_left / n_left) ** 2 - ((n_left - pos_left) / n_left) ** 2
    g_right = 1.0 - (pos_right / n_right) ** 2 - ((n_right - pos_right) / n_right) ** 2
    weighted = (n_left * g_left + n_right * g_right) / n

    # first minimum per group: the smallest cut wins a tie
    runs = np.bincount(group, minlength=gstart.size)
    won = np.flatnonzero(runs)
    runs = runs.take(won)
    head = np.cumsum(runs) - runs
    low = np.minimum.reduceat(weighted, head)
    at_low = np.flatnonzero(weighted == np.repeat(low, runs))
    first = at_low.take(np.searchsorted(at_low, head))

    # Python floats (``**`` is C pow, not numpy's square), so the parent
    # impurity rounds as the models' split rule has always rounded it
    parent = np.array([
        1.0 - (p / c) ** 2 - ((c - p) / c) ** 2
        for p, c in zip(gpos.take(won).astype(np.float64).tolist(), gcount.take(won).tolist())
    ])
    gain[won] = parent - low
    lo, hi = vals.take(at.take(first)), vals.take(at.take(first) + 1)
    mid = (lo + hi) / 2.0
    # the midpoint of adjacent doubles can round up to ``hi``, and a sum
    # can overflow; ``lo`` then cuts the same rows
    cuts[won] = np.where((mid >= lo) & (mid < hi), mid, lo)
    return gain, cuts


@st.composite
def gini_levels(draw):
    """One level's ``_alloc_best_cuts`` arguments: groups of rows sorted by value, integer weights."""
    grid = draw(st.booleans())  # heavy ties
    value = st.integers(0, 3).map(float) if grid else st.floats(-1e3, 1e3, allow_nan=False)
    weight = st.integers(1, 3) | st.integers(1, 10**6)
    groups = draw(st.lists(
        st.lists(st.tuples(value, weight, st.integers(0, 1)), min_size=1, max_size=30), min_size=1, max_size=8,
    ))
    rows = [row for group in groups for row in sorted(group, key=lambda r: r[0])]
    vals = np.array([r[0] for r in rows])
    wts = np.array([r[1] for r in rows], dtype=np.int64)
    wpos = wts * np.array([r[2] for r in rows])
    gsize = np.array([len(g) for g in groups])
    gstart = np.cumsum(gsize) - gsize
    gcount, gpos = np.add.reduceat(wts, gstart), np.add.reduceat(wpos, gstart)
    allowed = draw(st.none() | st.lists(st.booleans(), min_size=len(groups), max_size=len(groups)).map(np.array))
    return vals, wts, wpos, gstart, gsize, gcount, gpos, allowed


def _doubled(level):
    """The level followed by a copy of itself, as one level of twice the groups."""
    vals, wts, wpos, gstart, gsize, gcount, gpos, allowed = level
    return (
        np.tile(vals, 2), np.tile(wts, 2), np.tile(wpos, 2), np.concatenate([gstart, gstart + vals.size]),
        np.tile(gsize, 2), np.tile(gcount, 2), np.tile(gpos, 2), None if allowed is None else np.tile(allowed, 2),
    )


def _buffered_best_cuts(level, buf):
    """``forest._best_cuts`` on a level of integer weights, passed as the grower passes them: float64."""
    vals, wts, wpos, gstart, gsize, gcount, gpos, allowed = level
    as_float = [a.astype(np.float64) for a in (wts, wpos)]
    return forest_module._best_cuts(
        vals, *as_float, gstart, gsize, gcount.astype(np.float64), gpos.astype(np.float64), allowed, buf
    )


def _assert_same_cuts(got, want):
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


class TestBufferedGiniPass:
    """The Gini pass in reused level buffers equals the allocating pass on integer sums, byte for byte."""

    @given(gini_levels())
    @settings(max_examples=300, deadline=None)
    def test_property(self, level):
        doubled = _doubled(level)
        buf = np.full((6, doubled[0].size + 1), np.nan)
        # a larger level first leaves every row of the buffer written past the next level's end
        _assert_same_cuts(_buffered_best_cuts(doubled, buf), _alloc_best_cuts(*doubled))
        _assert_same_cuts(_buffered_best_cuts(level, buf), _alloc_best_cuts(*level))
        # and a buffer exactly as long as the level needs
        tight = np.full((6, level[0].size + 1), np.nan)
        _assert_same_cuts(_buffered_best_cuts(level, tight), _alloc_best_cuts(*level))


def _splits_per_level(tree):
    """The number of splitting nodes at each depth of ``tree``."""
    left = 2 * np.cumsum(tree.feature >= 0) - 1
    level, counts = np.array([0]), []
    while level.size:
        inner = level[tree.feature.take(level) >= 0]
        counts.append(inner.size)
        level = np.concatenate([left.take(inner), left.take(inner) + 1])
    return counts


class TestLevelKeys:
    """The level reorder sorts keys cast to the narrowest unsigned type; the order is the int64 keys' order."""

    @given(st.integers(1, 2**20), st.integers(1, 8), st.data())
    @settings(max_examples=200, deadline=None)
    def test_cast_keys_sort_as_int64_keys(self, n_split, d, data):
        largest = 2 * n_split * (2 * d - 1)  # the grower's largest key: settled rows of the last feature
        key = np.array(data.draw(st.lists(
            st.sampled_from([0, 1, largest - 1, largest]) | st.integers(0, largest), max_size=300,
        )), dtype=np.int64)
        cast = key.astype(np.min_scalar_type(largest))
        assert cast.tolist() == key.tolist()
        assert np.argsort(cast, kind="stable").tolist() == np.argsort(key, kind="stable").tolist()

    @pytest.mark.parametrize("bootstrap", [False, True])
    def test_a_level_of_keys_wider_than_sixteen_bits(self, cpu_mask, bootstrap):
        # twelve binary features in full factorial halve every node exactly, so one level
        # splits hundreds of nodes; forty constant features widen every key by the feature count
        n, bits = 4096, 12
        X = np.hstack([(np.arange(n)[:, None] >> np.arange(bits)) & 1, np.zeros((n, 40))]).astype(np.float64)
        y = np.random.default_rng(1).integers(0, 2, n)
        d = X.shape[1]
        params = ForestParams(n_trees=1, max_features=d, min_samples_split=2, bootstrap=bootstrap, seed=4)
        cpu_mask(1)
        widest = max(_splits_per_level(train_forest(X, y, params).trees[0]))
        assert 2 * widest * (2 * d - 1) > np.iinfo(np.uint16).max
        _assert_matches_slots(X, y, params)
