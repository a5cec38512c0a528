"""Differential tests: every classifier's ``predict_batch`` must be
element-wise identical to its scalar ``predict`` — per-row and whole
matrix — across seeded random inputs and degenerate shapes (N=0, N=1,
duplicate rows).  This is the contract the serving layer's vectorized
path stands on."""

import numpy as np
import pytest

from repro.core.training import train_model
from repro.ml import (
    SVC,
    GradientBoostingClassifier,
    KNeighborsClassifier,
    RandomForestClassifier,
)
from repro.ml.model_selection import GridSearchCV
from repro.ml.tree import DecisionTreeClassifier, PackedTrees

N_FEATURES = 6


def _make_data(seed, n=120, classes=4):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, N_FEATURES))
    y = np.array([f"algo_{i}" for i in rng.integers(0, classes, n)])
    return X, y


def _fitted(family, seed=0):
    X, y = _make_data(seed)
    model = {
        "rf": lambda: RandomForestClassifier(n_estimators=20,
                                             random_state=seed),
        "gb": lambda: GradientBoostingClassifier(n_estimators=10,
                                                 max_depth=2,
                                                 random_state=seed),
        "knn": lambda: KNeighborsClassifier(n_neighbors=3),
        "svm": lambda: SVC(random_state=seed),
    }[family]()
    return model.fit(X, y)


FAMILIES = ("rf", "gb", "knn", "svm")


@pytest.mark.parametrize("family", FAMILIES)
class TestBatchScalarAgreement:
    def test_random_matrices(self, family):
        model = _fitted(family)
        for seed in range(3):
            X = np.random.default_rng(100 + seed).normal(
                size=(57, N_FEATURES))
            batch = model.predict_batch(X)
            assert np.array_equal(batch, model.predict(X))
            scalar = np.array([model.predict(row[None, :])[0]
                               for row in X])
            assert np.array_equal(batch, scalar)

    def test_empty_batch(self, family):
        model = _fitted(family)
        out = model.predict_batch(np.empty((0, N_FEATURES)))
        assert len(out) == 0

    def test_single_row(self, family):
        model = _fitted(family)
        X = np.random.default_rng(7).normal(size=(1, N_FEATURES))
        assert np.array_equal(model.predict_batch(X), model.predict(X))

    def test_duplicate_rows(self, family):
        model = _fitted(family)
        row = np.random.default_rng(8).normal(size=(1, N_FEATURES))
        X = np.repeat(row, 5, axis=0)
        out = model.predict_batch(X)
        assert len(set(out.tolist())) == 1
        assert np.array_equal(out, model.predict(X))

    def test_unfitted_raises(self, family):
        model = {
            "rf": RandomForestClassifier, "gb": GradientBoostingClassifier,
            "knn": KNeighborsClassifier, "svm": SVC,
        }[family]()
        with pytest.raises(RuntimeError):
            model.predict_batch(np.zeros((2, N_FEATURES)))


class TestEnsembleInternals:
    def test_forest_proba_bit_identical(self):
        model = _fitted("rf")
        X = np.random.default_rng(9).normal(size=(31, N_FEATURES))
        assert np.array_equal(model.predict_proba_batch(X),
                              model.predict_proba(X))

    def test_boosting_scores_bit_identical(self):
        model = _fitted("gb")
        X = np.random.default_rng(10).normal(size=(31, N_FEATURES))
        assert np.array_equal(model.decision_function_batch(X),
                              model.decision_function(X))

    def test_packed_arena_matches_per_tree_apply(self):
        model = _fitted("rf")
        X = np.random.default_rng(11).normal(size=(23, N_FEATURES))
        packed = PackedTrees(model.estimators_)
        leaves = packed.apply(X)
        assert leaves.shape == (len(X), len(model.estimators_))
        for t, tree in enumerate(model.estimators_):
            assert np.array_equal(leaves[:, t] - packed.roots_[t],
                                  tree.apply(X))

    def test_packed_mixed_depths_match_per_tree(self):
        """Single-leaf roots, stumps and deeper trees share one
        traversal; leaves and the tree-order value mean must equal
        per-tree descent bit for bit (small and cell-deduped batches)."""
        X, y = _make_data(3)
        trees = [DecisionTreeClassifier(max_depth=d, max_features=2,
                                        random_state=i).fit(X, y)
                 for i, d in enumerate((1, 0, 3, 1, None, 0, 2))]
        assert [t.feature_[0] == -1 for t in trees].count(True) == 2
        packed = PackedTrees(trees)
        rng = np.random.default_rng(5)
        for n in (1, 40, 300):
            Xq = np.round(rng.normal(size=(n, N_FEATURES)), 1)
            leaves = packed.apply(Xq)
            expected = np.zeros((n, trees[0].values_.shape[1]))
            for t, tree in enumerate(trees):
                assert np.array_equal(leaves[:, t] - packed.roots_[t],
                                      tree.apply(Xq))
                expected += tree.values_[tree.apply(Xq)]
            assert np.array_equal(packed.mean_values(Xq),
                                  expected / len(trees))

    def test_packed_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError):
            PackedTrees([])
        a = _fitted("rf").estimators_[0]
        X, y = _make_data(0)
        other = RandomForestClassifier(n_estimators=1, random_state=0)
        other.fit(X[:, :4], y)
        with pytest.raises(ValueError):
            PackedTrees([a, other.estimators_[0]])

    def test_packed_cache_invalidated_by_refit(self):
        model = _fitted("rf")
        X = np.random.default_rng(12).normal(size=(5, N_FEATURES))
        model.predict_batch(X)  # builds the arena
        assert model._packed_ is not None
        X2, y2 = _make_data(99)
        model.fit(X2, y2)
        assert model._packed_ is None
        assert np.array_equal(model.predict_batch(X),
                              model.predict(X))

    def test_packed_shape_validation(self):
        model = _fitted("rf")
        with pytest.raises(ValueError):
            model.predict_batch(np.zeros((3, N_FEATURES + 1)))
        with pytest.raises(ValueError):
            model.predict_batch(np.zeros(N_FEATURES))


class TestWrapperBatchPaths:
    def test_grid_search_batch(self):
        X, y = _make_data(3)
        search = GridSearchCV(
            RandomForestClassifier(n_estimators=5, random_state=0),
            {"max_depth": [2, 4]}, scoring="accuracy", cv=2)
        search.fit(X, y)
        Xt = np.random.default_rng(4).normal(size=(19, N_FEATURES))
        assert np.array_equal(search.predict_batch(Xt),
                              search.predict(Xt))

    def test_grid_search_unfitted_raises(self):
        search = GridSearchCV(
            RandomForestClassifier(n_estimators=2, random_state=0),
            {"max_depth": [2]})
        with pytest.raises(RuntimeError):
            search.predict_batch(np.zeros((1, N_FEATURES)))

    @pytest.mark.parametrize("family",
                             ("rf", "gradientboost", "knn", "svm"))
    def test_trained_model_batch(self, mini_dataset, family):
        params = {"rf": {"n_estimators": 8},
                  "gradientboost": {"n_estimators": 4}}.get(family)
        model = train_model(mini_dataset, "allgather", family=family,
                            params=params)
        sub = mini_dataset.filter(collective="allgather")
        X_full = sub.feature_matrix()
        assert np.array_equal(model.predict_batch(X_full),
                              model.predict(X_full))
