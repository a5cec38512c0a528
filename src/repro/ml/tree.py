"""CART decision trees (classifier and regressor), NumPy-vectorized.

The classifier minimizes Gini impurity (the paper's Eq. 1); the
regressor minimizes within-node variance (MSE) and is the weak learner
of gradient boosting.  Both record per-feature *impurity decrease*,
which :class:`~repro.ml.forest.RandomForestClassifier` accumulates into
the Gini feature importances of the paper's Figs. 5-6.

Trees are stored as flat arrays (feature, threshold, children, leaf
values) and built iteratively with an explicit stack; split search is
vectorized per feature via class-count prefix sums, so fitting the
paper-size dataset (~10k rows, 14 features) takes milliseconds per tree.
"""

from __future__ import annotations

import numpy as np

_LEAF = -1


class _TreeBase:
    """Shared array-based tree construction and traversal."""

    def __init__(self, max_depth: int | None = None,
                 min_samples_split: int = 2, min_samples_leaf: int = 1,
                 max_features: int | str | None = None,
                 random_state: int | None = None) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state

    # Subclass API -----------------------------------------------------
    def _node_stats(self, y: np.ndarray) -> np.ndarray:
        """Sufficient statistics of a node's targets."""
        raise NotImplementedError

    def _impurity(self, y: np.ndarray) -> float:
        raise NotImplementedError

    def _impurity_from_stats(self, stats: np.ndarray,
                             y: np.ndarray) -> float:
        """Node impurity, reusing the already-computed node statistics
        where the subclass can (hot path)."""
        return self._impurity(y)

    def _best_split_feature(self, x: np.ndarray, y: np.ndarray,
                            min_leaf: int) -> tuple[float, float]:
        """(impurity_decrease_weighted, threshold) of the best split of
        one feature column; (-inf, nan) when no valid split exists.
        The decrease is *not* normalized by the node size (caller
        weights it)."""
        raise NotImplementedError

    # Fitting -----------------------------------------------------------
    def _max_features_for(self, n_features: int) -> int:
        mf = self.max_features
        if mf is None:
            return n_features
        if mf == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if mf == "log2":
            return max(1, int(np.log2(n_features)))
        if isinstance(mf, (int, np.integer)):
            return max(1, min(int(mf), n_features))
        raise ValueError(f"invalid max_features {mf!r}")

    def _fit_arrays(self, X: np.ndarray, y: np.ndarray) -> None:
        n, d = X.shape
        rng = np.random.default_rng(self.random_state)
        k = self._max_features_for(d)
        max_depth = self.max_depth if self.max_depth is not None else 2**31

        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        values: list[np.ndarray] = []
        self.feature_importances_raw_ = np.zeros(d)

        # Stack of (sample_indices, depth, parent_slot, is_left)
        stack: list[tuple[np.ndarray, int, int, bool]] = [
            (np.arange(n), 0, -1, False)]
        while stack:
            idx, depth, parent, is_left = stack.pop()
            node_id = len(feature)
            if parent >= 0:
                if is_left:
                    left[parent] = node_id
                else:
                    right[parent] = node_id
            yi = y[idx]
            stats = self._node_stats(yi)
            values.append(stats)
            feature.append(_LEAF)
            threshold.append(np.nan)
            left.append(_LEAF)
            right.append(_LEAF)

            if (depth >= max_depth or len(idx) < self.min_samples_split
                    or self._impurity_from_stats(stats, yi) <= 1e-12):
                continue

            feats = (np.arange(d) if k == d
                     else rng.choice(d, size=k, replace=False))
            best_gain, best_feat, best_thr = 0.0, -1, np.nan
            for f in feats:
                gain, thr = self._best_split_feature(
                    X[idx, f], yi, self.min_samples_leaf)
                if gain > best_gain + 1e-15:
                    best_gain, best_feat, best_thr = gain, int(f), thr
            if best_feat < 0:
                continue

            mask = X[idx, best_feat] <= best_thr
            n_left = int(mask.sum())
            if n_left < self.min_samples_leaf or \
                    len(idx) - n_left < self.min_samples_leaf:
                continue

            feature[node_id] = best_feat
            threshold[node_id] = best_thr
            self.feature_importances_raw_[best_feat] += best_gain
            stack.append((idx[~mask], depth + 1, node_id, False))
            stack.append((idx[mask], depth + 1, node_id, True))

        self.feature_ = np.asarray(feature, dtype=np.int64)
        self.threshold_ = np.asarray(threshold)
        self.left_ = np.asarray(left, dtype=np.int64)
        self.right_ = np.asarray(right, dtype=np.int64)
        self.values_ = np.vstack(values)
        self.n_features_in_ = d

    def _check_fitted(self) -> None:
        if not hasattr(self, "feature_"):
            raise RuntimeError(f"{type(self).__name__} is not fitted")

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index for every row of X (vectorized descent)."""
        self._check_fitted()
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"expected (n, {self.n_features_in_}) input, "
                f"got {X.shape}")
        node = np.zeros(len(X), dtype=np.int64)
        # Track only rows still descending: the working set shrinks as
        # rows reach leaves instead of rescanning every row per level.
        rows = np.flatnonzero(self.feature_[node] != _LEAF)
        while len(rows):
            cur = node[rows]
            go_left = (X[rows, self.feature_[cur]]
                       <= self.threshold_[cur])
            nxt = np.where(go_left, self.left_[cur], self.right_[cur])
            node[rows] = nxt
            rows = rows[self.feature_[nxt] != _LEAF]
        return node

    @property
    def node_count(self) -> int:
        self._check_fitted()
        return len(self.feature_)

    @property
    def depth(self) -> int:
        """Maximum root-to-leaf depth of the fitted tree."""
        self._check_fitted()
        depths = np.zeros(self.node_count, dtype=np.int64)
        for node in range(self.node_count):  # parents precede children
            if self.feature_[node] != _LEAF:
                depths[self.left_[node]] = depths[node] + 1
                depths[self.right_[node]] = depths[node] + 1
        return int(depths.max(initial=0))


class PackedTrees:
    """Many fitted trees concatenated into one flat node arena.

    Packing concatenates every tree's node arrays (child indices
    shifted by the tree's offset) into one address space, so a single
    ``values_`` matrix serves the whole ensemble and every descent
    speaks arena indices.  This is the batch hot path of
    :meth:`RandomForestClassifier.predict_batch` and
    :meth:`GradientBoostingClassifier.decision_function_batch`.

    Traversal is organized around what the ensembles this framework
    trains actually look like (shallow, stump-heavy): every tree takes
    a slab-wise root step grouped by root feature (which resolves
    stumps and single-leaf trees outright), the deeper trees then walk
    jointly through one flat (tree, row) lane pool, and
    :meth:`mean_values` deduplicates large batches by threshold cell
    before descending at all.  Every lane
    still performs the same ``X[row, feature] <= threshold`` float64
    comparison as :meth:`_TreeBase.apply`, so leaf assignments are
    bit-identical to per-tree descent; :meth:`mean_values` accumulates
    in tree order, so ensemble probabilities are bit-identical to the
    scalar loop.
    """

    def __init__(self, trees: list) -> None:
        if not trees:
            raise ValueError("cannot pack an empty tree list")
        widths = {t.values_.shape[1] for t in trees}
        n_features = {t.n_features_in_ for t in trees}
        if len(widths) != 1 or len(n_features) != 1:
            raise ValueError("trees disagree on value width or "
                             "feature count")
        self.n_trees = len(trees)
        self.n_features_in_ = trees[0].n_features_in_
        roots = []
        feature, threshold, left, right, values = [], [], [], [], []
        offset = 0
        for tree in trees:
            roots.append(offset)
            feature.append(tree.feature_)
            threshold.append(tree.threshold_)
            # Shift child pointers of inner nodes into the arena;
            # leaves keep _LEAF (their children are never read).
            inner = tree.feature_ != _LEAF
            lt, rt = tree.left_.copy(), tree.right_.copy()
            lt[inner] += offset
            rt[inner] += offset
            left.append(lt)
            right.append(rt)
            values.append(tree.values_)
            offset += len(tree.feature_)
        self.roots_ = np.asarray(roots, dtype=np.int64)
        self.feature_ = np.concatenate(feature)
        self.threshold_ = np.concatenate(threshold)
        self.left_ = np.concatenate(left)
        self.right_ = np.concatenate(right)
        self.values_ = np.vstack(values)
        # Every tree takes one slab-wise root step, then the deeper
        # ones walk on jointly (one flat lane pool).  Ordering trees by
        # root feature makes each root step write a contiguous slab of
        # the lane matrix; a single-leaf root joins the slab of feature
        # 0 with both branches pointing at itself, so its lane starts
        # (and stays) on its leaf.
        root_feat = self.feature_[self.roots_]
        leaf_root = root_feat == _LEAF
        step_feat = np.where(leaf_root, 0, root_feat)
        order = np.argsort(step_feat, kind="stable")
        #: Lane-matrix row of each tree.
        self._lane_of = np.empty(self.n_trees, dtype=np.int64)
        self._lane_of[order] = np.arange(self.n_trees)
        step_left = np.where(leaf_root, self.roots_,
                             self.left_[self.roots_])
        step_right = np.where(leaf_root, self.roots_,
                              self.right_[self.roots_])
        self._root_steps = []
        sorted_feat = step_feat[order]
        start = 0
        for f in np.unique(sorted_feat):
            cnt = int((sorted_feat == f).sum())
            sl = slice(start, start + cnt)
            tidx = order[sl]
            self._root_steps.append(
                (int(f), sl,
                 self.threshold_[self.roots_[tidx]][:, None],
                 step_left[tidx][:, None],
                 step_right[tidx][:, None]))
            start += cnt
        # Per-feature sorted threshold sets: rows whose every
        # ``x <= thr`` compare agrees land in identical leaves in every
        # tree, so mean_values dedups rows by threshold cell.  Horner
        # cell codes need the digit-size product to fit int64;
        # pathological forests disable the dedup instead of risking
        # overflow.
        self._feat_thresholds = [
            np.unique(self.threshold_[self.feature_ == f])
            for f in range(self.n_features_in_)]
        n_cells = 1
        for thr in self._feat_thresholds:
            n_cells *= len(thr) + 1
        self._cell_dedup = n_cells <= (1 << 62)

    def _check(self, X: np.ndarray) -> np.ndarray:
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"expected (n, {self.n_features_in_}) input, "
                f"got {X.shape}")
        return X

    def _leaf_lanes(self, Xc: np.ndarray, Xt: np.ndarray) -> np.ndarray:
        """Arena leaf index of every (tree, row) lane: shape
        ``(n_trees, len(Xc))``, in root-step order (tree ``t`` is row
        ``_lane_of[t]``).

        Trees sharing a root feature take their root step together:
        one ``(n_trees_f, n_rows)`` compare-and-select per distinct
        feature.  Then all still-internal lanes form one flat pool, so
        the loop runs max-depth iterations over a shrinking pool
        instead of a Python-level descent per tree.  Every lane
        performs the same ``X[row, feature] <= threshold`` float64
        compare as :meth:`_TreeBase.apply`, so leaf assignments are
        bit-identical to per-tree descent.
        """
        n = Xc.shape[0]
        feature, threshold = self.feature_, self.threshold_
        left, right = self.left_, self.right_
        lanes = np.empty((self.n_trees, n), dtype=np.int64)
        for f, sl, thr, lt, rt in self._root_steps:
            lanes[sl] = np.where(Xt[f][None, :] <= thr, lt, rt)
        flat = lanes.ravel()  # view: writes land in `lanes`
        act = np.flatnonzero(feature[flat] != _LEAF)
        while len(act):
            cur = flat[act]
            go_left = Xc[act % n, feature[cur]] <= threshold[cur]
            nxt = np.where(go_left, left[cur], right[cur])
            flat[act] = nxt
            act = act[feature[nxt] != _LEAF]
        return lanes

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Arena leaf index of every (row, tree) pair: shape
        ``(len(X), n_trees)``."""
        Xc = self._check(X)
        lanes = self._leaf_lanes(Xc, np.ascontiguousarray(Xc.T))
        return lanes.T[:, self._lane_of]

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """Per-(row, tree) leaf value rows: ``(len(X), n_trees, V)``."""
        return self.values_[self.apply(X)]

    def _cell_codes(self, Xc: np.ndarray) -> np.ndarray:
        """Threshold-cell id per row (Horner over per-feature digits).

        Two rows share a code iff ``x <= thr`` agrees between them for
        every threshold the ensemble compares that feature against —
        which makes their descents, leaves, and value sums *provably
        identical*, not merely close.
        """
        codes = np.zeros(len(Xc), dtype=np.int64)
        for f, thr in enumerate(self._feat_thresholds):
            if len(thr):
                codes *= len(thr) + 1
                codes += np.searchsorted(thr, Xc[:, f], side="left")
        return codes

    def mean_values(self, X: np.ndarray) -> np.ndarray:
        """Per-row mean of the leaf-value rows across the ensemble:
        ``(len(X), V)``.  The accumulation runs in tree order (t = 0,
        1, ...) so the float result is bit-identical to the scalar
        per-tree loop.  The ``(n, T, V)`` value cube is never
        materialized — each value column accumulates through a
        contiguous 1-D gather of the tree's leaf array.

        Large batches are deduplicated by threshold cell first (see
        :meth:`_cell_codes`): the ensemble runs once per *distinct*
        cell and the result rows are scattered back — same floats,
        because every member of a cell takes identical descents.
        """
        Xc = self._check(X)
        if self._cell_dedup and len(Xc) > 64:
            _, rep, inverse = np.unique(
                self._cell_codes(Xc), return_index=True,
                return_inverse=True)
            if len(rep) * 2 <= len(Xc):
                return self._mean_values_all(Xc[rep])[inverse]
        return self._mean_values_all(Xc)

    def _mean_values_all(self, Xc: np.ndarray) -> np.ndarray:
        Xt = np.ascontiguousarray(Xc.T)
        values = self.values_
        n_values = values.shape[1]
        vcols = [np.ascontiguousarray(values[:, j])
                 for j in range(n_values)]
        out = np.zeros((len(Xc), n_values))
        ocols = [out[:, j] for j in range(n_values)]
        lanes = self._leaf_lanes(Xc, Xt)
        for t in range(self.n_trees):
            node = lanes[self._lane_of[t]]
            for j in range(n_values):
                ocols[j] += vcols[j][node]
        return out / self.n_trees


def _gini_from_counts(counts: np.ndarray) -> np.ndarray:
    """Gini impurity per row of a class-count matrix (paper Eq. 1).

    Hot path (hundreds of thousands of calls per forest fit): guarded
    by clamping instead of an ``np.errstate`` context, which profiling
    showed dominated the per-call cost.
    """
    totals = counts.sum(axis=-1, keepdims=True)
    p = counts / np.maximum(totals, 1e-300)
    g = 1.0 - np.einsum("...i,...i->...", p, p)
    return np.where(totals[..., 0] > 0, g, 0.0)


class DecisionTreeClassifier(_TreeBase):
    """CART classifier minimizing Gini impurity."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if X.ndim != 2 or len(X) != len(y):
            raise ValueError("X must be 2-D with one label per row")
        if len(X) == 0:
            raise ValueError("cannot fit on an empty dataset")
        self.classes_, y_enc = np.unique(y, return_inverse=True)
        self._n_classes = len(self.classes_)
        self._fit_arrays(X, y_enc)
        # Normalized importances.
        total = self.feature_importances_raw_.sum()
        self.feature_importances_ = (
            self.feature_importances_raw_ / total if total > 0
            else np.zeros_like(self.feature_importances_raw_))
        return self

    # -- subclass hooks --------------------------------------------------
    def _node_stats(self, y: np.ndarray) -> np.ndarray:
        counts = np.bincount(y, minlength=self._n_classes).astype(float)
        return counts / counts.sum()

    def _impurity(self, y: np.ndarray) -> float:
        counts = np.bincount(y, minlength=self._n_classes).astype(float)
        return float(_gini_from_counts(counts))

    def _impurity_from_stats(self, stats: np.ndarray,
                             y: np.ndarray) -> float:
        # stats are the node's class probabilities.
        return float(1.0 - np.dot(stats, stats))

    def _best_split_feature(self, x: np.ndarray, y: np.ndarray,
                            min_leaf: int) -> tuple[float, float]:
        order = np.argsort(x, kind="stable")
        xs, ys = x[order], y[order]
        n = len(xs)
        # One-hot prefix sums -> class counts left of each split.
        onehot = np.zeros((n, self._n_classes))
        onehot[np.arange(n), ys] = 1.0
        left_counts = np.cumsum(onehot, axis=0)[:-1]  # split after i
        total = left_counts[-1] + onehot[-1]
        right_counts = total - left_counts
        n_left = np.arange(1, n)
        n_right = n - n_left
        # Valid split positions: feature value changes & leaf sizes ok.
        valid = (xs[1:] != xs[:-1]) & (n_left >= min_leaf) & \
            (n_right >= min_leaf)
        if not np.any(valid):
            return -np.inf, np.nan
        g_parent = _gini_from_counts(total[None, :])[0]
        g_left = _gini_from_counts(left_counts)
        g_right = _gini_from_counts(right_counts)
        child = (n_left * g_left + n_right * g_right) / n
        gain = (g_parent - child) * n  # weighted decrease
        gain[~valid] = -np.inf
        best = int(np.argmax(gain))
        thr = 0.5 * (xs[best] + xs[best + 1])
        return float(gain[best]), float(thr)

    # -- prediction --------------------------------------------------------
    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        leaves = self.apply(X)
        return self.values_[leaves]

    def predict(self, X: np.ndarray) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        return float(np.mean(self.predict(X) == np.asarray(y)))


class DecisionTreeRegressor(_TreeBase):
    """CART regressor minimizing within-node variance (MSE)."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or len(X) != len(y):
            raise ValueError("X must be 2-D with one target per row")
        if len(X) == 0:
            raise ValueError("cannot fit on an empty dataset")
        self._fit_arrays(X, y)
        return self

    def _node_stats(self, y: np.ndarray) -> np.ndarray:
        return np.array([y.mean()])

    def _impurity(self, y: np.ndarray) -> float:
        return float(y.var())

    def _best_split_feature(self, x: np.ndarray, y: np.ndarray,
                            min_leaf: int) -> tuple[float, float]:
        order = np.argsort(x, kind="stable")
        xs, ys = x[order], y[order]
        n = len(xs)
        csum = np.cumsum(ys)[:-1]
        csum2 = np.cumsum(ys * ys)[:-1]
        total, total2 = ys.sum(), (ys * ys).sum()
        n_left = np.arange(1, n)
        n_right = n - n_left
        # Sum of squared errors left/right of each split.
        sse_left = csum2 - csum**2 / n_left
        sse_right = (total2 - csum2) - (total - csum)**2 / n_right
        valid = (xs[1:] != xs[:-1]) & (n_left >= min_leaf) & \
            (n_right >= min_leaf)
        if not np.any(valid):
            return -np.inf, np.nan
        sse_parent = total2 - total**2 / n
        gain = sse_parent - (sse_left + sse_right)
        gain[~valid] = -np.inf
        best = int(np.argmax(gain))
        thr = 0.5 * (xs[best] + xs[best + 1])
        return float(gain[best]), float(thr)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.values_[self.apply(X), 0]
