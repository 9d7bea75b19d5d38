"""Uniform fit/predict facade over the model zoo.

Every learner trains from a Dataset and returns a TrainedModel that
predicts on a design matrix of the same layout, its predictions depending
only on (parameters, input). Scale-sensitive kinds (least squares, logistic,
the MLP, KNN) get the continuous block standardized by a scaler fit on the
training rows; tree-based kinds see raw features. Models serialize to a versioned JSON document.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ..core import Dataset, FarecastError
from ..features import CONTINUOUS_NAMES, FeatureMismatch, Standardizer, set_route_dummies
from ..util import (NOT_SAVED, derive_seed, from_jsonable, malformed_document, require_keys,
                    to_jsonable)
from .boosting import AdaBoostClassifier, AdaBoostRegressor
from .forest import RandomForest
from .knn import Knn
from .linear import LeastSquares, Logistic
from .mlp import Mlp3
from .tree import Cart, distinct_rows

logger = logging.getLogger(__name__)

KINDS = (
    "least_squares",
    "logistic",
    "mlp3",
    "cart",
    "adaboost_cart",
    "random_forest",
    "knn",
    "uniform_blend",
)
TASKS = ("regression", "classification")
_STANDARDIZED = {"least_squares", "logistic", "mlp3", "knn"}

MODEL_FORMAT = "farecast-model"
MODEL_VERSION = 1


class IncompatibleSpec(FarecastError):
    pass


class DegenerateData(FarecastError):
    pass


class WrongMemberCount(FarecastError):
    pass


@dataclass(frozen=True)
class LearnerSpec:
    kind: str
    task: str
    hyperparams: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise IncompatibleSpec(f"unknown learner kind {self.kind!r}")
        if self.task not in TASKS:
            raise IncompatibleSpec(f"unknown task {self.task!r}")
        if self.kind == "least_squares" and self.task != "regression":
            raise IncompatibleSpec("least_squares is regression-only")
        if self.kind == "logistic" and self.task != "classification":
            raise IncompatibleSpec("logistic is classification-only")
        if not isinstance(self.hyperparams, dict):
            raise IncompatibleSpec(f"hyperparams must be a JSON object, got {self.hyperparams!r}")


@dataclass
class TrainedModel:
    spec: LearnerSpec
    parameters: dict  # n_features, standardizer (or None), core payload
    train_summary: dict


_HP_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,), dict: (dict,)}


def _hp(spec: LearnerSpec, name: str, default, alias: Optional[str] = None):
    """The hyperparameter ``name`` (or ``alias``), else ``default``. A value
    must have the default's JSON type: an int takes no bool, a float takes an
    int, and ``max_depth`` also takes null. A wrong type raises IncompatibleSpec."""
    key = name if name in spec.hyperparams else alias
    if key not in spec.hyperparams:
        return default
    value = spec.hyperparams[key]
    types = (int, type(None)) if name == "max_depth" else _HP_TYPES[type(default)]
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        raise IncompatibleSpec(f"{spec.kind} hyperparameter {key!r} must be of type "
                               f"{' or '.join(t.__name__ for t in types)}, got {value!r}")
    return value


def _design(spec: LearnerSpec, train: Dataset):
    """(X, y, standardizer, n_features); n_features counts the columns before
    the standardizer drops any, as the model's input rows carry them."""
    X = train.X
    n_features = X.shape[1]
    if spec.task == "classification":
        y = train.label_class
        if len(np.unique(y)) < 2:
            raise DegenerateData("classification training data has a single class")
    else:
        y = train.label_reg
    standardizer = None
    if spec.kind in _STANDARDIZED:
        standardizer = Standardizer.fit(X)
        X = standardizer.transform(X)
    return X, y, standardizer, n_features


def _weighted_distinct(X: np.ndarray, y: np.ndarray, min_leaf: int):
    """(X, y, sample_weight) for the tree kinds: each distinct (x, y) row once,
    column-major, weighted by its count, which weighted Gini, squared error
    and the AdaBoost update treat as that many unit-weight copies. Without a
    repeated row the inputs pass through unchanged. With ``min_leaf > 1`` they
    do too: Cart counts rows there, and a collapsed row would count once."""
    if min_leaf > 1:
        return X, y, None
    rows, counts = distinct_rows(X, y)
    if len(rows) == len(y):
        return X, y, None
    distinct = np.empty((len(rows), X.shape[1]), order="F")
    for j in range(X.shape[1]):
        distinct[:, j] = X[rows, j]
    return distinct, y[rows], counts.astype(float)


def fit(spec: LearnerSpec, train: Dataset, seed: int) -> TrainedModel:
    """Train one model; deterministic in (spec, data, seed)."""
    if len(train) == 0:
        raise DegenerateData("empty training set")
    if spec.kind == "uniform_blend":
        return _fit_blend(spec, train, seed)

    X, y, standardizer, n_features = _design(spec, train)
    summary: dict

    if spec.kind == "least_squares":
        core = LeastSquares(standardize=False).fit(X, y)
        rmse = float(np.sqrt(np.mean((core.predict(X) - y) ** 2)))
        summary = {"train_rmse": rmse}
    elif spec.kind == "logistic":
        core = Logistic(
            grad_tol=_hp(spec, "grad_tol", 1e-6),
            max_iter=_hp(spec, "max_iter", 1000),
        ).fit(X, y)
        summary = {
            "final_loss": core.loss_history[-1],
            "iterations": len(core.loss_history),
            "converged": core.converged,
        }
    elif spec.kind == "mlp3":
        epochs = _hp(spec, "epochs", 200)
        if epochs < 1:  # Mlp3 itself allows 0: a fit that only initializes
            raise IncompatibleSpec("mlp3 epochs must be >= 1")
        core = Mlp3(
            task=spec.task,
            hidden=_hp(spec, "hidden", 16),
            lr=float(_hp(spec, "lr", 0.01)),
            epochs=epochs,
            batch_size=_hp(spec, "batch_size", 32),
        ).fit(X, y, seed=seed)
        summary = {"final_loss": core.loss_history[-1], "epochs": core.epochs}
    elif spec.kind == "cart":
        min_leaf = _hp(spec, "min_leaf", 1)
        core = Cart(
            task=spec.task,
            max_depth=_hp(spec, "max_depth", 8),
            min_leaf=min_leaf,
        ).fit(*_weighted_distinct(X, y, min_leaf))
        summary = {"n_nodes": len(core.feature)}
    elif spec.kind == "adaboost_cart":
        n_rounds = _hp(spec, "n_rounds", 100, alias="T")
        weak_depth = _hp(spec, "weak_depth", 3)
        min_leaf = _hp(spec, "min_leaf", 1)
        X, y, weight = _weighted_distinct(X, y, min_leaf)
        cls = AdaBoostClassifier if spec.task == "classification" else AdaBoostRegressor
        core = cls(n_rounds=n_rounds, weak_depth=weak_depth,
                   min_leaf=min_leaf).fit(X, y, sample_weight=weight)
        # The fit diagnostics the document leaves out are the summary.
        summary = {"rounds_used": len(core.trees),
                   **{f.name: to_jsonable(getattr(core, f.name)) for f in fields(core)
                      if f.metadata == NOT_SAVED}}
    elif spec.kind == "random_forest":
        core = RandomForest(
            task=spec.task,
            n_trees=_hp(spec, "n_trees", 100, alias="B"),
            max_depth=_hp(spec, "max_depth", None),
            min_leaf=_hp(spec, "min_leaf", 1),
            bootstrap=_hp(spec, "bootstrap", "resample"),
            subsample=_hp(spec, "subsample", True),
        ).fit(X, y, seed=seed)
        summary = {"n_trees": core.n_trees}
    elif spec.kind == "knn":
        core = Knn(task=spec.task, k=_hp(spec, "k", 5)).fit(X, y)
        summary = {"n_train": len(train)}
    else:  # pragma: no cover - guarded by LearnerSpec validation
        raise IncompatibleSpec(spec.kind)

    return TrainedModel(
        spec=spec,
        parameters={"n_features": n_features, "standardizer": standardizer, "core": core},
        train_summary=summary,
    )


def _fit_blend(spec: LearnerSpec, train: Dataset, seed: int) -> TrainedModel:
    member_kind = _hp(spec, "member_kind",
                      "adaboost_cart" if spec.task == "classification" else "cart")
    member_params = _hp(spec, "member_params", {})
    width = train.X.shape[1] - len(CONTINUOUS_NAMES)
    route = train.X[:, :width].argmax(axis=1)
    missing = [r for r in range(width) if not (route == r).any()]
    if missing:
        raise DegenerateData(f"no training rows for route index(es) {missing}")

    member_spec = LearnerSpec(kind=member_kind, task=spec.task, hyperparams=member_params)
    members = [fit(member_spec, train.take(route == r), seed=derive_seed(seed, "member", r))
               for r in range(width)]
    return TrainedModel(
        spec=spec,
        parameters={"n_features": train.X.shape[1], "standardizer": None, "core": members},
        train_summary={"member_kind": member_kind,
                       "per_member": [m.train_summary for m in members]},
    )


def _core_matrix(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    if X.shape[1] != model.parameters["n_features"]:
        raise FeatureMismatch(
            f"model expects {model.parameters['n_features']} features, rows have {X.shape[1]}"
        )
    if not (X[:, :dummy_width(model)].sum(axis=1) == 1.0).all():
        raise FeatureMismatch("every row needs exactly one route dummy set")
    standardizer = model.parameters["standardizer"]
    if standardizer is not None:
        X = standardizer.transform(X)
    return X


def predict(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    """Hard labels {0,1} for classification, real values for regression, one
    per row of the design matrix ``X``."""
    if model.spec.kind == "uniform_blend":
        members = model.parameters["core"]
        if model.spec.task == "classification":
            return blend_predict(members, X)
        return np.mean([predict(m, X) for m in members], axis=0)
    return model.parameters["core"].predict(_core_matrix(model, X))


def predict_scores(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    """Classification: a score in [0,1] with 0.5 the decision point.

    Regression models return their predictions unchanged.
    """
    if model.spec.kind == "uniform_blend":  # the vote share, or the mean prediction
        return np.mean([predict(m, X) for m in model.parameters["core"]], axis=0)
    if model.spec.task == "regression":
        return predict(model, X)
    X = _core_matrix(model, X)
    core = model.parameters["core"]
    if isinstance(core, (Logistic, Mlp3, AdaBoostClassifier)):
        return core.predict_proba(X)
    if isinstance(core, Cart):
        return core.predict_value(X)
    if isinstance(core, (RandomForest, Knn)):
        return core.predict_scores(X)
    raise IncompatibleSpec(f"no score path for {model.spec.kind}")  # pragma: no cover


def dummy_width(model: TrainedModel) -> int:
    """Number of route dummies in the rows the model was trained on."""
    return model.parameters["n_features"] - len(CONTINUOUS_NAMES)


def blend_predict(members: Sequence[TrainedModel], X: np.ndarray,
                  own_dummies: bool = False) -> np.ndarray:
    """Majority vote of the per-route members: 1 iff more than half vote 1.

    There is one member per route dummy the members were trained on. With
    ``own_dummies`` each member sees the rows re-tagged with its own route's
    dummy (the no-history variant, where rows carry no meaningful route
    identity).
    """
    widths = sorted({dummy_width(m) for m in members})
    if widths != [len(members)]:
        raise WrongMemberCount(f"{len(members)} members for {widths} route dummies")
    for m in members:
        if m.spec.task != "classification":
            raise IncompatibleSpec("blend members must be classification models")
    if own_dummies:
        X = X.copy()
    votes = np.zeros(len(X))
    for r, member in enumerate(members):
        if own_dummies:
            set_route_dummies(X, r)
        votes += predict(member, X)
    return (votes > len(members) // 2).astype(int)


# -- serialization ---------------------------------------------------------

_CORE_CLASSES = {
    "least_squares": LeastSquares,
    "logistic": Logistic,
    "mlp3": Mlp3,
    "cart": Cart,
    "random_forest": RandomForest,
    "knn": Knn,
}
_DOCUMENT_KEYS = ("format", "version", "spec", "n_features", "standardizer", "core",
                  "train_summary")


def _document(model: TrainedModel) -> dict:
    core = model.parameters["core"]
    standardizer = model.parameters["standardizer"]
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "spec": model.spec,
        "n_features": model.parameters["n_features"],
        "standardizer": standardizer.to_dict() if standardizer is not None else None,
        "core": ({"members": [_document(m) for m in core]}
                 if model.spec.kind == "uniform_blend" else core),
        "train_summary": model.train_summary,
    }


def model_to_dict(model: TrainedModel) -> dict:
    return to_jsonable(_document(model))


def model_from_dict(raw: dict) -> TrainedModel:
    """Rebuild a model document; raises FarecastError unless every part has
    exactly its saved keys and each core fits the width it is fed."""
    if raw.get("format") != MODEL_FORMAT:
        raise FarecastError("not a model document")
    if raw.get("version") != MODEL_VERSION:
        raise FarecastError(f"unsupported model version {raw.get('version')!r}")
    require_keys("model document", raw, _DOCUMENT_KEYS)
    spec = from_jsonable(LearnerSpec, raw["spec"])
    n_features = raw["n_features"]
    if type(n_features) is not int or n_features <= len(CONTINUOUS_NAMES):
        raise FarecastError(f"bad n_features {n_features!r}: not an int above {len(CONTINUOUS_NAMES)}")
    standardizer = (Standardizer.from_dict(raw["standardizer"], n_features)
                    if raw["standardizer"] is not None else None)
    if spec.kind == "uniform_blend":
        require_keys("blend core", raw["core"], ("members",))
        core = [model_from_dict(m) for m in raw["core"]["members"]]
    else:
        cls = ((AdaBoostClassifier if spec.task == "classification" else AdaBoostRegressor)
               if spec.kind == "adaboost_cart" else _CORE_CLASSES[spec.kind])
        n_inputs = n_features if standardizer is None else int(standardizer.keep.sum())
        core = cls.from_jsonable(raw["core"], n_inputs)
    return TrainedModel(
        spec=spec,
        parameters={"n_features": n_features, "standardizer": standardizer, "core": core},
        train_summary=dict(raw["train_summary"]),
    )


def save_model(model: TrainedModel, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, sort_keys=True)
        fh.write("\n")


def load_model(path: str | Path) -> TrainedModel:
    with open(path, "r", encoding="utf-8") as fh, malformed_document("model", path):
        return model_from_dict(json.load(fh))
