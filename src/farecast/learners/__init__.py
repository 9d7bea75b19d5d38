"""Uniform fit/predict facade over the model zoo.

Every learner trains from a Dataset and returns a TrainedModel that
predicts on a design matrix of the same layout, its predictions depending
only on (its fitted fields, input). ``_KIND_TABLE`` declares each learner
kind once, and it is the only place a hyperparameter default lives: the
cores take every hyperparameter explicitly. ``fit`` resolves a spec's
hyperparameters against it before any work. Scale-sensitive kinds get the
continuous block standardized by a scaler fit on the training rows; the
others see raw features. Every classification core answers
``predict_scores``. Models serialize to a versioned JSON document.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ..core import Dataset, FarecastError
from ..features import CONTINUOUS_NAMES, FeatureMismatch, Standardizer, set_route_dummies
from ..util import (JSON_TYPES, NOT_SAVED, check_json_type, check_shapes, derive_seed,
                    from_jsonable, read_json, require_keys, to_jsonable, write_json)
from .boosting import AdaBoostClassifier, AdaBoostRegressor
from .forest import RandomForest
from .knn import Knn
from .linear import LeastSquares, Logistic
from .mlp import Mlp3
from .tree import DEPTH_CAP, Cart, distinct_rows

TASKS = ("regression", "classification")


@dataclass(frozen=True)
class _Kind:
    """A learner kind: its core class for each task it accepts, its
    hyperparameters with their defaults, whether its continuous block is
    standardized, its stock tuning grid, and its nested hyperparameter: the
    one whose smaller values give models read off a larger value's fit."""

    cores: dict
    hyperparams: dict
    standardized: bool = False
    grid: tuple = ({},)
    nested: Optional[str] = None


_KIND_TABLE = {
    "least_squares": _Kind({"regression": LeastSquares}, {}, True),
    "logistic": _Kind({"classification": Logistic}, {"grad_tol": 1e-6, "max_iter": 1000}, True),
    "mlp3": _Kind(dict.fromkeys(TASKS, Mlp3),
                  {"hidden": 16, "lr": 0.01, "epochs": 200, "batch_size": 32}, True,
                  tuple({"hidden": h, "lr": lr} for h in (8, 16, 32) for lr in (0.01, 0.001))),
    "cart": _Kind(dict.fromkeys(TASKS, Cart), {"max_depth": 8, "min_leaf": 1},
                  grid=tuple({"max_depth": d} for d in (3, 5, 8, 12)), nested="max_depth"),
    "adaboost_cart": _Kind({"regression": AdaBoostRegressor, "classification": AdaBoostClassifier},
                           {"n_rounds": 100, "weak_depth": 3, "min_leaf": 1},
                           grid=tuple({"n_rounds": t, "weak_depth": d}
                                      for t in (50, 100, 200) for d in (1, 2, 3)),
                           nested="n_rounds"),
    "random_forest": _Kind(dict.fromkeys(TASKS, RandomForest),
                           {"n_trees": 100, "max_depth": None, "min_leaf": 1,
                            "bootstrap": "resample", "subsample": True},
                           grid=({"n_trees": 50}, {"n_trees": 100})),
    "knn": _Kind(dict.fromkeys(TASKS, Knn), {"k": 5}, True,
                 tuple({"k": k} for k in (3, 5, 7, 11))),
    # The core is the per-route member models. A null member_kind is
    # adaboost_cart for classification and cart for regression.
    "uniform_blend": _Kind(dict.fromkeys(TASKS, list), {"member_kind": None, "member_params": {}}),
}
KINDS = tuple(_KIND_TABLE)
_ALIASES = {"T": "n_rounds", "B": "n_trees"}

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
        tasks = _KIND_TABLE[self.kind].cores
        if self.task not in tasks:
            raise IncompatibleSpec(f"{self.kind} is {', '.join(tasks)}-only")
        if not isinstance(self.hyperparams, dict):
            raise IncompatibleSpec(f"hyperparams must be a JSON object, got {self.hyperparams!r}")


@dataclass
class TrainedModel:
    spec: LearnerSpec
    n_features: int  # input columns, counted before the standardizer drops any
    standardizer: Optional[Standardizer]
    core: object  # the kind's core for its task; a blend's is its member models
    train_summary: dict


_NAMED_TYPES = {"max_depth": (int, type(None)), "member_kind": (str,)}


def _resolve(spec: LearnerSpec) -> dict:
    """The kind's default hyperparameters overridden by the spec's (``T`` and
    ``B`` name ``n_rounds`` and ``n_trees``). A value must have the default's
    JSON type: an int takes no bool, a float takes an int, ``max_depth`` also
    takes null. An unknown or repeated name, a wrong type, ``epochs`` or
    ``max_iter`` below 1, or a blend's ``member_kind`` of ``uniform_blend``
    raises IncompatibleSpec."""
    defaults = _KIND_TABLE[spec.kind].hyperparams
    resolved = dict(defaults)
    for key, value in spec.hyperparams.items():
        name = _ALIASES.get(key, key)
        if name not in defaults:
            raise IncompatibleSpec(f"{spec.kind} has no hyperparameter {key!r}; "
                                   f"it takes {', '.join(defaults) or 'none'}")
        if name != key and name in spec.hyperparams:
            raise IncompatibleSpec(f"{spec.kind} hyperparameter {name!r} is given twice, "
                                   f"once as {key!r}")
        resolved[name] = check_json_type(
            f"{spec.kind} hyperparameter {key!r}", value,
            _NAMED_TYPES.get(name) or JSON_TYPES[type(defaults[name])], IncompatibleSpec)
    for name in ("epochs", "max_iter"):  # the cores allow 0, a fit that trains nothing
        if resolved.get(name, 1) < 1:
            raise IncompatibleSpec(f"{spec.kind} {name} must be >= 1")
    if resolved.get("member_kind") == "uniform_blend":
        raise IncompatibleSpec("uniform_blend member_kind must not be uniform_blend: "
                               "a member is one route's model")
    return resolved


def _new_core(spec: LearnerSpec, hyperparams: dict):
    """The kind's core for the spec's task, built from the resolved
    hyperparameters, plus ``task`` where the class takes one."""
    cls = _KIND_TABLE[spec.kind].cores[spec.task]
    task = {"task": spec.task} if "task" in {f.name for f in fields(cls)} else {}
    return cls(**hyperparams, **task)


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
    if _KIND_TABLE[spec.kind].standardized:
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
    hyperparams = _resolve(spec)
    if len(train) == 0:
        raise DegenerateData("empty training set")
    if spec.kind == "uniform_blend":
        return _fit_blend(spec, hyperparams, train, seed)

    core = _new_core(spec, hyperparams)
    X, y, standardizer, n_features = _design(spec, train)
    if spec.kind == "least_squares":
        core.fit(X, y)
        summary = {"train_rmse": float(np.sqrt(np.mean((core.predict(X) - y) ** 2)))}
    elif spec.kind == "logistic":
        core.fit(X, y)
        summary = {"final_loss": core.loss_history[-1], "iterations": len(core.loss_history),
                   "converged": core.converged}
    elif spec.kind == "mlp3":
        core.fit(X, y, seed=seed)
        summary = {"final_loss": core.loss_history[-1], "epochs": core.epochs}
    elif spec.kind in ("cart", "adaboost_cart"):
        X, y, weight = _weighted_distinct(X, y, core.min_leaf)
        core.fit(X, y, weight)
        summary = _nested_summary(spec, core)
    elif spec.kind == "random_forest":
        core.fit(X, y, seed=seed)
        summary = {"n_trees": core.n_trees}
    else:  # knn
        core.fit(X, y)
        summary = {"n_train": len(train)}
    return TrainedModel(spec, n_features, standardizer, core, summary)


def _nested_summary(spec: LearnerSpec, core) -> dict:
    if spec.kind == "cart":
        return {"n_nodes": len(core.feature)}
    # The fit diagnostics the document leaves out are the summary.
    return {"rounds_used": len(core.trees),
            **{f.name: to_jsonable(getattr(core, f.name)) for f in fields(core)
               if f.metadata == NOT_SAVED}}


def nested_group(spec: LearnerSpec) -> tuple[Optional[tuple], int]:
    """(group, size): specs of one group differ only in their kind's nested
    hyperparameter, the size (a null ``max_depth`` is its cap). None where the
    kind nests nothing or the hyperparameters do not resolve."""
    nested = _KIND_TABLE[spec.kind].nested
    try:
        hyperparams = _resolve(spec)
    except IncompatibleSpec:
        return None, 0
    if nested is None:
        return None, 0
    size = hyperparams.pop(nested)
    group = (spec.kind, spec.task, *sorted(hyperparams.items()))
    return group, DEPTH_CAP if size is None else size


def truncated(model: TrainedModel, spec: LearnerSpec) -> Optional[TrainedModel]:
    """What ``fit`` gives for ``spec`` on ``model``'s rows, read off ``model``,
    a fit of a larger size of spec's ``nested_group``; None where a boosting
    run that collapsed to one tree dropped the rounds before it."""
    core = model.core.truncated(_resolve(spec)[_KIND_TABLE[spec.kind].nested])
    if core is None:
        return None
    return TrainedModel(spec, model.n_features, model.standardizer, core,
                        _nested_summary(spec, core))


def _fit_blend(spec: LearnerSpec, hyperparams: dict, train: Dataset, seed: int) -> TrainedModel:
    member_kind = hyperparams["member_kind"] or (
        "adaboost_cart" if spec.task == "classification" else "cart")
    width = train.X.shape[1] - len(CONTINUOUS_NAMES)
    route = train.X[:, :width].argmax(axis=1)
    missing = [r for r in range(width) if not (route == r).any()]
    if missing:
        raise DegenerateData(f"no training rows for route index(es) {missing}")

    member_spec = LearnerSpec(kind=member_kind, task=spec.task,
                              hyperparams=hyperparams["member_params"])
    members = [fit(member_spec, train.take(route == r), seed=derive_seed(seed, "member", r))
               for r in range(width)]
    return TrainedModel(spec, train.X.shape[1], None, members,
                        {"member_kind": member_kind,
                         "per_member": [m.train_summary for m in members]})


def _core_matrix(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    if X.shape[1] != model.n_features:
        raise FeatureMismatch(
            f"model expects {model.n_features} features, rows have {X.shape[1]}"
        )
    if not (X[:, :dummy_width(model)].sum(axis=1) == 1.0).all():
        raise FeatureMismatch("every row needs exactly one route dummy set")
    if model.standardizer is not None:
        X = model.standardizer.transform(X)
    return X


def predict(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    """Hard labels {0,1} for classification, real values for regression, one
    per row of the design matrix ``X``."""
    if model.spec.kind == "uniform_blend":
        if model.spec.task == "classification":
            return blend_predict(model.core, X)
        return np.mean([predict(m, X) for m in model.core], axis=0)
    return model.core.predict(_core_matrix(model, X))


def predict_scores(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    """Classification: a score in [0,1] with 0.5 the decision point.

    Regression models return their predictions unchanged.
    """
    if model.spec.kind == "uniform_blend":  # the vote share, or the mean prediction
        return np.mean([predict(m, X) for m in model.core], axis=0)
    if model.spec.task == "regression":
        return predict(model, X)
    return model.core.predict_scores(_core_matrix(model, X))


def dummy_width(model: TrainedModel) -> int:
    """Number of route dummies in the rows the model was trained on."""
    return model.n_features - len(CONTINUOUS_NAMES)


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

_DOCUMENT_KEYS = ("format", "version", *(f.name for f in fields(TrainedModel)))


def _document(model: TrainedModel) -> dict:
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "spec": model.spec,
        "n_features": model.n_features,
        "standardizer": model.standardizer,
        "core": ({"members": [_document(m) for m in model.core]}
                 if model.spec.kind == "uniform_blend" else model.core),
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
    standardizer = None
    if raw["standardizer"] is not None:
        standardizer = from_jsonable(Standardizer, raw["standardizer"])
        n = len(CONTINUOUS_NAMES)
        check_shapes(standardizer, mean=(n,), scale=(n,), keep=(n_features,))
    if spec.kind == "uniform_blend":
        require_keys("blend core", raw["core"], ("members",))
        core = [model_from_dict(m) for m in raw["core"]["members"]]
    else:
        n_inputs = n_features if standardizer is None else int(standardizer.keep.sum())
        core = _KIND_TABLE[spec.kind].cores[spec.task].from_jsonable(raw["core"], n_inputs)
        if getattr(core, "task", spec.task) != spec.task:
            raise FarecastError(f"a {spec.task} model holds a {core.task} core")
    return TrainedModel(spec, n_features, standardizer, core, dict(raw["train_summary"]))


def save_model(model: TrainedModel, path: str | Path) -> None:
    write_json(model_to_dict(model), path)


def load_model(path: str | Path) -> TrainedModel:
    return read_json(path, "model", model_from_dict)
