"""The three canonical toy models behind one sequential-measurement interface."""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .. import MODEL_NAMES
from .base import (
    ALICE,
    BOB,
    BOXES,
    BranchMassError,
    History,
    InadmissibleQuery,
    InconsistentHistory,
    Model,
    Outcome,
    PAIRS,
    Plan,
    PlanStep,
    PlanTree,
    Query,
    Session,
    compile_plan,
    enumerate_histories,
    exact_distribution,
    group_histories,
    history_signature,
    load_plan,
    parse_plan,
    plan_steps,
    sample_history,
)
from .firefly import FLAVORS, FireflyModel
from .lsw import LswModel
from .seer import SeerModel


def make_model(
    name: str,
    flavor: str = "mirror",
    marginals: Mapping[str, Fraction] | None = None,
) -> Model:
    """Build a model by name; ``flavor`` applies to firefly, ``marginals`` to seer."""
    if name == "seer":
        return SeerModel(marginals)
    if name == "firefly":
        return FireflyModel(flavor)
    if name == "lsw":
        return LswModel()
    raise ValueError(f"unknown model {name!r}; pick one of {MODEL_NAMES}")
