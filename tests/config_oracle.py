"""The `coalsim` config schema as pydantic models: the oracle that
`tests/test_config_schema.py` checks `cli`'s table-driven validator against.

These are the models `cli` validated with before it dropped pydantic, with
their fields, bounds and validators unchanged; the `build` and `require`
methods they carried are `cli` functions now.  `validate(raw)` runs them
as `coalsim experiment` ran them: the run config, and then, for a known
experiment, its params.
"""

from typing import Annotated, Any, Optional

import pydantic
from pydantic import BaseModel, ConfigDict, Field


class _Strict(BaseModel):
    model_config = ConfigDict(extra="forbid")


PosInt = Annotated[int, Field(ge=1)]
PosFloat = Annotated[float, Field(gt=0.0)]


class PieceConfig(_Strict):
    interval: tuple[float, float]
    tag: str
    # numbers, or a list of numbers (the polynomial piece's coefficients)
    params: dict[str, float | list[float]] = Field(default_factory=dict)


class MeasureConfig(_Strict):
    atoms: list[tuple[float, float]] = Field(default_factory=list)
    pieces: list[PieceConfig] = Field(default_factory=list)


class WalkConfig(_Strict):
    dimension: int = 3
    offsets: Optional[list[list[int]]] = None
    probabilities: Optional[list[float]] = None


class GeographyConfig(_Strict):
    topology: str  # torus | complete | single | graph
    N: Optional[int] = None
    walk: WalkConfig = Field(default_factory=WalkConfig)
    sites: Optional[int] = None
    kernel: Optional[list[list[float]]] = None


class ExperimentConfig(_Strict):
    name: str
    params: dict[str, Any] = Field(default_factory=dict)


class RunConfig(_Strict):
    seed: int
    measure: Optional[MeasureConfig] = None
    geography: Optional[GeographyConfig] = None
    experiment: Optional[ExperimentConfig] = None
    replicas: Optional[PosInt] = None
    out_dir: Optional[str] = None
    event_budget: Optional[PosInt] = None
    # simulate- and block_count-specific
    n_per_site: Optional[PosInt] = None
    horizon: Optional[float] = None
    stop_blocks_at_most: Optional[int] = None
    killing: bool = False
    probe_times: list[float] = Field(default_factory=list)
    # rates-specific
    b_max_table: Optional[Annotated[int, Field(ge=2)]] = None
    # green-specific
    dimension: Optional[PosInt] = None


class HittingTimeParams(_Strict):
    n: int = Field(ge=2)
    k: int = Field(2, ge=2)


class TrendParams(_Strict):
    n_grid: list[PosInt] = Field(min_length=2)
    t_probe: PosFloat | list[PosFloat] = 0.5

    @pydantic.field_validator("n_grid")
    @classmethod
    def _distinct(cls, n_grid):
        # the growth exponent is a fit over the distinct sizes
        if len(set(n_grid)) != len(n_grid):
            raise ValueError("n_grid values must be distinct")
        return n_grid


class PairwiseParams(_Strict):
    separation: Optional[list[int]] = None
    kappa_value: Optional[PosFloat] = None


class BlockCountParams(_Strict):
    times: list[PosFloat] = Field(default_factory=lambda: [0.5, 1.0],
                                  min_length=1)
    kappa_value: Optional[PosFloat] = None

    @pydantic.field_validator("times")
    @classmethod
    def _increasing(cls, times):
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("times must increase")
        return times


class StructureParams(_Strict):
    n_blocks: int = Field(ge=2)
    kappa_value: Optional[PosFloat] = None


class CouplingParams(_Strict):
    class_split: list[list[PosInt]] = Field(min_length=1)
    t: PosFloat = 1.0

    @pydantic.model_validator(mode="after")
    def _is_a_class_split(self):
        elems = sorted(set().union(*map(set, self.class_split)))
        if elems != list(range(1, len(elems) + 1)):
            raise ValueError("class_split must cover 1..n")
        if sum(len(set(c)) for c in self.class_split) != len(elems):
            raise ValueError("class_split classes must not share an element")
        return self


class DecayShapeParams(_Strict):
    N_values: list[PosInt] = Field(min_length=1)
    t_grid: list[PosFloat] = Field(min_length=1)


PARAMS = {
    "hitting_time": HittingTimeParams,
    "trend": TrendParams,
    "pairwise": PairwiseParams,
    "block_count": BlockCountParams,
    "structure": StructureParams,
    "coupling": CouplingParams,
    "decay_shape": DecayShapeParams,
    "kappa": _Strict,
}


def _errors(e: pydantic.ValidationError, *prefix):
    return [(".".join(map(str, (*prefix, *err["loc"]))), err["msg"])
            for err in e.errors()]


def validate(raw):
    """(config dump, params dump, errors) for `raw`.  The errors are the
    (dotted path, message) pairs of the stage that rejected it, with
    pydantic's union-member segments (such as `float`) as they come; the
    params dump is None where no params model runs."""
    try:
        cfg = RunConfig.model_validate(raw)
    except pydantic.ValidationError as e:
        return None, None, _errors(e)
    model = PARAMS.get(cfg.experiment.name) if cfg.experiment else None
    if model is None:
        return cfg.model_dump(mode="json"), None, []
    try:
        params = model.model_validate(cfg.experiment.params)
    except pydantic.ValidationError as e:
        return None, None, _errors(e, "experiment", "params")
    return cfg.model_dump(mode="json"), params.model_dump(mode="json"), []
