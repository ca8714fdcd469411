"""Run configuration: a merged view of config-file keys and CLI flags.

Config files are line-oriented ``key = value`` with ``#`` comments; keys
are the snake_case field names below. Flags (kebab-case) win over file
values, which win over defaults. Unknown keys are errors so typos never
pass silently.
"""

import argparse
import math
from dataclasses import dataclass, fields

from . import seeds
from .files import open_text
from .model import ModelConfig
from .scoring import ScorerTrainConfig
from .walker import MAX_BIAS, WalkConfig


class ConfigError(ValueError):
    pass


# Fields that take one of a fixed set of words, checked for flags and
# config-file values alike.
_CHOICES = {
    "precision": ("f32", "f64"),
    "init": ("dolores", "random"),
    "scorer_kind": ("translational", "bilinear"),
}

# Numeric fields with a range: (test, what the message expects). A NaN
# fails every test.
_FINITE_POSITIVE = (lambda v: v > 0 and math.isfinite(v), "a finite number > 0")
_AT_LEAST_ZERO = (lambda v: v >= 0, "an integer >= 0")
_BOUNDS = {
    "scorer_dim": (lambda v: v >= 0, "0 for the embedding width, or a positive width"),
    "lr": _FINITE_POSITIVE,
    "scorer_lr": _FINITE_POSITIVE,
    "clip": _FINITE_POSITIVE,
    "checkpoint_interval": _AT_LEAST_ZERO,
    "seed": _AT_LEAST_ZERO,
}

# The stage configs check the remaining bounds. Each stage message starts
# with the stage's field name; these map the names a stage checks under
# another name to the RunConfig field a user sets.
_STAGE_FIELDS = {
    "model_config": {
        "num_layers": "layers",
        "hidden_units": "hidden",
        "proj_dim": "proj",
        "clip_lo": "clip",
        "batch_size": "batch",
    },
    "walk_config": {},
    "scorer_config": {"epochs": "scorer_epochs"},
}


@dataclass
class RunConfig:
    # paths
    train: str = None
    valid: str = None
    test: str = None
    out: str = None
    # walk stage
    p: float = 1.0
    q: float = 1.0
    walks_per_node: int = 20
    walk_length: int = 21
    # sequence model
    layers: int = 4
    hidden: int = 512
    proj: int = 32
    entity_dim: int = 32
    relation_dim: int = 32
    clip: float = 3.0
    dropout: float = 0.1
    residual: bool = True
    batch: int = 1024
    epochs: int = 200
    lr: float = 1e-3
    precision: str = "f32"
    checkpoint_interval: int = 0
    # scorer training / evaluation
    init: str = "dolores"
    scorer_kind: str = "bilinear"
    scorer_dim: int = 0
    scorer_epochs: int = 100
    scorer_lr: float = 0.01
    margin: float = 1.0
    negatives: int = 1
    # global
    seed: int = seeds.DEFAULT_SEED
    threads: int = 1

    def __post_init__(self):
        for key, allowed in _CHOICES.items():
            if getattr(self, key) not in allowed:
                raise ConfigError(
                    f"bad value for {key}: {getattr(self, key)!r} (expected one of: {', '.join(allowed)})"
                )
        for key, (ok, expected) in _BOUNDS.items():
            if not ok(getattr(self, key)):
                raise ConfigError(f"bad value for {key}: {getattr(self, key)!r} (expected {expected})")
        # every stage's bounds at parse time, so ingest rejects a value
        # that only a later stage reads
        for build, renamed in _STAGE_FIELDS.items():
            try:
                getattr(self, build)()
            except ValueError as exc:
                stage_field = str(exc).split(" ", 1)[0]
                key = renamed.get(stage_field, stage_field)
                raise ConfigError(f"bad value for {key}: {getattr(self, key)!r} ({exc})") from None

    def require(self, *names):
        for name in names:
            if getattr(self, name) is None:
                raise ConfigError(f"missing required field: {name}")

    def model_config(self):
        return ModelConfig(
            num_layers=self.layers,
            hidden_units=self.hidden,
            proj_dim=self.proj,
            entity_dim=self.entity_dim,
            relation_dim=self.relation_dim,
            clip_lo=-self.clip,
            clip_hi=self.clip,
            dropout=self.dropout,
            residual=self.residual,
            batch_size=self.batch,
            learning_rate=self.lr,
            epochs=self.epochs,
            seed=self.seed,
            precision=self.precision,
        )

    def walk_config(self):
        return WalkConfig(
            p=self.p,
            q=self.q,
            walks_per_node=self.walks_per_node,
            walk_length=self.walk_length,
            seed=self.seed,
        )

    def scorer_config(self):
        return ScorerTrainConfig(
            epochs=self.scorer_epochs,
            lr=self.scorer_lr,
            margin=self.margin,
            negatives=self.negatives,
            seed=self.seed,
        )


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(key, raw):
    ftype = _FIELD_TYPES[key]
    raw = raw.strip()
    try:
        if ftype is bool:
            low = raw.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        if ftype is int:
            return int(raw)
        if ftype is float:
            return float(raw)
    except ValueError:
        raise ConfigError(f"bad value for {key}: {raw!r}") from None
    return raw


def read_config_file(path):
    """Parse ``key = value`` lines into a dict, rejecting unknown keys and
    bytes that are not UTF-8 with the path and line."""
    values = {}
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _FIELD_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _parse_value(key, val)
    return values


# Help strings and metavars; every other flag takes argparse's defaults.
_FLAG_HELP = {
    "train": {"metavar": "PATH"},
    "valid": {"metavar": "PATH"},
    "test": {"metavar": "PATH"},
    "out": {"metavar": "DIR"},
    "p": {"help": f"walk return parameter, in [1/{MAX_BIAS:g}, {MAX_BIAS:g}]"},
    "q": {"help": f"walk in-out parameter, in [1/{MAX_BIAS:g}, {MAX_BIAS:g}]"},
    "clip": {"help": "projection clip half-range"},
    "init": {"help": "scorer embedding init: learned contextual table or random"},
    "negatives": {"help": "corruptions per positive"},
    "threads": {"help": "ignored: no stage reads it; kept so existing command lines still parse"},
}


def add_flags(parser):
    """Register every RunConfig field as a flag with a None default, so
    only flags the user actually passed override file values."""
    g = parser.add_argument_group("configuration")
    g.add_argument("--config", default=None, metavar="FILE", help="key = value config file")
    for name, ftype in _FIELD_TYPES.items():
        kwargs = dict(_FLAG_HELP.get(name, {}), default=None)
        if ftype is bool:
            kwargs["action"] = argparse.BooleanOptionalAction
        else:
            kwargs["type"] = ftype
        if name in _CHOICES:
            kwargs["choices"] = _CHOICES[name]
        g.add_argument("--" + name.replace("_", "-"), **kwargs)
    return parser


def merge(namespace):
    """defaults < config file < explicit flags."""
    values = {}
    if namespace.config:
        values.update(read_config_file(namespace.config))
    for f in fields(RunConfig):
        flag_val = getattr(namespace, f.name, None)
        if flag_val is not None:
            values[f.name] = flag_val
    return RunConfig(**values)
