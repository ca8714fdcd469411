"""Run configuration: a merged view of config-file keys and CLI flags.

Config files are line-oriented ``key = value`` with ``#`` comments. Flags
(kebab-case) win over file values, which win over defaults. Unknown keys
are errors so typos never pass silently.

:class:`RunConfig` holds the run's own settings and the walk, model and
scorer configs. Each key is one field of RunConfig or of a stage config,
which declares its type and default and checks its value.
"""

from dataclasses import dataclass, fields

from . import seeds
from .files import open_text
from .model import PRECISIONS, ModelConfig
from .scoring import SCORER_KINDS, ScorerTrainConfig
from .walker import MAX_BIAS, WalkConfig


class ConfigError(ValueError):
    pass


# Keys that take one of a fixed set of words, checked for flags and
# config-file values alike.
_CHOICES = {"precision": PRECISIONS, "init": ("dolores", "random"), "scorer_kind": SCORER_KINDS}

# RunConfig's numeric fields with a range: (test, what the message
# expects). The stage configs check their own fields.
_AT_LEAST_ZERO = (lambda v: v >= 0, "an integer >= 0")
_BOUNDS = {"scorer_dim": (lambda v: v >= 0, "0 for the embedding width, or a positive width"),
           "checkpoint_interval": _AT_LEAST_ZERO, "seed": _AT_LEAST_ZERO}

# Each stage config by its RunConfig field, with the keys of the stage
# fields whose key is not the field name. Every other stage field is a
# key under its own name, except ``seed``: RunConfig's seed sets it.
_STAGES = {
    "walk": (WalkConfig, {}),
    "model": (ModelConfig, {"num_layers": "layers", "hidden_units": "hidden", "proj_dim": "proj",
                            "batch_size": "batch", "learning_rate": "lr"}),
    "scorer": (ScorerTrainConfig, {"epochs": "scorer_epochs", "lr": "scorer_lr"}),
}


def _bad(key, value, why):
    return ConfigError(f"bad value for {key}: {value!r} ({why})")


def _check(key, value):
    if key in _CHOICES and value not in _CHOICES[key]:
        raise _bad(key, value, f"expected one of: {', '.join(_CHOICES[key])}")
    if key in _BOUNDS and not _BOUNDS[key][0](value):
        raise _bad(key, value, f"expected {_BOUNDS[key][1]}")


@dataclass
class RunConfig:
    # paths
    train: str = None
    valid: str = None
    test: str = None
    out: str = None
    # stage configs; None takes the stage's defaults
    walk: WalkConfig = None
    model: ModelConfig = None
    checkpoint_interval: int = 0
    # scorer training / evaluation
    init: str = "dolores"
    scorer_kind: str = "bilinear"
    scorer_dim: int = 0
    scorer: ScorerTrainConfig = None
    # global
    seed: int = seeds.DEFAULT_SEED
    threads: int = 1

    def __post_init__(self):
        for f in fields(self):
            if f.name not in _STAGES:
                _check(f.name, getattr(self, f.name))
        # one seed for every stage
        for name, (cls, _) in _STAGES.items():
            stage = getattr(self, name)
            if stage is None:
                setattr(self, name, cls(seed=self.seed))
            elif stage.seed != self.seed:
                raise ConfigError(f"the {name} config's seed {stage.seed} is not seed {self.seed}")

    def require(self, *names):
        for name in names:
            if getattr(self, name) is None:
                raise ConfigError(f"missing required field: {name}")


def _key_table():
    keys = {}
    for f in fields(RunConfig):
        if f.name in _STAGES:
            cls, renamed = _STAGES[f.name]
            keys.update({renamed.get(sf.name, sf.name): (f.name, sf) for sf in fields(cls) if sf.name != "seed"})
        else:
            keys[f.name] = (None, f)
    return keys


# key -> (the RunConfig field of its stage config, or None; the field it sets)
_KEYS = _key_table()


def from_keys(values):
    """A RunConfig from key -> value, with defaults for the keys not
    given. A value that a check rejects raises ConfigError naming its
    key."""
    own, staged = {}, {name: {} for name in _STAGES}
    for key, value in values.items():
        _check(key, value)
        stage, f = _KEYS[key]
        (staged[stage] if stage else own)[f.name] = value
    for name, kwargs in staged.items():
        cls, renamed = _STAGES[name]
        try:
            own[name] = cls(**kwargs, seed=own.get("seed", RunConfig.seed))
        except ValueError as exc:
            # a stage's message starts with the field it rejects
            field_name = str(exc).split(" ", 1)[0]
            key = renamed.get(field_name, field_name)
            raise _bad(key, values.get(key), exc) from None
    return RunConfig(**own)


def _parse_value(key, raw):
    ftype, raw = _KEYS[key][1].type, raw.strip()
    try:
        return ftype(raw)
    except ValueError:
        raise ConfigError(f"bad value for {key}: {raw!r}") from None


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
            if key not in _KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _parse_value(key, val)
    return values


# Help strings and metavars; every other flag takes argparse's defaults.
_FLAG_HELP = {
    **{name: {"metavar": "PATH"} for name in ("train", "valid", "test")},
    "out": {"metavar": "DIR"},
    "p": {"help": f"walk return parameter, in [1/{MAX_BIAS:g}, {MAX_BIAS:g}]"},
    "q": {"help": f"walk in-out parameter, in [1/{MAX_BIAS:g}, {MAX_BIAS:g}]"},
    "init": {"help": "scorer embedding init: learned contextual table or random"},
    "threads": {"help": "ignored: kglm always runs two workers at one BLAS thread; kept so existing command "
                           "lines still parse"},
}


def add_flags(parser):
    """Register every key as a flag with a None default, so only flags
    the user actually passed override file values."""
    g = parser.add_argument_group("configuration")
    g.add_argument("--config", default=None, metavar="FILE", help="key = value config file")
    for key, (_, f) in _KEYS.items():
        g.add_argument("--" + key.replace("_", "-"), **_FLAG_HELP.get(key, {}), default=None, type=f.type,
                       choices=_CHOICES.get(key))
    return parser


def merge(namespace):
    """defaults < config file < explicit flags."""
    values = read_config_file(namespace.config) if namespace.config else {}
    flags = {key: getattr(namespace, key, None) for key in _KEYS}
    return from_keys({**values, **{key: v for key, v in flags.items() if v is not None}})
