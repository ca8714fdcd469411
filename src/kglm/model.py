"""Model configuration, parameter containers, initialization, and the
checkpoint.

The sequence model is a stack of projected LSTM layers per direction
over pair-token embeddings, with softmax heads shared by both
directions. Checkpoints use the :func:`~kglm.files.write_arrays`
container (JSON header + raw little-endian array bytes, layout
documented in the README), so identical parameters always serialize to
identical bytes.
"""

from dataclasses import asdict, dataclass, field
from itertools import zip_longest

import numpy as np

from . import seeds
from .files import read_arrays, write_arrays

CHECKPOINT_MAGIC = "kglm-checkpoint 1"


@dataclass
class ModelConfig:
    num_layers: int = 4
    hidden_units: int = 512
    proj_dim: int = 32
    entity_dim: int = 32
    relation_dim: int = 32
    clip_lo: float = -3.0
    clip_hi: float = 3.0
    dropout: float = 0.1
    residual: bool = True
    batch_size: int = 1024
    learning_rate: float = 1e-3
    epochs: int = 200
    seed: int = seeds.DEFAULT_SEED
    precision: str = "f32"

    def __post_init__(self):
        for name in ("num_layers", "hidden_units", "proj_dim", "entity_dim", "relation_dim", "batch_size"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an integer")
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not self.clip_lo < self.clip_hi:
            raise ValueError("clip_lo must be below clip_hi")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if self.precision not in ("f32", "f64"):
            raise ValueError("precision must be 'f32' or 'f64'")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")

    @property
    def dtype(self):
        return np.float32 if self.precision == "f32" else np.float64

    @property
    def input_dim(self):
        return self.entity_dim + self.relation_dim


@dataclass
class LSTMLayerParams:
    """One projected LSTM layer: input, recurrent, bias, and projection
    weights. Gate blocks along the 4H axis are ordered [i|f|g|o]."""

    Wx: np.ndarray
    Wh: np.ndarray
    b: np.ndarray
    Wp: np.ndarray


@dataclass
class ModelParams:
    """All trainable state. The embedding tables and softmax heads are
    single objects referenced by both directions."""

    ent_emb: np.ndarray
    rel_emb: np.ndarray
    fwd: list = field(default_factory=list)
    bwd: list = field(default_factory=list)
    sm_ent_W: np.ndarray = None
    sm_ent_b: np.ndarray = None
    sm_rel_W: np.ndarray = None
    sm_rel_b: np.ndarray = None

    def flat(self):
        """Name -> array view of every parameter block, in a fixed order."""
        out = {"ent_emb": self.ent_emb, "rel_emb": self.rel_emb}
        for tag, layers in (("fwd", self.fwd), ("bwd", self.bwd)):
            for i, layer in enumerate(layers):
                out[f"{tag}{i}.Wx"] = layer.Wx
                out[f"{tag}{i}.Wh"] = layer.Wh
                out[f"{tag}{i}.b"] = layer.b
                out[f"{tag}{i}.Wp"] = layer.Wp
        out["sm_ent_W"] = self.sm_ent_W
        out["sm_ent_b"] = self.sm_ent_b
        out["sm_rel_W"] = self.sm_rel_W
        out["sm_rel_b"] = self.sm_rel_b
        return out

    @property
    def n_entities(self):
        return self.ent_emb.shape[0]

    @property
    def n_relations(self):
        return self.rel_emb.shape[0]

    @classmethod
    def from_flat(cls, arrays, num_layers):
        """Inverse of :meth:`flat`: the parameters from name -> array."""
        layers = {
            tag: [
                LSTMLayerParams(**{k: arrays[f"{tag}{i}.{k}"] for k in ("Wx", "Wh", "b", "Wp")})
                for i in range(num_layers)
            ]
            for tag in ("fwd", "bwd")
        }
        shared = ("ent_emb", "rel_emb", "sm_ent_W", "sm_ent_b", "sm_rel_W", "sm_rel_b")
        return cls(**layers, **{k: arrays[k] for k in shared})


def param_shapes(config, n_entities, n_relations):
    """Name -> shape of every parameter block, in :meth:`ModelParams.flat`
    order. Biases are the only 1-D blocks."""
    H, P = config.hidden_units, config.proj_dim
    shapes = {"ent_emb": (n_entities, config.entity_dim), "rel_emb": (n_relations, config.relation_dim)}
    for tag in ("fwd", "bwd"):
        for i in range(config.num_layers):
            in_dim = config.input_dim if i == 0 else P
            for k, shape in (("Wx", (in_dim, 4 * H)), ("Wh", (P, 4 * H)), ("b", (4 * H,)), ("Wp", (H, P))):
                shapes[f"{tag}{i}.{k}"] = shape
    shapes.update(sm_ent_W=(P, n_entities), sm_ent_b=(n_entities,), sm_rel_W=(P, n_relations), sm_rel_b=(n_relations,))
    return shapes


def init_params(config, n_entities, n_relations, rng=None):
    """Seeded initialization, drawn block by block in
    :meth:`ModelParams.flat` order: embeddings U(-0.1, 0.1), other
    weights U(-s, s) with s = 1/sqrt(fan-in), zero biases with the
    forget-gate bias at +1."""
    if rng is None:
        rng = seeds.derived_rng(config.seed, seeds.MODEL_INIT)
    H = config.hidden_units
    arrays = {}
    for name, shape in param_shapes(config, n_entities, n_relations).items():
        if len(shape) == 1:
            arrays[name] = np.zeros(shape, dtype=config.dtype)
            if "." in name:  # an LSTM layer's [i|f|g|o] bias
                arrays[name][H : 2 * H] = 1.0
            continue
        s = 0.1 if name.endswith("_emb") else 1.0 / np.sqrt(shape[0])
        arrays[name] = rng.uniform(-s, s, size=shape).astype(config.dtype)
    return ModelParams.from_flat(arrays, config.num_layers)


def save_checkpoint(path, params, config, entities, relations):
    """Write params + config + vocabularies, atomically. Identical inputs
    produce byte-identical files."""
    header = {"config": asdict(config), "entities": list(entities), "relations": list(relations)}
    write_arrays(path, CHECKPOINT_MAGIC, header, params.flat())


def _describe(array):
    if array is None:
        return "nothing"
    name, dtype, shape = array
    return f"{name!r} {dtype.name} {shape}"


def load_checkpoint(path):
    """Read a checkpoint back; returns (params, config, entities,
    relations). A malformed file, or one whose arrays are not the
    names, dtypes and shapes, in order, that the header's config and
    vocabulary lengths make, raises ValueError naming ``path``."""
    header, arrays = read_arrays(path, CHECKPOINT_MAGIC, ("config", "entities", "relations"))
    if not all(isinstance(header[k], list) for k in ("entities", "relations")):
        raise ValueError(f"{path}: the header's entities and relations must be lists")
    try:
        config = ModelConfig(**header["config"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad model config in the header ({exc})") from None
    got = [(k, a.dtype, a.shape) for k, a in arrays.items()]
    shapes = param_shapes(config, len(header["entities"]), len(header["relations"]))
    want = [(k, np.dtype(config.dtype), shape) for k, shape in shapes.items()]
    for i, (g, exp) in enumerate(zip_longest(got, want)):
        if g != exp:
            raise ValueError(
                f"{path}: array {i} of the header is {_describe(g)}, but its config and vocabulary "
                f"make {_describe(exp)}"
            )
    params = ModelParams.from_flat(arrays, config.num_layers)
    return params, config, header["entities"], header["relations"]
