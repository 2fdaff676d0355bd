"""Pipeline configuration: dataclass tree and JSON config file loading.

Settings come from the config file and the command-line flags only; the
precedence for every setting is CLI flag > config file > default. The
environment sets none of them: the HTTP backend's API key is a credential,
not a setting, and the CLI reads it from ``PROVLENS_API_KEY``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

from .artifacts import decode, encode
from .errors import ConfigError

DEFAULT_OP_VOCAB = (
    "READ",
    "WRITE",
    "EXECUTE",
    "OPEN",
    "CLOSE",
    "CONNECT",
    "SEND",
    "RECV",
    "FORK",
    "CLONE",
    "MODIFY",
)

@dataclass
class FeatureConfig:
    semantic_dim: int = 32
    window_ns: int = 10_000_000_000  # 10 s aggregation window
    op_vocab: tuple[str, ...] = DEFAULT_OP_VOCAB
    w2v_window: int = 5
    w2v_negatives: int = 5
    w2v_epochs: int = 3

    def validate(self) -> None:
        if self.semantic_dim < 1:
            raise ConfigError("semantic_dim must be >= 1")
        if self.window_ns <= 0:
            raise ConfigError("window_ns must be positive")
        if not self.op_vocab:
            raise ConfigError("op_vocab must not be empty")
        if len(set(self.op_vocab)) != len(self.op_vocab):
            raise ConfigError("features.op_vocab repeats an operation")
        if self.w2v_window < 1 or self.w2v_negatives < 1:
            raise ConfigError("w2v_window and w2v_negatives must be >= 1")


@dataclass
class EncoderConfig:
    embedding_dim: int = 32
    num_layers: int = 2
    learning_rate: float = 1e-5
    epochs: int = 50
    batch_size: int = 256
    temperature: float = 0.1

    def validate(self) -> None:
        if self.embedding_dim < 1 or self.num_layers < 1:
            raise ConfigError("embedding_dim and num_layers must be >= 1")
        if self.epochs < 0 or not self.learning_rate >= 0.0:
            raise ConfigError("epochs and learning_rate must be >= 0")
        if self.temperature <= 0:
            raise ConfigError("temperature must be positive")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2")


@dataclass
class InvestigationBudget:
    max_iterations: int = 5
    max_leads_per_ioc: int = 10
    max_hypotheses: int = 16
    max_llm_calls: int = 200

    @classmethod
    def from_config(cls, cfg: "InvestigationBudget") -> "InvestigationBudget":
        """A copy of ``cfg``, under the name the benchmark's workloads call."""
        return cls(**asdict(cfg))

    def validate(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise ConfigError(f"budget field {f.name} must be positive")


@dataclass
class LLMConfig:
    backend: str = "mock"  # "mock" or "http"
    endpoint: str = ""
    model: str = ""
    timeout_s: float = 60.0
    knn_k: int = 5

    def validate(self) -> None:
        if self.backend not in ("mock", "http"):
            raise ConfigError(f"unknown llm backend {self.backend!r}")
        if self.backend == "http" and not self.endpoint:
            raise ConfigError("http llm backend requires an endpoint")
        if not self.timeout_s > 0:
            raise ConfigError("llm.timeout_s must be positive")
        if self.knn_k < 1:
            raise ConfigError("llm.knn_k must be >= 1")


@dataclass
class PipelineConfig:
    artifacts_dir: str = "artifacts"
    seed: int = 7
    epsilon: float = 0.02
    features: FeatureConfig = field(default_factory=FeatureConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    budget: InvestigationBudget = field(default_factory=InvestigationBudget)
    llm: LLMConfig = field(default_factory=LLMConfig)

    def validate(self) -> None:
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not 0.0 <= self.epsilon < 1.0:
            raise ConfigError("epsilon must lie in [0, 1)")
        self.features.validate()
        self.encoder.validate()
        self.budget.validate()
        self.llm.validate()


_JSON_KINDS = {int: "an integer", float: "a number", str: "a string",
               tuple: "a list of strings"}


def _apply_tree(cfg, tree: dict, path: str = "") -> None:
    """Set fields from a JSON object. A value is accepted only if it has the
    JSON type of the field's default: an integer may stand for a number, a
    boolean is never an integer, a section is an object and ``op_vocab`` is a
    list of strings. A number must be finite."""
    known = {f.name for f in fields(cfg)}
    for key, value in tree.items():
        name = path + key
        if type(value) is float and not math.isfinite(value):
            raise ConfigError(f"config value {encode(value)} is not a finite "
                              f"number")
        if key not in known:
            raise ConfigError(f"unknown config key {name!r}")
        current = getattr(cfg, key)
        kind = type(current)
        if is_dataclass(current) and type(value) is dict:
            _apply_tree(current, value, name + ".")
        elif kind is tuple and type(value) is list \
                and all(type(v) is str for v in value):
            setattr(cfg, key, tuple(value))
        elif type(value) is kind or (kind, type(value)) == (float, int):
            setattr(cfg, key, kind(value))
        else:
            expected = ("an object" if is_dataclass(current)
                        else _JSON_KINDS[kind])
            raise ConfigError(f"config key {name!r} must be {expected}, "
                              f"got {value!r}")


def load_config(path: str | None = None,
                overrides: dict | None = None) -> PipelineConfig:
    """Build a validated PipelineConfig from the file, then flag overrides."""
    cfg = PipelineConfig()
    if path is not None:
        try:
            tree = decode(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except ValueError as exc:  # not UTF-8, not JSON, or nested too deep
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(tree, dict):
            raise ConfigError("config file must contain a JSON object")
        _apply_tree(cfg, tree)
    if overrides:
        _apply_tree(cfg, overrides)
    cfg.validate()
    return cfg
