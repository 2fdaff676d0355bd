"""Pipeline configuration: dataclass tree, JSON config file loading, env overrides.

Precedence for every setting is env > CLI flag > config file > default.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields

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

ENV_PREFIX = "PROVLENS_"


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


@dataclass
class EncoderConfig:
    embedding_dim: int = 32
    num_layers: int = 2
    learning_rate: float = 1e-5
    epochs: int = 50
    batch_size: int = 256
    temperature: float = 0.1
    activation: str = "relu"
    aggregation: str = "mean"

    def validate(self) -> None:
        if self.embedding_dim < 1 or self.num_layers < 1:
            raise ConfigError("embedding_dim and num_layers must be >= 1")
        if self.temperature <= 0:
            raise ConfigError("temperature must be positive")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2")
        if self.activation not in ("relu", "tanh", "identity"):
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.aggregation not in ("mean", "sum"):
            raise ConfigError(f"unknown aggregation {self.aggregation!r}")


@dataclass
class InvestigationBudget:
    max_iterations: int = 5
    max_leads_per_ioc: int = 10
    max_hypotheses: int = 16
    max_llm_calls: int = 200

    @classmethod
    def from_config(cls, cfg: "InvestigationBudget") -> "InvestigationBudget":
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
    api_key_env: str = ENV_PREFIX + "API_KEY"
    timeout_s: float = 60.0
    knn_k: int = 5

    def validate(self) -> None:
        if self.backend not in ("mock", "http"):
            raise ConfigError(f"unknown llm backend {self.backend!r}")
        if self.backend == "http" and not self.endpoint:
            raise ConfigError("http llm backend requires an endpoint")


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
        if not 0.0 <= self.epsilon < 1.0:
            raise ConfigError("epsilon must lie in [0, 1)")
        self.features.validate()
        self.encoder.validate()
        self.budget.validate()
        self.llm.validate()


def _apply_tree(cfg, tree: dict, path: str = "") -> None:
    known = {f.name: f for f in fields(cfg)}
    for key, value in tree.items():
        if key not in known:
            raise ConfigError(f"unknown config key {path + key!r}")
        current = getattr(cfg, key)
        if isinstance(value, dict):
            _apply_tree(current, value, path + key + ".")
        elif key == "op_vocab":
            setattr(cfg, key, tuple(value))
        else:
            setattr(cfg, key, type(current)(value) if current is not None else value)


def _apply_env(cfg: PipelineConfig, environ) -> None:
    simple = {
        ENV_PREFIX + "SEED": ("seed", int),
        ENV_PREFIX + "EPSILON": ("epsilon", float),
        ENV_PREFIX + "ARTIFACTS_DIR": ("artifacts_dir", str),
    }
    for var, (attr, cast) in simple.items():
        if var in environ:
            setattr(cfg, attr, cast(environ[var]))
    llm = {
        ENV_PREFIX + "LLM_BACKEND": "backend",
        ENV_PREFIX + "LLM_ENDPOINT": "endpoint",
        ENV_PREFIX + "LLM_MODEL": "model",
    }
    for var, attr in llm.items():
        if var in environ:
            setattr(cfg.llm, attr, environ[var])


def load_config(path: str | None = None, overrides: dict | None = None,
                environ=None) -> PipelineConfig:
    """Build a validated PipelineConfig from file + flag overrides + env."""
    cfg = PipelineConfig()
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                tree = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(tree, dict):
            raise ConfigError("config file must contain a JSON object")
        _apply_tree(cfg, tree)
    if overrides:
        _apply_tree(cfg, overrides)
    _apply_env(cfg, os.environ if environ is None else environ)
    cfg.validate()
    return cfg
