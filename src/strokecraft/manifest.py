"""Run manifests: the resolved settings of a command, written beside its outputs.

A manifest holds everything needed to repeat a run byte for byte, so it
records resolved values and seeds but never wall-clock state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import __version__, files
from .errors import ConfigError, DataIOError

_PATH_FIELDS = ("inputs", "outputs")


@dataclass(frozen=True)
class RunManifest:
    """Command name, resolved configuration, seed, and artifact paths."""

    command: str
    config: dict
    seed: int | None = None
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    version: str = __version__

    def __post_init__(self) -> None:
        if not self.command or not isinstance(self.command, str):
            raise ConfigError(f"manifest needs a command name, got {self.command!r}")
        if not isinstance(self.config, dict):
            raise ConfigError(f"manifest config must be a mapping, got {type(self.config)}")
        if self.seed is not None and not isinstance(self.seed, int):
            raise ConfigError(f"manifest seed must be an integer or None, got {self.seed!r}")
        for name in _PATH_FIELDS:
            mapping = getattr(self, name)
            if not isinstance(mapping, dict) or not all(
                isinstance(k, str) and isinstance(v, str) for k, v in mapping.items()
            ):
                raise ConfigError(f"manifest {name} must map names to path strings")

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "version": self.version,
            "seed": self.seed,
            "config": self.config,
            "inputs": self.inputs,
            "outputs": self.outputs,
        }
        try:
            return json.dumps(payload, indent=2, sort_keys=True) + "\n"
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"manifest config is not serializable: {exc}") from exc

    @classmethod
    def from_json(cls, text: str, source: str = "<string>") -> "RunManifest":
        try:
            payload = json.loads(text)
        except ValueError as exc:  # bad JSON, or an integer too long to convert
            raise DataIOError(f"malformed manifest {source}: {exc}") from exc
        if not isinstance(payload, dict):
            raise DataIOError(f"manifest {source} must hold a JSON object")
        missing = {"command", "config"} - payload.keys()
        if missing:
            raise DataIOError(f"manifest {source} lacks fields {sorted(missing)}")
        try:
            return cls(
                command=payload["command"],
                config=payload["config"],
                seed=payload.get("seed"),
                inputs=payload.get("inputs", {}),
                outputs=payload.get("outputs", {}),
                version=payload.get("version", __version__),
            )
        except ConfigError as exc:
            raise DataIOError(f"manifest {source} is invalid: {exc}") from exc

    def save(self, path) -> None:
        files.write_bytes(path, self.to_json().encode("utf-8"))

    @classmethod
    def load(cls, path) -> "RunManifest":
        return cls.from_json(files.read_text(path), source=str(path))
