"""Run manifest serialization and validation."""

import pytest

from strokecraft import __version__
from strokecraft.errors import ConfigError, DataIOError
from strokecraft.manifest import RunManifest


def sample_manifest() -> RunManifest:
    return RunManifest(
        command="gen-data",
        config={"count": 3, "canvas_size": 32, "seed": 5, "out": "data"},
        seed=5,
        outputs={"parameters": "params.json"},
    )


class TestRoundTrip:
    def test_json_roundtrip_preserves_everything(self):
        manifest = sample_manifest()
        assert RunManifest.from_json(manifest.to_json()) == manifest

    def test_file_roundtrip(self, tmp_path):
        manifest = sample_manifest()
        manifest.save(tmp_path / "manifest.json")
        assert RunManifest.load(tmp_path / "manifest.json") == manifest

    def test_serialization_is_deterministic(self):
        a = RunManifest(command="x", config={"b": 1, "a": 2})
        b = RunManifest(command="x", config={"a": 2, "b": 1})
        assert a.to_json() == b.to_json()

    def test_records_artifact_version(self):
        assert sample_manifest().version == __version__


class TestValidation:
    def test_rejects_empty_command(self):
        with pytest.raises(ConfigError):
            RunManifest(command="", config={})

    def test_rejects_non_mapping_config(self):
        with pytest.raises(ConfigError):
            RunManifest(command="x", config=[1, 2])

    def test_rejects_non_integer_seed(self):
        with pytest.raises(ConfigError):
            RunManifest(command="x", config={}, seed="five")

    def test_rejects_non_path_outputs(self):
        with pytest.raises(ConfigError):
            RunManifest(command="x", config={}, outputs={"a": 1})

    def test_rejects_unserializable_config(self):
        with pytest.raises(ConfigError):
            RunManifest(command="x", config={"fn": object()}).to_json()


class TestLoading:
    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DataIOError):
            RunManifest.load(path)

    def test_integer_too_long_to_convert(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"command": "x", "config": {"lr": 1' + "0" * 5000 + '}}')
        with pytest.raises(DataIOError):
            RunManifest.load(path)

    def test_missing_fields(self):
        with pytest.raises(DataIOError):
            RunManifest.from_json('{"command": "x"}')

    def test_non_object_document(self):
        with pytest.raises(DataIOError):
            RunManifest.from_json("[1, 2]")

    def test_invalid_values_become_io_errors(self):
        with pytest.raises(DataIOError):
            RunManifest.from_json('{"command": "x", "config": {}, "seed": "five"}')

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataIOError):
            RunManifest.load(tmp_path / "absent.json")
