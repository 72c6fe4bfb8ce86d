import json
import math
import os

import pytest

from ahbopt._io import atomic_write, json_text


def test_atomic_write_replaces_the_file_and_leaves_no_temporary_file(tmp_path):
    path = tmp_path / "out.json"
    atomic_write(str(path), "old")
    atomic_write(str(path), "new")
    assert path.read_text() == "new"
    assert os.listdir(tmp_path) == ["out.json"]


def test_failed_atomic_write_reraises_and_leaves_no_temporary_file(tmp_path):
    # a rename onto a directory fails after the temporary file is written
    (tmp_path / "taken").mkdir()
    with pytest.raises(OSError):
        atomic_write(str(tmp_path / "taken"), "text")
    assert os.listdir(tmp_path) == ["taken"]
    assert (tmp_path / "taken").is_dir()


def test_json_text_writes_infinities_as_strict_json_numbers():
    payload = {"a": math.inf, "b": [-math.inf, 1.5, math.inf], "c": {"d": -math.inf},
               "Infinity": "Infinity", 'e": Infinity': 'f": -Infinity'}
    text = json_text(payload)
    assert json.loads(text, parse_constant=lambda name: pytest.fail(name)) == payload
    assert text.count("1e999") == 4 and text.count("Infinity") == 4
    assert json_text(math.inf) == "1e999\n" and json_text([-math.inf]) == "[\n  -1e999\n]\n"
