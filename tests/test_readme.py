"""The README's library example runs and its config example validates against the current code."""
import json
import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library example"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope: dict = {}
    exec(compile(code, str(README), "exec"), scope)
    assert scope["theta_new"].shape == (2,)
    assert np.all(np.isfinite(scope["theta_new"]))


def test_config_schema_example_validates():
    from fedmismatch.cli import validate_config

    text = README.read_text(encoding="utf-8")
    block = re.search(r"```jsonc\n(.*?)```", text, re.S).group(1)
    cfg = json.loads(re.sub(r"//.*", "", block))
    assert validate_config(cfg) == []
