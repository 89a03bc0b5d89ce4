"""The README's library example runs against the current API."""
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
