import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_api_sketch_runs():
    # the sketch runs as written, and its stated results hold
    block = re.search(r"## Python API sketch\n\n```python\n(.*?)```", README.read_text(), re.S).group(1)
    ns: dict = {}
    exec(compile(block, str(README), "exec"), ns)
    assert ns["report"].regime == "LAN"
    assert ns["report"].scaling.describe() == "T^-1/2"
    assert ns["J"] == pytest.approx(1.0, abs=1e-4)
    assert ns["J0"] == 1.0
    assert ns["delta"].shape == ns["info"].shape == (1000,)
