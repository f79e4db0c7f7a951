"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    # `[mid] = query(policy, [0.5])` unpacks one row of the posterior.
    mid = namespace["mid"]
    assert mid.mean.shape == mid.var.shape == (6,)
    assert mid.extrapolated is False
    assert len(namespace["adapted"]) == 100
    assert namespace["trace"].error.shape == (2001, 6)
