import math
import re
from pathlib import Path

import pytest


def test_readme_quick_tour_runs():
    # the python block of README's "Library quick tour", run as written
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    tour = readme.split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    # as the block's comment says: ~0.25, the classical 2**(1-k) at k = 3
    assert math.exp(namespace["rec"].log_nu) == pytest.approx(0.25, rel=1e-3)
