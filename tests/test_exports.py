"""The package's public names, and the README's library quick start."""

import math
import os
import re

import dtalloc

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "README.md")


def test_all_names_resolve_without_duplicates():
    names = dtalloc.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(dtalloc, name)]
    assert missing == []


def test_readme_quick_start_runs(capsys):
    with open(README) as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    # the final/initial residual ratio, then the mean final state's distance
    # from the optimum
    ratio, err = map(float, capsys.readouterr().out.split())
    assert math.isfinite(ratio) and ratio < 1e-6
    assert math.isfinite(err) and err < 1e-6
