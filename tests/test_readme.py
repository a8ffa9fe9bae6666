"""The README's library example runs as printed."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_python_blocks_run():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.S | re.M)
    assert blocks
    for block in blocks:
        namespace = {}
        exec(compile(block, README, "exec"), namespace)
    # the library example ends by expanding and printing one mod-h^2 entry on
    # A1 1^4, mu 0
    assert namespace["value"] == "a1*h"
