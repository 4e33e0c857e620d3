"""The README's library example must run against the current API.

A signature change that the README does not follow would otherwise
only surface when a reader pastes the example.
"""

from __future__ import annotations

import re
from pathlib import Path

from impactfield.spectral import spectral_radius

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"^```python\n(.*?)^```$", section, re.DOTALL | re.MULTILINE)
    assert match, "no python block under ## Library"
    return match.group(1)


def test_readme_library_example_runs() -> None:
    namespace: dict[str, object] = {}
    exec(compile(library_example(), f"{README}:Library", "exec"), namespace)
    approx, exact = namespace["approx"], namespace["exact"]
    assert approx.values.shape == exact.values.shape
    # the exact and approximate matrices are normalized by one radius
    assert namespace["weight"].rho == spectral_radius(namespace["graph"])
    assert namespace["cells"] and all(cell.error is None for cell in namespace["cells"])
