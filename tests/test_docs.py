"""The package maps in README's Layout block and ``repro.__doc__``.

Both maps must name every package directory under ``src/repro/``, so a
package added or deleted without its documentation fails here.
"""

import re
from pathlib import Path

import repro

README = Path(__file__).resolve().parents[1] / "README.md"


def _packages():
    root = Path(repro.__file__).parent
    return sorted(path.parent.name for path in root.glob("*/__init__.py"))


def _readme_layout() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Layout\n", 1)[1]
    return section.split("```", 2)[1]


def test_package_maps_name_every_package():
    packages = _packages()
    assert "frontend" in packages and "sweep" in packages
    layout = _readme_layout()
    missing_readme = [name for name in packages
                      if not re.search(rf"^  {name}/ ", layout, re.MULTILINE)]
    missing_doc = [name for name in packages
                   if f":mod:`repro.{name}`" not in repro.__doc__]
    assert missing_readme == [], "README Layout omits these packages"
    assert missing_doc == [], "repro.__doc__ omits these packages"
