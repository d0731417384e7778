"""The public library surface: the README example runs, every export resolves."""

import re
from pathlib import Path

import nilcirc

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def test_readme_library_snippet_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)
    assert namespace["v"].nilpotent and namespace["v"].index == 8
    assert namespace["k"] == 8


def test_all_exports_resolve():
    # a name in __all__ that the package lacks makes the star import raise
    namespace = {}
    exec("from nilcirc import *", namespace)
    assert set(nilcirc.__all__) <= set(namespace)


def test_readme_names_the_python_versions_that_ci_runs():
    matrix = re.search(r"python-version: \[(.*?)\]", WORKFLOW.read_text()).group(1)
    versions = re.findall(r'"([^"]+)"', matrix)
    assert f"CI runs tier-1 on Python {versions[0]} to {versions[-1]}" in " ".join(
        README.read_text().split())
