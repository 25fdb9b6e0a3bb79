"""The documentation must stay executable and internally linked.

Three guarantees, all enforced in CI (the ``docs`` job):

* every fenced ```` ```python ```` block in ``docs/*.md`` runs without
  raising — blocks within one file share a namespace and run top to bottom,
  so later blocks may build on earlier ones;
* every relative markdown link in ``docs/*.md`` and ``README.md`` points at
  an existing file (external ``http(s)`` links are format-checked only; the
  suite runs offline);
* every name a ``repro`` module lists in ``__all__`` resolves, so a deleted
  class cannot linger in the documented public surface.
"""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = REPO_ROOT / "docs"

DOC_FILES = sorted(DOCS.glob("*.md"))
LINKED_FILES = DOC_FILES + [REPO_ROOT / "README.md"]

_FENCE_RE = re.compile(r"```python\n(.*?)```", re.DOTALL)
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def python_blocks(path: Path) -> list[str]:
    return [match.group(1) for match in _FENCE_RE.finditer(path.read_text())]


def test_docs_exist_and_have_executable_content():
    assert DOC_FILES, "docs/ must contain markdown files"
    assert any(python_blocks(path) for path in DOC_FILES)


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_docs_python_blocks_execute(path):
    blocks = python_blocks(path)
    namespace: dict = {"__name__": f"docs.{path.stem}"}
    for position, block in enumerate(blocks):
        try:
            exec(compile(block, f"{path.name}[block {position}]", "exec"), namespace)
        except Exception as error:  # pragma: no cover - failure reporting
            pytest.fail(
                f"{path.name}, python block {position} failed: {error!r}\n{block}"
            )


@pytest.mark.parametrize("path", LINKED_FILES, ids=lambda p: p.name)
def test_markdown_links_resolve(path):
    text = path.read_text()
    for target in _LINK_RE.findall(text):
        if target.startswith(("http://", "https://")):
            assert " " not in target, f"malformed URL {target!r} in {path.name}"
            continue
        if target.startswith("#"):
            continue  # in-page anchor
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        assert resolved.exists(), f"{path.name}: broken link {target!r}"


def test_every_exported_name_resolves():
    import repro

    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert not missing, f"__all__ names that do not resolve: {missing}"
