"""Static guard: the simulated machine carries only state that is read.

Every attribute the simulator's model packages write, and every field of a
frontend protocol message, must be read somewhere in ``repro``: by a timing
decision, a statistic, telemetry or a check.  A field added for a future
reader belongs in the change that reads it.

The scan is by attribute name over the AST of ``src/repro``.  Stores, stores
through a subscript (``self.col[row] = x``) and ``.append`` calls do not count
as reads, because they only fill the state in.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

SOURCE_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Packages modelling the simulated machine.
MODEL_PACKAGES = ("frontend", "backend", "cores", "topology", "sim")

#: Written-only attributes kept on purpose: the ORT and OVT count the
#: insertions that exceed the hardware's capacity, which tests read and no
#: result reports.
ALLOWED_UNREAD = {"overflow_insertions", "overflow_creations"}


def _trees():
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        yield path.relative_to(SOURCE_ROOT), ast.parse(path.read_text(),
                                                       filename=str(path))


def _writes_and_reads(tree):
    """Attribute names stored, and attribute names read, in ``tree``."""
    fills = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript)
                and isinstance(node.ctx, (ast.Store, ast.Del))):
            fills.add(id(node.value))
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "append"):
            fills.add(id(node.func.value))
    writes, reads = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if isinstance(node.ctx, ast.Store):
                writes.add(node.attr)
            elif isinstance(node.ctx, ast.Load) and id(node) not in fills:
                reads.add(node.attr)
    return writes, reads


@functools.cache
def _scan():
    """``({attribute written in a model package: file}, {attribute read})``."""
    written, read = {}, set()
    for path, tree in _trees():
        writes, reads = _writes_and_reads(tree)
        read |= reads
        if path.parts[0] in MODEL_PACKAGES:
            for name in writes:
                written.setdefault(name, str(path))
    return written, read


def _is_dataclass(node) -> bool:
    return any(getattr(getattr(decorator, "func", decorator), "id", None)
               == "dataclass" for decorator in node.decorator_list)


def _message_fields():
    tree = ast.parse((SOURCE_ROOT / "frontend" / "messages.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for statement in node.body:
                if isinstance(statement, ast.AnnAssign):
                    yield f"{node.name}.{statement.target.id}"


def test_every_model_attribute_written_is_read():
    written, read = _scan()
    unread = sorted(f"{name} ({path})" for name, path in written.items()
                    if name not in read and name not in ALLOWED_UNREAD)
    assert not unread, f"attributes written but never read: {unread}"
    # The allow-list must not outlive the state it excuses.
    assert ALLOWED_UNREAD <= set(written)


def test_every_message_field_is_read():
    _, read = _scan()
    fields = list(_message_fields())
    assert fields, "no message dataclasses found"
    unread = [field for field in fields
              if field.split(".")[1] not in read]
    assert not unread, f"message fields never read: {unread}"
