"""LAYER001 — layering and boundary-exception contracts.

CompressDB's portability story (paper Section 5: "various databases")
depends on a strict layer cake: databases and workloads sit on the VFS
and the engine's public API, never on the block device.  Two sub-checks
enforce it:

**Imports.**  Every ``repro`` package has a rank; importing from a
strictly higher rank is a violation.  Additionally the *consumer*
packages (``repro.databases``, ``repro.workloads``) may not import
``repro.storage.block_device`` or engine internals at all — their whole
engine surface is the VFS (``repro.fs.vfs`` / ``repro.fs.compressfs``).

**Exceptions.**  The VFS boundary speaks errno
(:mod:`repro.fs.errors`): a ``FileSystem`` storage primitive or
descriptor call raising a builtin (``ValueError``, ``KeyError``,
``OSError``…) or an engine-internal type leaks implementation detail to
every database.  Inside ``repro.fs``, methods of ``FileSystem``
subclasses may only raise ``repro.fs.errors`` types
(``NotImplementedError`` is allowed for abstract hooks).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.findings import Finding, Severity
from repro.analysis.framework import Checker, FileContext, register
from repro.analysis.symbols import dotted_name

#: Package ranks, lowest = closest to the hardware.  Importing from a
#: strictly higher rank inverts the layer cake.
LAYER_RANKS = {
    "repro.obs": 0,
    "repro.storage": 0,
    "repro.compression": 0,
    "repro.analysis": 0,
    "repro.succinct": 1,
    "repro.tadoc": 1,
    "repro.snap": 1,
    "repro.core": 1,
    "repro.mvcc": 1,
    "repro.fs": 2,
    "repro.databases": 3,
    "repro.distributed": 3,
    # Consensus sits beside the distributed tier: raft replicates the
    # master's state machine, the master group assembles raft nodes.
    "repro.raft": 3,
    "repro.workloads": 3,
    "repro.bench": 4,
    "repro.serving": 4,
    "repro.api": 5,
    "repro.cli": 5,
}

#: Packages restricted to the public engine surface.
_CONSUMER_PACKAGES = ("repro.databases", "repro.workloads")

#: What the consumer packages may use from below the VFS.
_CONSUMER_ALLOWED_PREFIXES = (
    "repro.fs.",
    "repro.obs",  # observability, not a data path
    "repro.storage.simclock",  # timing/cost model, not a data path
    "repro.storage.stats",  # observability, not a data path
)

_BUILTIN_EXCEPTIONS = frozenset(
    {
        "Exception",
        "ValueError",
        "TypeError",
        "KeyError",
        "IndexError",
        "OSError",
        "IOError",
        "RuntimeError",
        "AttributeError",
        "LookupError",
        "ArithmeticError",
        "ZeroDivisionError",
        "FileNotFoundError",
        "FileExistsError",
        "PermissionError",
        "StopIteration",
        "AssertionError",
    }
)

#: Methods forming the VFS boundary: the storage primitives plus the
#: descriptor/namespace surface the databases call.
_VFS_METHOD_PREFIXES = (
    "_create",
    "_unlink",
    "_exists",
    "_size",
    "_pread",
    "_pwrite",
    "_preadv",
    "_pwritev",
    "_truncate",
    "_list",
    "open",
    "close",
    "read",
    "write",
    "pread",
    "pwrite",
    "preadv",
    "pwritev",
    "lseek",
    "ftruncate",
    "truncate",
    "fsync",
    "unlink",
    "rename",
    "stat",
    "listdir",
    "read_file",
    "write_file",
    "append_file",
)


def _package_rank(module: str) -> Optional[int]:
    for package, rank in LAYER_RANKS.items():
        if module == package or module.startswith(package + "."):
            return rank
    return None


@register
class LayeringChecker(Checker):
    rule_id = "LAYER001"
    #: Purely lexical rule: one file is the whole story, so the
    #: interprocedural pass adds nothing.
    interprocedural = False
    severity = Severity.ERROR
    description = (
        "layer cake: no imports from higher layers; databases/workloads "
        "only use the VFS; only repro.fs.errors types cross the VFS boundary"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.module.startswith("repro."):
            return
        yield from self._check_imports(ctx)
        if ctx.module.startswith("repro.fs."):
            yield from self._check_boundary_exceptions(ctx)

    # -- sub-check 1: the import graph -------------------------------------
    def _check_imports(self, ctx: FileContext) -> Iterator[Finding]:
        own_rank = _package_rank(ctx.module)
        consumer = ctx.module.startswith(_CONSUMER_PACKAGES)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                targets = [(node, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                targets = [(node, node.module)]
            else:
                continue
            for imp_node, target in targets:
                if not target.startswith("repro."):
                    continue
                target_rank = _package_rank(target)
                if (
                    own_rank is not None
                    and target_rank is not None
                    and target_rank > own_rank
                ):
                    yield self.finding(
                        ctx,
                        imp_node,
                        f"{ctx.module} (layer {own_rank}) imports {target} "
                        f"(layer {target_rank}) — lower layers must not "
                        "depend on higher ones",
                    )
                if consumer and self._forbidden_for_consumer(target):
                    yield self.finding(
                        ctx,
                        imp_node,
                        f"{ctx.module} reaches the engine through {target} — "
                        "databases/workloads may only use the VFS (repro.fs)",
                    )

    @staticmethod
    def _forbidden_for_consumer(target: str) -> bool:
        if target.startswith(_CONSUMER_ALLOWED_PREFIXES):
            return False
        return target.startswith(("repro.storage", "repro.core"))

    # -- sub-check 2: exceptions crossing the VFS -------------------------
    def _check_boundary_exceptions(self, ctx: FileContext) -> Iterator[Finding]:
        fs_classes = {
            name
            for name, bases in ctx.symbols.class_bases.items()
            if name == "FileSystem"
            or any(base.rsplit(".", 1)[-1].endswith("FS") for base in bases)
            or any(base.endswith("FileSystem") for base in bases)
        }
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            enclosing_class = ctx.symbols.enclosing_class(node)
            if enclosing_class is None or enclosing_class.name not in fs_classes:
                continue
            method = ctx.symbols.enclosing_function(node)
            if method is None or not self._is_vfs_method(method.name):  # type: ignore[union-attr]
                continue
            raised = self._raised_name(ctx, node.exc)
            if raised is None:
                continue
            if raised == "NotImplementedError":
                continue  # abstract storage hooks
            if raised.startswith("repro.fs.errors."):
                continue
            if raised in _BUILTIN_EXCEPTIONS:
                yield self.finding(
                    ctx,
                    node,
                    f"{enclosing_class.name}.{method.name} raises builtin "  # type: ignore[union-attr]
                    f"{raised} across the VFS boundary — raise a "
                    "repro.fs.errors type (errno taxonomy) instead",
                )
            elif raised.startswith("repro.") and ".fs.errors." not in raised:
                yield self.finding(
                    ctx,
                    node,
                    f"{enclosing_class.name}.{method.name} raises "  # type: ignore[union-attr]
                    f"{raised} across the VFS boundary — only "
                    "repro.fs.errors types may cross",
                )

    @staticmethod
    def _is_vfs_method(name: str) -> bool:
        return name in _VFS_METHOD_PREFIXES

    @staticmethod
    def _raised_name(ctx: FileContext, exc: ast.AST) -> Optional[str]:
        node = exc.func if isinstance(exc, ast.Call) else exc
        name = dotted_name(node)
        if name is None:
            return None
        return ctx.symbols.resolve(name)
