"""CompressFS: the CompressDB engine exposed through the VFS interface.

This is the integration of Section 4.1/5: databases "set the system
directory" to a CompressDB mount and their ``read``/``write`` system
calls are handled by the engine, gaining compressed-data direct
processing transparently.  The extra non-POSIX operations are available
in-process through :attr:`CompressFS.ops`; ``search`` and ``count`` also
travel over the serving layer's protocol v1 (:func:`repro.api.connect`).
"""

from __future__ import annotations

from typing import Optional

from repro.core.engine import CompressDB, FileExistsInEngine, FileNotFoundInEngine
from repro.core.operations import OperationModule
from repro.fs import fd as fdmod
from repro.fs.errors import (
    FileExists,
    FileNotFound,
    InvalidArgument,
    PermissionDenied,
)
from repro.fs.vfs import FileSystem
from repro.storage.block_device import BlockDevice

#: Virtual subtree exposing snapshots: ``/.snap/<name>/<path>`` is a
#: read-only view of ``<path>`` as of snapshot ``<name>``.
SNAP_ROOT = "/.snap"

_WRITE_FLAGS = (
    fdmod.O_WRONLY | fdmod.O_RDWR | fdmod.O_CREAT | fdmod.O_TRUNC | fdmod.O_APPEND
)


class CompressFS(FileSystem):
    """A file system whose storage engine is CompressDB."""

    def __init__(
        self,
        device: Optional[BlockDevice] = None,
        block_size: int = 1024,
        engine: Optional[CompressDB] = None,
        **engine_kwargs,
    ) -> None:
        if engine is not None:
            self.engine = engine
        else:
            self.engine = CompressDB(device=device, block_size=block_size, **engine_kwargs)
        super().__init__(device=self.engine.device)

    @property
    def ops(self) -> OperationModule:
        """The pushed-down operation module (insert/delete/search/...)."""
        return self.engine.ops

    # -- snapshot subtree ------------------------------------------------------
    @staticmethod
    def _snapshot_target(path: str) -> Optional[tuple[str, str]]:
        """Decode ``/.snap/<name>/<path>``; None for ordinary paths."""
        if not path.startswith(SNAP_ROOT + "/"):
            return None
        rest = path[len(SNAP_ROOT) + 1 :]
        name, sep, tail = rest.partition("/")
        if not name or not sep or not tail:
            return None
        return name, "/" + tail

    def _frozen(self, path: str):
        """The FrozenInode behind a virtual path, or None."""
        target = self._snapshot_target(path)
        if target is None:
            return None
        name, original = target
        if name not in self.engine.snapshots:
            return None
        return self.engine.snapshots.lookup(name, original)

    def open(
        self,
        path: str,
        flags: int = fdmod.O_RDONLY,
        snapshot: Optional[str] = None,
        session: Optional[object] = None,
    ) -> int:
        """Open a live file — or, with ``snapshot``, its frozen image.

        ``open(path, snapshot="monday")`` is sugar for opening the
        virtual path ``/.snap/monday/<path>``; either spelling yields a
        read-only descriptor backed by the frozen inode table.

        ``open(path, flags, session=s)`` binds the descriptor to an
        MVCC session: reads resolve against the session's snapshot,
        writes buffer for its commit, and the descriptor is force-
        closed when the session finishes (so a conflict abort cannot
        leak fd slots or pinned snapshot images).
        """
        if snapshot is not None:
            if session is not None:
                raise InvalidArgument(
                    "snapshot and session views cannot be combined"
                )
            if flags & _WRITE_FLAGS:
                raise PermissionDenied(
                    f"snapshot {snapshot!r} is read-only: open with O_RDONLY"
                )
            path = f"{SNAP_ROOT}/{snapshot}" + (
                path if path.startswith("/") else "/" + path
            )
        if session is not None:
            return self._open_with_session(path, flags, session)
        return super().open(path, flags)

    def _open_with_session(self, path: str, flags: int, session) -> int:
        if path.startswith(SNAP_ROOT + "/") or path == SNAP_ROOT:
            raise PermissionDenied(f"{SNAP_ROOT} is a read-only snapshot view")
        try:
            exists = session.exists(path)
            if not exists:
                if not flags & fdmod.O_CREAT:
                    raise FileNotFound(path)
                session.create(path)
            elif flags & fdmod.O_CREAT and flags & fdmod.O_EXCL:
                raise FileExists(path)
            fd = self._fds.allocate(path, flags, session=session)
            if flags & fdmod.O_TRUNC and self._fds.lookup(fd).writable:
                session.truncate(path, 0)
        except FileExistsInEngine:
            raise FileExists(path) from None
        except FileNotFoundInEngine:
            raise FileNotFound(path) from None
        # One cleanup per (fs, session): when the session finishes —
        # commit, abort, or conflict — every descriptor it still holds
        # in this table is reclaimed.
        session.add_cleanup(
            lambda: self._fds.release_session(session),
            key=f"fds:{id(self)}",
        )
        return fd

    # -- primitives -----------------------------------------------------------
    def _create(self, path: str) -> None:
        if path.startswith(SNAP_ROOT + "/") or path == SNAP_ROOT:
            raise PermissionDenied(f"{SNAP_ROOT} is a read-only snapshot view")
        try:
            self.engine.create(path)
        except FileExistsInEngine:
            raise FileExists(path) from None

    def _unlink(self, path: str) -> None:
        if self._snapshot_target(path) is not None:
            raise PermissionDenied(f"{path}: snapshots are read-only")
        try:
            self.engine.unlink(path)
        except FileNotFoundInEngine:
            raise FileNotFound(path) from None

    def _exists(self, path: str) -> bool:
        if self._snapshot_target(path) is not None:
            return self._frozen(path) is not None
        return self.engine.exists(path)

    def _size(self, path: str) -> int:
        frozen = self._frozen(path)
        if frozen is not None:
            return frozen.size
        if self._snapshot_target(path) is not None:
            raise FileNotFound(path)
        try:
            return self.engine.file_size(path)
        except FileNotFoundInEngine:
            raise FileNotFound(path) from None

    def _list(self) -> list[str]:
        # Virtual .snap entries are deliberately absent: they carry no
        # logical bytes of their own and must not leak into database
        # directory scans.  ``listdir("/.snap...")`` surfaces them.
        return self.engine.list_files()

    def listdir(self, prefix: str = "") -> list[str]:
        if prefix.startswith(SNAP_ROOT):
            entries = []
            for name in self.engine.snapshots.names():
                for path in self.engine.snapshots.get(name).files:
                    virtual = f"{SNAP_ROOT}/{name}" + (
                        path if path.startswith("/") else "/" + path
                    )
                    if virtual.startswith(prefix):
                        entries.append(virtual)
            return sorted(entries)
        return super().listdir(prefix)

    def _pread(self, path: str, offset: int, size: int) -> bytes:
        if offset < 0 or size < 0:
            raise InvalidArgument("offset and size must be non-negative")
        frozen = self._frozen(path)
        if frozen is not None:
            return frozen.read(self.engine.device, offset, size)
        if self._snapshot_target(path) is not None:
            raise FileNotFound(path)
        try:
            return self.engine.read(path, offset, size)
        except FileNotFoundInEngine:
            raise FileNotFound(path) from None

    def _pwrite(self, path: str, offset: int, data: bytes) -> int:
        if self._snapshot_target(path) is not None:
            raise PermissionDenied(f"{path}: snapshots are read-only")
        if offset < 0:
            raise InvalidArgument("offset must be non-negative")
        try:
            return self.engine.write(path, offset, data)
        except FileNotFoundInEngine:
            raise FileNotFound(path) from None

    def _preadv(self, path: str, spans: list[tuple[int, int]]) -> list[bytes]:
        """Serve every span from one scatter-gather engine read."""
        for offset, size in spans:
            if offset < 0 or size < 0:
                raise InvalidArgument("offset and size must be non-negative")
        frozen = self._frozen(path)
        if frozen is not None:
            device = self.engine.device
            return [frozen.read(device, offset, size) for offset, size in spans]
        if self._snapshot_target(path) is not None:
            raise FileNotFound(path)
        try:
            return self.engine.readv(path, spans)
        except FileNotFoundInEngine:
            raise FileNotFound(path) from None

    def _pwritev(self, path: str, spans: list[tuple[int, bytes]]) -> int:
        """Vectored write; sequential spans coalesce in the engine buffer."""
        if self._snapshot_target(path) is not None:
            raise PermissionDenied(f"{path}: snapshots are read-only")
        for offset, _ in spans:
            if offset < 0:
                raise InvalidArgument("offset must be non-negative")
        try:
            return sum(self.engine.write(path, offset, data) for offset, data in spans)
        except FileNotFoundInEngine:
            raise FileNotFound(path) from None

    def _truncate(self, path: str, size: int) -> None:
        if self._snapshot_target(path) is not None:
            raise PermissionDenied(f"{path}: snapshots are read-only")
        if size < 0:
            raise InvalidArgument("size must be non-negative")
        try:
            self.engine.truncate(path, size)
        except FileNotFoundInEngine:
            raise FileNotFound(path) from None

    # -- session primitives ---------------------------------------------------
    def _session_pread(self, session, path: str, offset: int, size: int) -> bytes:
        if offset < 0 or size < 0:
            raise InvalidArgument("offset and size must be non-negative")
        try:
            return session.read(path, offset, size)
        except FileNotFoundInEngine:
            raise FileNotFound(path) from None

    def _session_pwrite(self, session, path: str, offset: int, data: bytes) -> int:
        if offset < 0:
            raise InvalidArgument("offset must be non-negative")
        try:
            return session.write(path, offset, data)
        except FileNotFoundInEngine:
            raise FileNotFound(path) from None

    def _session_truncate(self, session, path: str, size: int) -> None:
        if size < 0:
            raise InvalidArgument("size must be non-negative")
        try:
            session.truncate(path, size)
        except FileNotFoundInEngine:
            raise FileNotFound(path) from None

    def _session_size(self, session, path: str) -> int:
        try:
            return session.file_size(path)
        except FileNotFoundInEngine:
            raise FileNotFound(path) from None

    def _sync(self, path: str) -> None:
        """``fsync``/``close`` durability: reach the device, not a buffer.

        On a mounted (formatted) engine this publishes the metadata
        image and commits the journal epoch with its write barrier; on
        a plain in-memory engine it degrades to flushing the coalescing
        buffer.  Frozen ``.snap`` views have nothing to make durable.
        """
        if self._snapshot_target(path) is not None:
            return
        self.engine.fsync(path)

    def write_file(self, path: str, data: bytes) -> None:
        """Whole-file writes commit immediately as one batched store."""
        super().write_file(path, data)
        self.engine.sync(path)

    def rename(self, old: str, new: str) -> None:
        """Metadata-only rename (no data copy, unlike the baseline)."""
        try:
            self.engine.rename(old, new)
        except FileNotFoundInEngine:
            raise FileNotFound(old) from None
        except FileExistsInEngine:
            raise FileExists(new) from None

    # -- accounting ---------------------------------------------------------------
    def metrics(self):
        """Engine snapshot: refreshes space/memory gauges before reading."""
        return self.engine.metrics()

    def physical_bytes(self) -> int:
        return self.engine.physical_bytes()

    def compression_ratio(self) -> float:
        return self.engine.compression_ratio()
