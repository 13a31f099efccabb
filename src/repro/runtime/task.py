"""Task objects submitted to the runtime."""

from __future__ import annotations

import enum
import itertools
import threading
from typing import Any, Callable, Sequence

from repro.runtime.handle import AccessMode, DataHandle

__all__ = ["Task", "TaskState", "TaskError"]

_task_counter = itertools.count()
_counter_lock = threading.Lock()


class TaskState(enum.Enum):
    """Lifecycle of a task inside the runtime."""

    PENDING = "pending"
    READY = "ready"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


class TaskError(RuntimeError):
    """Raised by :meth:`Runtime.wait_all` when one or more tasks failed.

    The original exception of the first failing task is chained as
    ``__cause__`` and all failures are listed in :attr:`failures`.
    """

    def __init__(self, failures: Sequence[tuple["Task", BaseException]]):
        self.failures = list(failures)
        first_task, first_exc = self.failures[0]
        super().__init__(
            f"{len(self.failures)} task(s) failed; first failure in "
            f"{first_task.name!r}: {first_exc!r}"
        )


class Task:
    """A unit of work: a callable plus declared data accesses.

    Parameters
    ----------
    func : callable
        The task body.  It is invoked as ``func(*payloads, **kwargs)`` where
        ``payloads`` are the current payloads of the accessed handles, in the
        declaration order.  If the callable returns a tuple with as many
        entries as there are handles opened for WRITE/READWRITE, each returned
        value replaces the corresponding handle payload; returning ``None``
        means the task mutated the payloads in place (the common case for
        NumPy tiles).
    accesses : sequence of (DataHandle, AccessMode)
        Declared data accesses, used for dependency inference and to build the
        argument list.
    name : str
        Name shown in traces.
    priority : int
        Larger values run earlier when the scheduler has a choice.  The tiled
        Cholesky uses this to favour the critical path (panel factorizations).
    cost : float
        Optional cost estimate (model flops or seconds) used by the simulated
        distributed scheduler.
    """

    __slots__ = (
        "uid",
        "func",
        "accesses",
        "kwargs",
        "name",
        "priority",
        "cost",
        "state",
        "result",
        "exception",
        "worker",
        "tag",
    )

    def __init__(
        self,
        func: Callable[..., Any],
        accesses: Sequence[tuple[DataHandle, AccessMode]] = (),
        kwargs: dict[str, Any] | None = None,
        name: str = "",
        priority: int = 0,
        cost: float = 0.0,
        tag: str = "",
    ) -> None:
        with _counter_lock:
            self.uid = next(_task_counter)
        self.func = func
        self.accesses = list(accesses)
        for handle, mode in self.accesses:
            if not isinstance(handle, DataHandle):
                raise TypeError(f"task access must use DataHandle, got {type(handle).__name__}")
            if not isinstance(mode, AccessMode):
                raise TypeError(f"task access mode must be AccessMode, got {type(mode).__name__}")
        self.kwargs = dict(kwargs or {})
        self.name = name or getattr(func, "__name__", f"task{self.uid}")
        self.priority = int(priority)
        self.cost = float(cost)
        self.state = TaskState.PENDING
        self.result: Any = None
        self.exception: BaseException | None = None
        self.worker: int | None = None
        self.tag = tag

    # -- execution -----------------------------------------------------------------
    def handles(self) -> list[DataHandle]:
        return [h for h, _ in self.accesses]

    def written_handles(self) -> list[DataHandle]:
        return [h for h, m in self.accesses if m.writes]

    def read_handles(self) -> list[DataHandle]:
        return [h for h, m in self.accesses if m.reads]

    def execute(self) -> Any:
        """Run the task body against the current handle payloads."""
        payloads = [h.get() for h, _ in self.accesses]
        out = self.func(*payloads, **self.kwargs)
        written = self.written_handles()
        if out is not None and written:
            if isinstance(out, tuple) and len(out) == len(written):
                for handle, value in zip(written, out):
                    handle.set(value)
            elif len(written) == 1:
                written[0].set(out)
        self.result = out
        return out

    def release(self) -> None:
        """Drop the body, its arguments and its handles once the task has run.

        A runtime keeps a window of executed tasks for inspection; without
        this the window would also keep alive every buffer those tasks
        referenced, such as the workspace of a sweep that has finished.
        """
        self.func = None
        self.accesses = []
        self.kwargs = {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Task({self.name!r}, uid={self.uid}, state={self.state.value})"

    def __hash__(self) -> int:
        return self.uid

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Task) and other.uid == self.uid
