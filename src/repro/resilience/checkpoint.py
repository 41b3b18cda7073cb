"""Superstep checkpointing — crash recovery for the iterative loop.

The paper's essential component 4 (the convergent loop) is the natural
recovery seam: a BSP run's entire state between supersteps is (frontier,
value arrays, loop context).  A :class:`Checkpoint` snapshots exactly
that; the enactors save one every ``checkpoint_every`` supersteps into a
:class:`CheckpointStore`, and ``Enactor.resume_from_checkpoint`` restarts
a crashed run from the last completed snapshot instead of superstep 0 —
the GraphX-style recovery argument applied at the loop layer, with no
algorithm-code changes.

Snapshots are copy-on-write: an array that has not changed since the
previous checkpoint shares that checkpoint's buffer instead of being
copied again (a BFS ``parents`` array settles early; CC labels freeze
component by component).
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.errors import CheckpointError


@dataclass
class Checkpoint:
    """One recoverable loop state.

    Attributes
    ----------
    superstep:
        Completed supersteps at the time of the snapshot; resume
        continues from here.
    frontier_indices:
        Active vertex ids entering the next superstep.
    capacity:
        Frontier capacity (vertex count) for reconstruction.
    arrays:
        Named snapshots of the algorithm's value arrays (``dist``,
        ``levels``, ``labels``, ...).  May share buffers with earlier
        checkpoints (copy-on-write); treat as immutable.
    context:
        Shallow copy of the loop's context dict.
    """

    superstep: int
    frontier_indices: np.ndarray
    capacity: int
    arrays: Dict[str, np.ndarray]
    context: Dict[str, object] = field(default_factory=dict)

    def restore_arrays(self, targets: Dict[str, np.ndarray]) -> None:
        """Copy every snapshot back into the live arrays, in place.

        Raises :class:`~repro.errors.CheckpointError` when a named array
        is missing or its shape/dtype disagrees with the snapshot.
        """
        for name, saved in self.arrays.items():
            if name not in targets:
                raise CheckpointError(
                    f"checkpoint array {name!r} has no restore target; "
                    f"targets: {sorted(targets)}"
                )
            live = targets[name]
            if live.shape != saved.shape or live.dtype != saved.dtype:
                raise CheckpointError(
                    f"checkpoint array {name!r} is {saved.dtype}{saved.shape}, "
                    f"target is {live.dtype}{live.shape}"
                )
            np.copyto(live, saved)

    def nbytes(self) -> int:
        """Total snapshot payload (shared buffers counted once per id)."""
        seen = set()
        total = int(self.frontier_indices.nbytes)
        for arr in self.arrays.values():
            if id(arr) not in seen:
                seen.add(id(arr))
                total += int(arr.nbytes)
        return total


def snapshot_arrays(
    arrays: Dict[str, np.ndarray], previous: Optional[Checkpoint]
) -> Dict[str, np.ndarray]:
    """Copy-on-write snapshot of ``arrays`` against the previous checkpoint:
    unchanged arrays share the prior snapshot's buffer."""
    out: Dict[str, np.ndarray] = {}
    for name, arr in arrays.items():
        prev = previous.arrays.get(name) if previous is not None else None
        if (
            prev is not None
            and prev.shape == arr.shape
            and prev.dtype == arr.dtype
            and np.array_equal(prev, arr)
        ):
            out[name] = prev
        else:
            out[name] = np.array(arr, copy=True)
    return out


class CheckpointStore:
    """Bounded in-memory checkpoint history, newest last.

    ``keep_last`` bounds memory; two is enough for copy-on-write sharing
    plus recovery.  Thread-safe so an enactor can save while a monitor
    inspects.
    """

    def __init__(self, keep_last: int = 2) -> None:
        if keep_last < 1:
            raise CheckpointError(
                f"keep_last must be >= 1, got {keep_last}"
            )
        self.keep_last = keep_last
        self._checkpoints: List[Checkpoint] = []
        self._lock = threading.Lock()

    def save(self, checkpoint: Checkpoint) -> None:
        """Append a checkpoint, evicting beyond ``keep_last``."""
        with self._lock:
            self._checkpoints.append(checkpoint)
            del self._checkpoints[: -self.keep_last]

    def latest(self) -> Optional[Checkpoint]:
        """Most recent checkpoint, or ``None`` when the store is empty."""
        with self._lock:
            return self._checkpoints[-1] if self._checkpoints else None

    def __len__(self) -> int:
        with self._lock:
            return len(self._checkpoints)

    def clear(self) -> None:
        """Discard every stored checkpoint."""
        with self._lock:
            self._checkpoints.clear()

    # -- durable form ------------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the latest checkpoint as an ``.npz`` (arrays verbatim,
        scalars and the context dict JSON-encoded under ``__meta__``)."""
        ckpt = self.latest()
        if ckpt is None:
            raise CheckpointError("no checkpoint to dump")
        payload = {f"array__{k}": v for k, v in ckpt.arrays.items()}
        payload["frontier_indices"] = ckpt.frontier_indices
        meta = {
            "superstep": ckpt.superstep,
            "capacity": ckpt.capacity,
            "context": ckpt.context,
        }
        try:
            payload["__meta__"] = np.frombuffer(
                json.dumps(meta).encode("utf-8"), dtype=np.uint8
            )
        except TypeError as exc:
            raise CheckpointError(
                f"checkpoint context not JSON-serializable: {exc}"
            ) from exc
        np.savez(path, **payload)

    @staticmethod
    def load(path: str) -> Checkpoint:
        """Read a checkpoint written by :meth:`dump` (older files' ``kind``
        and ``extra`` keys are ignored)."""
        try:
            with np.load(path) as data:
                meta = json.loads(bytes(data["__meta__"]).decode("utf-8"))
                arrays = {
                    k[len("array__"):]: data[k]
                    for k in data.files
                    if k.startswith("array__")
                }
                frontier_indices = data["frontier_indices"]
        except (OSError, KeyError, ValueError) as exc:
            raise CheckpointError(
                f"cannot load checkpoint from {path!r}: {exc}"
            ) from exc
        return Checkpoint(
            superstep=int(meta["superstep"]),
            frontier_indices=frontier_indices,
            capacity=int(meta["capacity"]),
            arrays=arrays,
            context=dict(meta.get("context", {})),
        )
