"""Result encoding for the warm worker pool.

A worker pickles each cell's result once with :func:`encode_result` and
the parent restores it with :func:`decode_result`. Every job kind's
result is a few hundred bytes to under 2 KB, so it travels inline
through the pool's result pipe.

The module once also moved large results through ``/dev/shm`` blocks;
no result ever reached that path's 256 KiB threshold, and it is gone.
The module keeps its name because the benchmark's traced run
(``perfbench/probes.py``) probes ``repro.exec.shm.encode_result`` to
measure result bytes per cell.
"""

from __future__ import annotations

import pickle
from typing import Any


def encode_result(obj: Any) -> bytes:
    """Pickle one job result for the trip back to the parent."""
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def decode_result(data: bytes) -> Any:
    """Reverse :func:`encode_result`."""
    return pickle.loads(data)
