"""Print, as JSON, the Python and numpy versions and the BLAS library numpy
loaded with the thread count the library itself reports.

Run it with the same environment as the program under test, so the
record shows the setting in effect there.
"""

from __future__ import annotations

import ctypes
import json
import platform
from pathlib import Path

import numpy as np

THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                  "openblas_get_num_threads", "MKL_Get_Max_Threads")


def blas() -> dict:
    record = {"library": None, "threads": None}
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return record
    for lib in sorted({line.split()[-1] for line in maps.splitlines()
                       if "blas" in line.lower() and ".so" in line}):
        record["library"] = Path(lib).name
        handle = ctypes.CDLL(lib)
        for symbol in THREAD_QUERIES:
            query = getattr(handle, symbol, None)
            if query is not None:
                query.argtypes = []
                query.restype = ctypes.c_int
                record["threads"] = query()
                return record
    return record


if __name__ == "__main__":
    print(json.dumps({"python": platform.python_version(), "numpy": np.__version__,
                      "blas": blas()}))
