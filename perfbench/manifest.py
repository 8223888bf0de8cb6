"""Host and settings manifest recorded with every result.

BLAS details are read with ctypes from the OpenBLAS library numpy
itself loaded; the thread count is recorded as found, never set.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys


def _loaded_openblas():
    """Path of the OpenBLAS shared object mapped into this process."""
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                path = line.rsplit(" ", 1)[-1].strip()
                if "openblas" in os.path.basename(path).lower():
                    return path
    except OSError:
        return None
    return None


def _openblas_info(path):
    info = {"library": os.path.basename(path) if path else None,
            "threads": None, "config": None, "core": None}
    if not path:
        return info
    lib = ctypes.CDLL(path)
    for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", ""),
                           ("openblas_", "64_")):
        try:
            threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
            config = getattr(lib, f"{prefix}get_config{suffix}")
            core = getattr(lib, f"{prefix}get_corename{suffix}")
        except AttributeError:
            continue
        threads.argtypes, threads.restype = [], ctypes.c_int
        config.argtypes, config.restype = [], ctypes.c_char_p
        core.argtypes, core.restype = [], ctypes.c_char_p
        info.update(threads=int(threads()),
                    config=config().decode("ascii", "replace").strip(),
                    core=core().decode("ascii", "replace").strip())
        break
    return info


def host_manifest() -> dict:
    import numpy as np

    blas = dict(np.__config__.CONFIG["Build Dependencies"]["blas"])
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 **_openblas_info(_loaded_openblas())},
    }


def resolved_knobs() -> dict:
    """The sparse/footprint/worker settings as the program resolves
    them, next to the raw environment values."""
    from repro.core import frame_pool
    from repro.models.footprint import footprint_enabled
    from repro.models.sparse import sparse_enabled

    return {
        "REPRO_SPARSE": os.environ.get("REPRO_SPARSE"),
        "REPRO_FOOTPRINT": os.environ.get("REPRO_FOOTPRINT"),
        "REPRO_WORKERS": os.environ.get("REPRO_WORKERS"),
        "sparse": sparse_enabled(None),
        "footprint": footprint_enabled(None),
        # Every workload passes the public default workers=1.
        "workers": frame_pool.resolve_workers(1 << 20, 1),
    }
