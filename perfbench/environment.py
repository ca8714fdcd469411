"""Thread caps for the child interpreters and a record of the machine
that every result carries."""

import importlib.util
import os
import platform


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def blas_threads():
    return min(2, nproc())


def thread_env():
    n = str(blas_threads())
    return {"OPENBLAS_NUM_THREADS": n, "OMP_NUM_THREADS": n, "MKL_NUM_THREADS": n}


def _meminfo_mb():
    out = {}
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                key, _, rest = line.partition(":")
                if key in ("MemTotal", "MemAvailable"):
                    out[key] = int(rest.split()[0]) // 1024
    except OSError:
        pass
    return out.get("MemTotal"), out.get("MemAvailable")


def _blas_version():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def describe():
    import numpy as np

    total, available = _meminfo_mb()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_version(),
        "blas_threads": blas_threads(),
        "nproc": nproc(),
        "mem_total_mb": total,
        "mem_available_mb": available,
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }
