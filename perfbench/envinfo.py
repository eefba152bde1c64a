"""Machine and environment recorded with every benchmark result."""

import ctypes
import os
import platform


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_bytes(level):
    """Size of cpu0's level-``level`` data or unified cache, from sysfs."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = os.listdir(base)
    except OSError:
        return None
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    for entry in sorted(entries):
        path = os.path.join(base, entry)
        try:
            with open(os.path.join(path, "level"), encoding="utf-8") as fh:
                if int(fh.read()) != level:
                    continue
            with open(os.path.join(path, "type"), encoding="utf-8") as fh:
                if fh.read().strip() == "Instruction":
                    continue
            with open(os.path.join(path, "size"), encoding="utf-8") as fh:
                size = fh.read().strip()
        except (OSError, ValueError):
            continue
        if size[-1:] in units:
            return int(size[:-1]) * units[size[-1]]
        return int(size)
    return None


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, read through its C API."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def machine():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    info = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "l2_bytes": _cache_bytes(2),
        "l3_bytes": _cache_bytes(3),
    }
    info["note"] = (
        f"thread scaling above {nproc} threads cannot be measured on this machine; "
        "the CLI workload runs --threads 2"
    )
    return info
