"""Thread counts and kernel names of the OpenBLAS libraries loaded in this process.

numpy and scipy wheels each bundle their own OpenBLAS, and each starts one
thread per core. A cBO run pins every loaded OpenBLAS to one thread for its
loop, in the calling process or in a study worker, so that side-by-side
workers do not fight over the cores and no result depends on the caller's
thread count.

Libraries are found with ``dl_iterate_phdr``. Where the C library lacks it
(macOS, Windows), or where the BLAS is not OpenBLAS (MKL, Accelerate), no
handle is found and the functions below see or pin nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import os

# numpy's bundled build exports scipy_openblas_*64_, scipy's scipy_openblas_*,
# a system build openblas_*, an ILP64 system build openblas_*64_ or *_64.
_PREFIXES = ("scipy_", "")
_SUFFIXES = ("", "64_", "_64")


class _PhdrInfo(ctypes.Structure):
    # leading fields of struct dl_phdr_info; the callback reads no others
    _fields_ = [("dlpi_addr", ctypes.c_void_p), ("dlpi_name", ctypes.c_char_p)]


_PHDR_CALLBACK = ctypes.CFUNCTYPE(
    ctypes.c_int, ctypes.POINTER(_PhdrInfo), ctypes.c_size_t, ctypes.c_void_p
)


def _loaded_libraries() -> list[str]:
    """Paths of the shared objects loaded in this process."""
    try:
        iterate = ctypes.CDLL(None).dl_iterate_phdr
    except (AttributeError, OSError, TypeError):
        return []
    paths: list[str] = []

    def visit(info, _size, _data):
        name = info.contents.dlpi_name
        if name:
            paths.append(os.fsdecode(name))
        return 0

    callback = _PHDR_CALLBACK(visit)
    iterate.argtypes = [_PHDR_CALLBACK, ctypes.c_void_p]
    iterate.restype = ctypes.c_int
    iterate(callback, None)
    return paths


def _openblas_functions():
    """(path, get_num_threads, set_num_threads, get_corename) for each loaded
    OpenBLAS; get_corename is None where the library does not export it."""
    found = []
    for path in _loaded_libraries():
        if "openblas" not in os.path.basename(path).lower():
            continue
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for prefix, suffix in itertools.product(_PREFIXES, _SUFFIXES):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                core = getattr(lib, f"{prefix}openblas_get_corename{suffix}", None)
                if core is not None:
                    core.argtypes, core.restype = [], ctypes.c_char_p
                found.append((path, get, set_, core))
                break
    return found


def openblas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS loaded in this process, keyed by path."""
    return {path: get() for path, get, _, _ in _openblas_functions()}


def openblas_cores() -> dict[str, str]:
    """Kernel set (OpenBLAS's core name, such as "Haswell") of every OpenBLAS
    loaded in this process that reports one, keyed by path."""
    return {path: core().decode() for path, _, _, core in _openblas_functions() if core}


@contextlib.contextmanager
def openblas_pinned_to_one_thread():
    """Pin every OpenBLAS loaded in this process to one thread for the block,
    then give each back the thread count it had before."""
    functions = _openblas_functions()
    counts = [get() for _, get, _, _ in functions]
    for _, _, set_, _ in functions:
        set_(1)
    try:
        yield
    finally:
        for (_, _, set_, _), count in zip(functions, counts):
            set_(count)
