"""Golden files keyed by CPU level.

Some recorded bits depend on the host as well as on the code: numpy picks
its SIMD kernels (for exp, sqrt and ** among others) at run time, and each
OpenBLAS picks a kernel set for its products and factorizations. So a golden
file maps each level it was recorded at to that level's values, and a test
compares only against the entry of the level it runs at. A golden of code
that makes no BLAS call is keyed by numpy's targets alone (blas=False), so
one entry serves every OpenBLAS kernel set.
"""

import json
from pathlib import Path

import pytest

from curebo.blas import openblas_cores


def dispatch_level(blas: bool = True) -> str:
    """numpy's enabled dispatch targets and, with blas, the kernel set of each
    loaded OpenBLAS, as one string."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    enabled = " ".join(f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f))
    level = f"numpy {enabled or 'baseline'}"
    if not blas:
        return level
    cores = " ".join(sorted(set(openblas_cores().values()))) or "not found"
    return f"{level}; OpenBLAS {cores}"


def recorded_at_this_level(path: Path, script: str, blas: bool = True) -> dict:
    """The entry of the golden file at path for the running level; the test
    fails, naming the level and the script that records it, where there is
    none."""
    golden = json.loads(path.read_text())
    level = dispatch_level(blas)
    if level not in golden:
        pytest.fail(f"no entry in {path.name} for the level {level!r}: record it with python {script}")
    return golden[level]


def record_this_level(path: Path, entry: dict, item_text, blas: bool = True) -> None:
    """Write entry as the running level's and keep the other levels' entries,
    one level per block; item_text(name, value) formats one item of a block."""
    level = dispatch_level(blas)
    golden = json.loads(path.read_text()) if path.exists() else {}
    golden[level] = entry
    blocks = [
        f" {json.dumps(level)}: {{\n"
        + ",\n".join(item_text(name, value) for name, value in items.items())
        + "\n }"
        for level, items in golden.items()
    ]
    path.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    print(f"wrote the level {level!r} to {path}")
