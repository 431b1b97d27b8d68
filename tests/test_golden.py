"""What the tiny pipeline computes, held to tests/golden/tiny_pipeline.json."""

from __future__ import annotations

import json
import math

from golden.regenerate import GOLDEN, record

RTOL = 1e-9


def _differences(got, want, path="") -> list[str]:
    """Where `got` differs from `want`: floats beyond RTOL, anything else at all."""
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [d for k in want for d in _differences(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [d for k, (g, w) in enumerate(zip(got, want)) for d in _differences(g, w, f"{path}[{k}]")]
    if isinstance(want, float) and isinstance(got, float):
        return [] if math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0) else [f"{path}: {got!r} != {want!r}"]
    return [] if (type(got), got) == (type(want), want) else [f"{path}: {got!r} != {want!r}"]


def test_the_tiny_pipeline_computes_its_golden_values(tmp_path):
    # ingest's cleaned CSVs involve no GEMM, so their sha256 is pinned; every trained
    # number holds at 1e-9, which OpenBLAS kernels' rounding (about 1e-15) stays within
    got, want = record(tmp_path), json.loads(GOLDEN.read_text(encoding="utf-8"))
    # gradcheck's error is the finite differences' rounding, which the kernel moves:
    # 1.05e-6 to 2.43e-6 over OpenBLAS's SkylakeX, Haswell, Sandybridge, Nehalem and
    # Katmai kernels. A wrong gradient reads about 1.
    err = got.pop("gradcheck_max_relative_error")
    assert err < 10 * want.pop("gradcheck_max_relative_error")
    assert _differences(got, want) == []
