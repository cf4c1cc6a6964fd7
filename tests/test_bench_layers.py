"""The layer bench (bench/layers.py) runs and writes a complete file."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def test_quick_layer_bench_writes_every_record(tmp_path):
    out = tmp_path / "layers.json"
    subprocess.run([sys.executable, str(LAYERS), "--quick", "--out", str(out)],
                   check=True, capture_output=True, timeout=300)
    bench = json.loads(out.read_text())
    assert {"environment", "protocol", "layers", "setups", "import"} <= set(bench)
    assert bench["layers"] and bench["setups"]
    assert all(row["ms_per_trial"] for row in bench["layers"]
               if row["layer"] != "invert_rows")
    imported = bench["import"]
    assert imported["interpreters"] == 1
    assert imported["ms_per_import"]["n"] == 1
    assert imported["maxrss_mb"]["p50"] > 0
    assert imported["heavy_modules"] == []
