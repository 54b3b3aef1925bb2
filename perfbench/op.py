"""Run one operation of a workload in this fresh process.

Usage: python3 perfbench/op.py WORKLOAD SEED WORKDIR run|replay

Writes the output to WORKDIR/part-<k> and {"peak_rss_mb": ...} to
WORKDIR/result.json.  A replay is the same operation with fel's layer
functions wrapped in spans (spans.traced_fel).  It also writes its spans,
counts and the measured cost of one span to WORKDIR/trace.json, and the
coefficient tables fel computed to WORKDIR/calls.npz.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer, peak_rss_mb, span_cost, traced_fel  # noqa: E402


def main(name: str, seed: int, workdir: Path, kind: str) -> None:
    workload = workloads.WORKLOADS[name](seed, workdir)
    if kind == "replay":
        tracer = Tracer(run_id=f"{name}/{seed}/{workdir.name}")
        with traced_fel(tracer), tracer.span("op", workload=name, seed=seed):
            output = workload.run()
        (workdir / "trace.json").write_text(json.dumps(
            {"spans": tracer.spans, "counts": dict(tracer.counts), "span_cost_s": span_cost()}))
        arrays = {}
        for k, call in enumerate(tracer.calls):
            arrays[f"values{k}"], arrays[f"table{k}"] = call.pop("values"), call.pop("table")
        np.savez(workdir / "calls.npz", calls=json.dumps(tracer.calls), **arrays)
    else:
        output = workload.run()
    for k, part in enumerate(output):
        (workdir / f"part-{k}").write_bytes(part)
    (workdir / "result.json").write_text(json.dumps({"peak_rss_mb": peak_rss_mb(),
                                                     "parts": len(output)}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), sys.argv[4])
