"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload embed-files --seed 1 --seconds 15 --trace 0

Workloads: ``embed-files`` (seller path, in-process), ``screen-attribute``
(owner screening on local and remote workers, leak attribution, buyer
registration) and ``service-mixed`` (open-loop requests to a spawned
``freqywm serve --socket``, then an in-process replay). Inputs are
generated from ``--seed`` before any timing.

Every workload reports the same end-to-end metrics, each bound to one of
its own op classes (listed in ``BENCHMARK.json`` and below); each class
is timed and reported on its own, never as a median over a mix. The
latency metrics are medians of ops run one at a time, closed loop:

=================  =====================  ===================  ==================
metric             embed-files            screen-attribute     service-mixed
=================  =====================  ===================  ==================
``setup_s``        fresh ``import         vault open + worker  server spawn until
                   repro.cli`` (median    start (median of 3)  first answer
                   of 5)                                       (median of 3)
``peak_rss_mb``    this process, timed    this process, timed  the server
                   phase                  phase
``heavy_ms``       1M-line file embed     screen, local pool   ``embed`` request
``mid_ms``         100k-line file embed   screen, remote       ``attribute``
                                          workers              request
``light_ms``       100k-sample            ``attribute_leak``   ``detect`` request
                   histogram embed
=================  =====================  ===================  ==================

On service-mixed the requests are timed as a caller of the library's
``SyncDetectionService`` sees them (decode, submit, encode), replayed
after the open loop over the socket has run; the socket's response
times, their tails and every check on them are in the report line and
the result's ``correct``. Over the socket a request waits whenever the
hypervisor lends one of the two cores to another tenant (steal time,
from under 1 % to over 20 % of a run on a 2-core shared host), and that
wait sets response times: their medians spread by up to 0.71 over ten
seeds, more than any bound allows.

End-to-end times are scaled to a reference machine speed (see
``common.Speed``): co-tenants on a shared host move its speed by tens
of percent within minutes, so each op is multiplied by a fixed
reference time over the time of a calibration kernel (no program code)
measured next to it while the program idles: between ops, or, for the
socket's figures, between the rounds of the open loop, pooled over them. Raw
figures are in the report line. ``setup_s`` on embed-files uses a
kernel run inside each fresh interpreter, before and after its import,
pooled over the starts. Memory is not scaled.

The line before the result carries the workload's own named figures
(``embed_tokens_per_s``, ``register_p50_ms``, ``false_accuse_share`` and
so on). ``--trace 1`` runs a fixed op list with spans recorded from these
files around each call into a layer, writes the spans to
``.perfbench_out/`` and reports the per-layer metrics instead; a layer
the workload never crosses reads 0. Exit status: 0 on success, 1 when an
output check fails, 2 when the checkout holds no program.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys

from common import ROOT, SRC, CheckFailed, adopt_orphans, stop_descendants

WORKLOADS = {
    "embed-files": "embed_files",
    "screen-attribute": "screen_attribute",
    "service-mixed": "service_mixed",
}


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} is missing; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = importlib.import_module(WORKLOADS[args.workload])
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    trace_path = ROOT / ".perfbench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
    work.mkdir(parents=True)
    adopt_orphans()
    correct = True
    try:
        outcome = workload.run(args.seed, args.seconds, bool(args.trace), work, trace_path)
    except CheckFailed as error:
        print(f"check failed: {error}", file=sys.stderr)
        correct = False
    finally:
        stop_descendants()
        shutil.rmtree(work, ignore_errors=True)
    if not correct:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    metrics = {}
    for entry in expected:
        value, unit = outcome.metrics.get(entry["name"], (0.0, entry["unit"]))
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']} measured in {unit}, declared {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}
    unknown = set(outcome.metrics) - set(metrics)
    if unknown:
        raise RuntimeError(f"undeclared metrics: {sorted(unknown)}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "report": outcome.report}))
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
