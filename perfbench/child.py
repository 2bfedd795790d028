"""One benchmark process, started by ``run.py``.

Roles:

``fill``
    the untimed earlier process that fills the artifact store;
``setup``
    set up as a user would, note when ready, and exit;
``measure``
    set up, run the timed loop, stop, verify every output and write the
    measurements; with ``--trace 1`` the layer entry points are wrapped
    and the per-layer metrics are written too.

Input generation happens before set-up and is timed separately, so the
parent can leave it out of ``setup_s``.  The result is one JSON object
written to ``--out``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("fill", "setup", "measure"),
                        required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="sizes the run: about this long on the reference box")
    parser.add_argument("--ops", type=int, default=None,
                        help="run exactly this many operations instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None,
                        help="where a traced run writes its spans (JSONL)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import workloads
    from common import cpu_seconds, latency_summary, peak_rss_mb

    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
        tracer.install()
    started = time.monotonic()
    if args.role == "measure":
        workload.generate(args.seconds, args.ops)
    else:
        workload.generate_kbs()
    out = {"gen_s": time.monotonic() - started}
    if args.role == "fill":
        workload.fill(os.path.join(args.work, "store"))
        return write(args.out, out)
    if tracer is not None:
        allsat_before = layers.allsat_counts()
    workload.setup(args.work)
    out["t_ready"] = time.monotonic()
    if args.role == "setup":
        workload.teardown()
        return write(args.out, out)

    # The inputs and set-up state live through the whole loop; keep the
    # collector from rescanning them, so collections inside the timed
    # loop cost what the loop itself allocates.
    gc.collect()
    gc.freeze()
    pids = workload.live_pids()
    cpu_before = cpu_seconds(pids)
    begin = time.perf_counter()
    if isinstance(workload, workloads.Service):
        on_request = None
        if tracer is not None:
            def on_request(sent, finished):
                tracer.record("service.request", sent, finished)
        workload.run(on_request=on_request)
    else:
        workload.run()
    end = time.perf_counter()
    cpu_s = cpu_seconds(workload.live_pids()) - cpu_before
    workload.teardown()
    rss_mb = peak_rss_mb()
    wall_s = end - begin

    layer_values = None
    if tracer is not None:
        tracer.enabled = False
        service = isinstance(workload, workloads.Service)
        if service:
            # Worker layers are measured on an inline replay of the run.
            allsat_before = layers.allsat_counts()
            tracer.enabled = True
            workload.replay()
            tracer.enabled = False
        # Every chain and service record is one revise_chain call.
        chain_requests = (0 if isinstance(workload, workloads.OneShot)
                          else len(workload.records))
        layer_values = layers.layer_metrics(
            tracer.spans, allsat_before, workload.caches, chain_requests)
        layer_values.update(
            layers.service_metrics(workload.records if service else []))
        top = [(start, stop) for _, start, stop, depth, _ in tracer.spans
               if depth == 0]
        layer_values["unattributed_s"] = (
            wall_s - layers.covered(top, begin, end))

    workload.verify()

    if tracer is not None and isinstance(workload, workloads.OneShot):
        # select.delta_*: the public delta_bits on every pair, outside
        # the timed loop.
        from repro.revision import model_based

        first = len(tracer.spans)
        tracer.enabled = True
        for t_bits, p_bits in workload.delta_pairs():
            model_based.delta_bits(t_bits, p_bits)
        tracer.enabled = False
        delta = [span for span in tracer.spans[first:]
                 if span[0] == "select.delta"]
        layer_values["select.delta_s"] = sum(span[2] - span[1]
                                             for span in delta)
        layer_values["select.delta_rows"] = sum(span[4]["rows"]
                                                for span in delta)
    if tracer is not None and args.spans:
        tracer.dump(args.spans)

    outcome = workload.outcome
    summary = latency_summary(outcome.revisions, penalty_s=wall_s)
    revisions_ok = outcome.revisions_ok
    attempted = len(outcome.revisions) + outcome.queries_attempted
    failed = (len(outcome.revisions) - revisions_ok
              + outcome.queries_attempted - outcome.queries_ok)
    out.update({
        "wall_s": wall_s,
        "attempted": attempted,
        "failed": failed,
        "revisions": len(outcome.revisions),
        "revisions_ok": revisions_ok,
        "queries": outcome.queries_attempted,
        "queries_ok": outcome.queries_ok,
        "verified": outcome.verified,
        "latency": summary,
        "failures": dict(outcome.failures),
        "setup_failures": dict(getattr(workload, "warm_failures", {})),
        "metrics": {
            "revisions_per_s": revisions_ok / wall_s,
            "revise_p50_ms": 1000.0 * summary["p50_s"],
            "revise_tail_ms": 1000.0 * summary["tail_s"],
            "queries_per_s": (outcome.queries_ok / outcome.query_time_s
                              if outcome.query_time_s else 0.0),
            "cpu_s_per_revision": cpu_s / max(1, revisions_ok),
            "peak_rss_mb": rss_mb,
        },
        "layers": layer_values,
    })
    return write(args.out, out)


def write(path: str, payload: dict) -> int:
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
