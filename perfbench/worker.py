"""Long-lived `eval` worker: one expression per stdin line, one JSON reply per line.

Each request runs ``pcqm.expr.evaluate_text(text).render()``.  The worker
prints ``ready`` once pcqm is imported.  When stdin closes it prints a final
JSON line with its peak RSS and, when started with ``--summary``/``--spans``,
the trace summary, then exits.

    python3 perfbench/worker.py [--summary S.json --spans S.jsonl --request-base N]
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    opts = dict(zip(argv[::2], argv[1::2]))
    tracer = None
    if "--summary" in opts:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.request_id = int(opts["--request-base"])
        tracing.install(tracer)
    from pcqm import expr

    out = sys.stdout
    out.write("ready\n")
    out.flush()
    for line in sys.stdin:
        text = line.rstrip("\n")
        if tracer is not None:
            tracer.request_id += 1
        cpu = time.process_time()
        try:
            reply = {"ok": True, "out": expr.evaluate_text(text).render()}
        except Exception as err:  # a failed request is reported, the worker keeps serving
            reply = {"ok": False, "error": f"{type(err).__name__}: {err}"}
        reply["cpu_s"] = time.process_time() - cpu
        out.write(json.dumps(reply) + "\n")
        out.flush()
    final = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.dump(opts["--spans"])
        with open(opts["--summary"], "w") as fh:
            json.dump(tracer.summary(), fh)
    out.write(json.dumps(final) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
