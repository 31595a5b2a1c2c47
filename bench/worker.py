"""One fresh interpreter of the benchmark: a workload body or a CLI command.

    python3 bench/worker.py <task> <mode> <record.json> [cli arguments...]

`task` is `commute`, `kp` or `cli`; `mode` is `run`, `trace` (install the
tracer first) or `probe` (import and exit).  The worker stamps the
monotonic clock once the hopfq modules are imported, runs the task, and
writes its stamps, checks and trace summary to the record file.  For `cli`
it stands in for `python -m hopfq.cli`: it calls `hopfq.cli.main(argv)` and
exits with its return code, so stdout and exit status are the command's.
"""

import importlib
import json
import sys
import time

IMPORTS = {"commute": ("hopfq.hamiltonians",),
           "kp": ("hopfq.disk", "hopfq.kp"),
           "cli": ("hopfq.cli",)}


def main(argv):
    task, mode, record_path = argv[:3]
    if task != "cli":
        import workloads
    for name in IMPORTS[task]:
        importlib.import_module(name)
    record = {"ready": time.monotonic()}
    rc = 0
    tracer = None
    try:
        if mode == "trace":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        if mode == "probe":
            pass
        elif task == "cli":
            rc = sys.modules["hopfq.cli"].main(argv[3:])
        else:
            body = workloads.run_commute if task == "commute" else workloads.run_kp
            record["checks"] = body()
            record["done"] = time.monotonic()
    finally:
        if tracer is not None:
            tracer.uninstall()
            record["trace"] = tracer.summary()
            tracer.write_spans(record_path + ".spans.jsonl")
        with open(record_path, "w") as fh:
            json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
