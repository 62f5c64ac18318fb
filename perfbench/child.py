"""One fresh benchmark process: set up, then run and check one iteration.

Started by run.py with the path of a JSON spec. Set-up is everything from
interpreter start to the first timed command: importing probeforge from the
checkout's src/ and loading the workload's inputs. The result is written
as JSON to the path the spec names. Exit code 3 means probeforge resolved
somewhere other than the checkout being measured.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = (Path(spec["root"]) / "src").resolve()
    sys.path.insert(0, str(src))
    import probeforge

    module = Path(probeforge.__file__).resolve()
    if module.parent != src / "probeforge":
        print(f"perfbench: probeforge resolved to {module}, not under {src}",
              file=sys.stderr)
        return 3
    import workloads

    world = spec["world"]
    inputs = workloads.load_inputs(world)
    result = {"ready": time.monotonic(), "module": str(module)}

    if spec["mode"] == "iteration":
        tracer = None
        if spec["trace"]:
            import tracing
            from probeforge import cli, rewire

            tracer = tracing.Tracer()
            tracer.install(cli, rewire)
        out = Path(spec["out"])
        argvs = workloads.commands(world, out)
        start = time.perf_counter()
        records, end = workloads.run_commands(argvs, tracer)
        result["wall_s"] = end - start
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["commands"] = records
        if all(r["rc"] == 0 for r in records):  # commands stop at the first failure
            result.update(workloads.check(world, inputs, out, spec["oracle"]))
        if tracer is not None:
            result["layers"], result["step_s"] = tracer.summary()
            Path(spec["spans"]).write_text(json.dumps(tracer.dump()), encoding="utf-8")

    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
