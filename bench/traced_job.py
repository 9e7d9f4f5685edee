"""Run one kwise CLI job in-process with a span around every call between layers.

    python3 bench/traced_job.py JOB_ID SPANS_FILE -- <kwise arguments>

The layers are the package modules named in LAYERS.  Every binding in one
module of a function defined in another layer (cli's `count_tuples`,
recursion's `_count_caps`, density's `sieve_primes`, ...) is replaced by a
wrapper that records a span named `<layer>.<function>`; a function of any
other module counts toward the layer that calls it.  The root span `job`
covers the import of kwise.cli (span `cli.import`) and the call of
cli.main (span `cli.main`).  Spans stay in memory and are appended to
SPANS_FILE as JSON lines once the job is done; stdout and the exit code
are those of the plain CLI.  Calls inside process-pool workers are not
traced: their time shows as the self time of the span that dispatched
them.
"""

from __future__ import annotations

import functools
import io
import json
import sys
import time
from contextlib import contextmanager, redirect_stdout
from types import FunctionType

LAYERS = ("cli", "arith", "density", "coprime", "recursion", "stats")


class Tracer:
    def __init__(self, job: str):
        self.job = job
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.stack = [0]
        self.opened = 0

    def _open(self) -> tuple[int, int]:
        self.opened += 1
        self.stack.append(self.opened)
        return self.opened, time.perf_counter_ns()

    def _close(self, sid: int, start: int, name: str) -> None:
        end = time.perf_counter_ns()
        self.stack.pop()
        self.spans.append((sid, self.stack[-1], name, start, end))

    @contextmanager
    def span(self, name: str):
        sid, start = self._open()
        try:
            yield
        finally:
            self._close(sid, start, name)

    def wrap(self, fn: FunctionType) -> FunctionType:
        name = f"{fn.__module__.removeprefix('kwise.')}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, start = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, start, name)

        return traced

    def instrument(self, modules) -> None:
        """Wrap every binding of a function that another layer defines."""
        wrapped: dict[FunctionType, FunctionType] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (isinstance(obj, FunctionType) and obj.__module__ != mod.__name__
                        and obj.__module__.removeprefix("kwise.") in LAYERS):
                    if obj not in wrapped:
                        wrapped[obj] = self.wrap(obj)
                    setattr(mod, attr, wrapped[obj])

    def dump(self, path: str) -> None:
        with open(path, "a") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"job": self.job, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")


def main() -> int:
    job, spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    tracer = Tracer(job)
    out = io.StringIO()
    try:
        with tracer.span("job"):
            with tracer.span("cli.import"):
                import kwise.cli
            tracer.instrument(m for name, m in sys.modules.items() if name.startswith("kwise."))
            with tracer.span("cli.main"), redirect_stdout(out):
                code = kwise.cli.main(argv)
            sys.stdout.write(out.getvalue())
            sys.stdout.flush()
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
