"""Run one ``polymod`` command with its public functions wrapped in spans.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    PERFBENCH_SPANS=out.json python3 perfbench/tracer.py verify --suite all --n 5

The command's stdout, stderr and exit code are those of ``polymod`` itself.
Before ``main`` runs, every function in ``TRACED`` is replaced by a timing
wrapper in each ``polymod.*`` module that binds it by name, so calls made
through any module's globals are seen.  Spans (name, start, end, parent) are
kept in memory; at exit they are reduced to per-function call counts, total
and self times, and written once to the JSON file named by ``PERFBENCH_SPANS``.
A span's self time is its duration minus the durations of its direct child
spans, so the self times of one command add up to at most its ``main`` span.
"""

from __future__ import annotations

import json
import os
import sys
import time

#: (layer, function) pairs wrapped in spans; the layer is the defining module.
TRACED = (
    ("combinatorics", "sample_weight_rng"),
    ("combinatorics", "validate_weight"),
    ("combinatorics", "enumerate_labels"),
    ("planar", "complete_triangle"),
    ("planar", "pentagon_feet"),
    ("lorentz", "build_model"),
    ("lorentz", "axis_intercepts"),
    ("lorentz", "dihedral_angle"),
    ("moduli", "psi5"),
    ("moduli", "psi6"),
    ("moduli", "classify_hexahedron"),
    ("fiber", "inversion_report"),
    ("fiber", "fiber_theta5"),
    ("fiber", "fiber_theta6"),
    ("fiber", "verify_injectivity"),
    ("complexes", "build_complex"),
    ("complexes", "cusp_classes"),
    ("complexes", "singular_edges"),
    ("verify", "run_suite"),
    ("jsonio", "parse_theta"),
    ("jsonio", "csv_row"),
    ("jsonio", "dumps_canonical"),
    ("cli", "main"),
)

#: Bindings left alone: ``dumps_canonical`` recurses through its own module
#: global once per JSON value, so only the calls from other modules are spans.
UNWRAPPED = {("jsonio", "dumps_canonical")}


class Recorder:
    """In-memory span store plus the counters read at layer boundaries."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counters = {"exponential_draws": 0, "scan_rows": 0, "scan_pairs": 0}

    def wrap(self, name: str, fn, span_name=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            label = span_name(args, kwargs) if span_name else name
            index = len(spans)
            spans.append([label, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end

        return traced

    def summary(self) -> dict:
        """Per-span-name calls, total and self seconds, plus counters."""
        child_s = [0.0] * len(self.spans)
        for label, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        functions: dict[str, dict] = {}
        psi_total = psi_checked = 0.0
        for i, (label, start, end, parent) in enumerate(self.spans):
            row = functions.setdefault(label, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_s[i]
            if label.startswith("moduli.psi"):
                psi_total += end - start
            elif parent >= 0 and self.spans[parent][0].startswith("moduli.psi") and label in (
                "lorentz.build_model",
                "lorentz.axis_intercepts",
            ):
                psi_checked += end - start
        return {
            "functions": functions,
            "counters": dict(self.counters),
            "psi_total_s": psi_total,
            "psi_cross_check_s": psi_checked,
        }


class CountingRng:
    """Proxy of a numpy Generator that counts ``exponential`` draws.

    Every call is forwarded to the wrapped generator, so the drawn values
    and the generator state are exactly those of an unwrapped run.
    """

    def __init__(self, rng, counters: dict):
        self._rng = rng
        self._counters = counters

    def exponential(self, *args, **kwargs):
        self._counters["exponential_draws"] += 1
        return self._rng.exponential(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _psi_span(layer_fn: str):
    def span_name(args, kwargs) -> str:
        checked = kwargs.get("cross_check", args[2] if len(args) > 2 else True)
        return f"{layer_fn}.{'cross_check' if checked else 'no_cross_check'}"

    return span_name


def install(recorder: Recorder) -> None:
    """Replace each traced function in every polymod module that binds it."""
    modules = [m for name, m in sys.modules.items() if name == "polymod" or name.startswith("polymod.")]
    counters = recorder.counters
    for layer, fname in TRACED:
        original = getattr(sys.modules[f"polymod.{layer}"], fname)
        name = f"{layer}.{fname}"
        if fname in ("psi5", "psi6"):
            traced = recorder.wrap(name, original, _psi_span(name))
        elif fname == "sample_weight_rng":
            inner = recorder.wrap(name, original)

            def traced(n, rng, _inner=inner):
                return _inner(n, CountingRng(rng, counters))

        elif fname == "verify_injectivity":
            inner = recorder.wrap(name, original)

            def traced(n, samples, *args, _inner=inner, **kwargs):
                counters["scan_rows"] += samples
                counters["scan_pairs"] += samples * (samples - 1) // 2
                return _inner(n, samples, *args, **kwargs)

        else:
            traced = recorder.wrap(name, original)
        for module in modules:
            if getattr(module, fname, None) is original and (
                (module.__name__.rpartition(".")[2], fname) not in UNWRAPPED
            ):
                setattr(module, fname, traced)


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    import polymod.cli

    import_s = time.perf_counter() - start
    recorder = Recorder()
    install(recorder)
    code = 1
    try:
        code = polymod.cli.main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        out = recorder.summary()
        out["import_s"] = import_s
        with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as fh:
            json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
