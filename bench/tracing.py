"""In-memory span tracing of the gbs_page layers, and per-layer aggregation.

A traced child process calls ``install(tracer)`` before it runs the
program. That rebinds the public names each module looks up at its
boundaries (for example ``gbs_page.montecarlo.haar_unitary``) with wrappers
that record one span per call: name, parent span id, start, end, thread and
a few size or outcome fields. Nothing under ``src/`` is edited. Spans are
kept in memory and written once, when the child ends. The parent turns them
into per-layer metrics with ``layer_metrics``.

A layer's self time is the summed duration of its spans minus the part of
each span covered by that span's children. Spans that run on pool worker
threads have no parent on their own thread; they take the open fan-out span
(``run_experiment``) as parent, so the time the pool owner spends waiting
on its workers is not counted as its self time. Self times are
thread-seconds: two workers busy for one second give two.
"""

import importlib
import itertools
import json
import threading
import time

import numpy as np

# Complex Householder QR of an n x n matrix plus forming Q (geqrf + ungqr):
# 4 * (4/3 n^3 + 4/3 n^3) real flops.
QR_FLOPS_PER_N3 = 32.0 / 3.0
# Real symmetric eigendecomposition with vectors (~9 N^3) followed by a
# complex Hermitian eigenvalue-only solve (4 * 4/3 N^3) of the same size N.
SYMPLECTIC_FLOPS_PER_N3 = 9.0 + 16.0 / 3.0


class Tracer:
    """Thread-safe in-memory span store."""

    def __init__(self):
        self.spans = []  # [id, parent, name, t0, t1, thread, info]
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._fanout = []  # ids of open spans whose work runs on other threads
        self.missing = []  # boundary names the program does not have

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, describe=None, fanout=False):
        """Return ``fn`` wrapped so that each call records a span ``name``.

        ``describe(args, kwargs, result, exc)`` returns a dict stored with
        the span; it sees the exception instead of the result on failure.
        """
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                span_id = next(tracer._ids)
                fallback = tracer._fanout[-1] if tracer._fanout else None
            parent = stack[-1] if stack else fallback
            stack.append(span_id)
            if fanout:
                with tracer._lock:
                    tracer._fanout.append(span_id)
            result, error = None, None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if fanout:
                    with tracer._lock:
                        tracer._fanout.remove(span_id)
                info = describe(args, kwargs, result, error) if describe else {}
                if error is not None:
                    info["error"] = type(error).__name__
                with tracer._lock:
                    tracer.spans.append(
                        [span_id, parent, name, t0, t1, threading.get_ident(), info]
                    )

        traced.__wrapped__ = fn
        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"missing": self.missing, "spans": self.spans}, fh,
                      separators=(",", ":"))


def _haar(args, kwargs, result, exc):
    n = int(args[0] if args else kwargs["n"])
    return {"gflop": QR_FLOPS_PER_N3 * n**3 / 1e9}


def _symplectic(args, kwargs, result, exc):
    size = int((args[0] if args else kwargs["sigma"]).shape[0])
    return {"gflop": SYMPLECTIC_FLOPS_PER_N3 * size**3 / 1e9}


def _run_experiment(args, kwargs, result, exc):
    threads = kwargs.get("threads", args[1] if len(args) > 1 else 1)
    return {"threads": int(threads)}


def _page_average(args, kwargs, result, exc):
    source = exc if exc is not None else result
    terms = getattr(source, "i_max_used", None)
    return {"terms": int(terms) if terms is not None else 0}


def _specfun(args, kwargs, result, exc):
    i = args[0] if args else kwargs.get("i")
    size = getattr(i, "size", None)
    return {"elements": int(size) if size is not None else 1}


def _g(args, kwargs, result, exc):
    # G evaluates two regularized incomplete beta functions per index.
    return {"betainc": 2 * _specfun(args, kwargs, result, exc)["elements"]}


# (module, attribute, span name, describe, fan-out)
BOUNDARIES = [
    ("gbs_page.cli", "main", "cli.main", None, False),
    ("gbs_page.cli", "run_experiment", "montecarlo.run_experiment", _run_experiment, True),
    ("gbs_page.montecarlo", "run_experiment", "montecarlo.run_experiment", _run_experiment, True),
    ("gbs_page.montecarlo", "_evaluate_sample", "montecarlo.sample", None, False),
    ("gbs_page.montecarlo", "haar_unitary", "haar.haar_unitary", _haar, False),
    ("gbs_page.montecarlo", "reduced_covariance_equal", "states.reduced_covariance_equal", None, False),
    ("gbs_page.montecarlo", "reduced_covariance_general", "states.reduced_covariance_general", None, False),
    ("gbs_page.montecarlo", "trW_moments", "states.trW_moments", None, False),
    ("gbs_page.montecarlo", "symplectic_eigenvalues", "symplectic.symplectic_eigenvalues", _symplectic, False),
    ("gbs_page.montecarlo", "von_neumann_entropy", "entropy.von_neumann_entropy", None, False),
    ("gbs_page.montecarlo", "renyi_entropy", "entropy.renyi_entropy", None, False),
    ("gbs_page.cli", "page_average", "pagecurve.page_average", _page_average, False),
    ("gbs_page", "page_average", "pagecurve.page_average", _page_average, False),
    ("gbs_page.pagecurve", "G", "specfun.G", _g, False),
    ("gbs_page.pagecurve", "H", "specfun.H", _specfun, False),
]


def install(tracer):
    """Rebind every boundary name that exists.

    A name missing from the program (renamed or removed by a later change)
    is skipped and listed in ``tracer.missing``; the layer metrics that
    depend on it then read zero.
    """
    for module_name, attr, span_name, describe, fanout in BOUNDARIES:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            tracer.missing.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, tracer.wrap(span_name, fn, describe, fanout))


def _union_length(intervals):
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans):
    """Map span id -> duration minus the union of its children's intervals."""
    children = {}
    for span in spans:
        children.setdefault(span[1], []).append(span)
    out = {}
    for span_id, _, _, t0, t1, _, _ in spans:
        covered = [
            (max(c[3], t0), min(c[4], t1))
            for c in children.get(span_id, [])
            if c[4] > t0 and c[3] < t1
        ]
        out[span_id] = (t1 - t0) - _union_length(covered)
    return out


def percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans):
    """Per-layer metrics of one traced operation (see BENCHMARK.json)."""
    selfs = self_times(spans)
    by_layer = {}
    for span in spans:
        by_layer.setdefault(span[2].split(".")[0], []).append(span)

    def layer(name):
        return by_layer.get(name, [])

    def self_s(name):
        return sum(selfs[s[0]] for s in layer(name))

    def total(name, key):
        return sum(s[6].get(key, 0) for s in layer(name))

    samples = [s for s in layer("montecarlo") if s[2] == "montecarlo.sample"]
    pools = [s for s in layer("montecarlo") if s[2] == "montecarlo.run_experiment"]
    pool_capacity = sum((s[4] - s[3]) * s[6].get("threads", 1) for s in pools)
    busy = sum(s[4] - s[3] for s in samples)
    sample_ms = [1e3 * (s[4] - s[3]) for s in samples]

    cells = layer("pagecurve")
    terms = total("pagecurve", "terms")
    useful_terms = sum(s[6].get("terms", 0) for s in cells if "error" not in s[6])

    return {
        "haar.calls": len(layer("haar")),
        "haar.self_s": self_s("haar"),
        "haar.qr_gflop_computed": total("haar", "gflop"),
        "states.calls": len(layer("states")),
        "states.self_s": self_s("states"),
        "symplectic.calls": len(layer("symplectic")),
        "symplectic.self_s": self_s("symplectic"),
        "symplectic.eig_gflop_computed": total("symplectic", "gflop"),
        "symplectic.failures": sum(1 for s in layer("symplectic") if "error" in s[6]),
        "entropy.calls": len(layer("entropy")),
        "entropy.self_s": self_s("entropy"),
        "montecarlo.samples": len(samples),
        "montecarlo.self_s": self_s("montecarlo"),
        "montecarlo.sample_ms_p50": percentile(sample_ms, 50),
        "montecarlo.sample_ms_p90": percentile(sample_ms, 90),
        "montecarlo.worker_idle_share": 1.0 - busy / pool_capacity if pool_capacity else 0.0,
        "pagecurve.cells": len(cells),
        "pagecurve.self_s": self_s("pagecurve"),
        "pagecurve.series_terms": terms,
        "pagecurve.refused": sum(
            1 for s in cells if s[6].get("error") == "TruncationCapError"
        ),
        "pagecurve.useful_ratio": useful_terms / terms if terms else 0.0,
        "specfun.calls": len(layer("specfun")),
        "specfun.self_s": self_s("specfun"),
        "specfun.betainc_evals": total("specfun", "betainc"),
        "cli.self_s": self_s("cli"),
    }
