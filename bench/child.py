"""Child process of the benchmark: the analytic client and the traced runs.

    python child.py analytic CELLS RESULTS [--trace SPANS]
    python child.py cli SPANS -- ARGV...

``analytic`` reads a JSON list of cells ``[alpha, s, r, n, tol]`` (``n`` null
for the asymptotic curve), calls the public ``gbs_page.page_average`` on each
in order, one at a time, and writes one row per cell:
``[status, value, trunc_err, i_max_used, realized_r, ms]`` with status ``ok``,
``refused`` (the series reported it cannot meet ``tol``) or ``error:<type>``,
plus the wall time of the whole cell loop.

``cli`` installs the span tracer, runs ``gbs_page.cli.main(ARGV)`` and exits
with its return code. With ``--trace`` (analytic) or in ``cli`` mode the spans
are written to SPANS when the work is done.
"""

import json
import sys
import time

import tracing


def _refusal_types(gbs_page):
    cap = getattr(gbs_page, "TruncationCapError", None)
    return (cap,) if cap is not None else ()


def run_analytic(cells_path, results_path):
    import gbs_page

    with open(cells_path) as fh:
        cells = json.load(fh)
    refusals = _refusal_types(gbs_page)
    rows = []
    clock = time.perf_counter
    loop_t0 = clock()
    for alpha, s, r, n, tol in cells:
        t0 = clock()
        try:
            res = gbs_page.page_average(alpha, n, s, r, tol)
            row = ["ok", res.value, getattr(res, "trunc_err", None),
                   getattr(res, "i_max_used", None), res.realized_r]
        except refusals as exc:
            row = ["refused", None, getattr(exc, "error_bound", None),
                   getattr(exc, "i_max_used", None), None]
        except Exception as exc:  # recorded per cell; the parent fails the run
            row = [f"error:{type(exc).__name__}", None, None, None, None]
        row.append(1e3 * (clock() - t0))
        rows.append(row)
    loop_s = clock() - loop_t0
    with open(results_path, "w") as fh:
        json.dump({"loop_s": loop_s, "rows": rows}, fh, separators=(",", ":"))
    return 0


def main(argv):
    mode = argv[0]
    if mode == "analytic":
        cells_path, results_path = argv[1], argv[2]
        spans_path = argv[4] if argv[3:4] == ["--trace"] else None
        tracer = tracing.Tracer()
        if spans_path:
            tracing.install(tracer)
        code = run_analytic(cells_path, results_path)
    elif mode == "cli":
        spans_path = argv[1]
        if argv[2] != "--":
            raise SystemExit("usage: child.py cli SPANS -- ARGV...")
        tracer = tracing.Tracer()
        tracing.install(tracer)
        import gbs_page.cli

        code = gbs_page.cli.main(argv[3:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    if spans_path:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
