"""Check one benchmark input in this fresh process; print one JSON line.

    python3 perfbench/child.py --input benchmarks/programs/splay.rsc
    python3 perfbench/child.py --input benchmarks/modules/splay --project
        [--store DIR] [--trace]

The check goes through the public ``Session.check_file`` /
``Session.check_project`` call, and only that call is timed (``check_s``);
interpreter start, imports and session construction are the parent's
process wall-clock minus it.  With ``--store`` the session uses that local
artifact store; with ``--trace`` the layer wrappers of ``layers.py`` are
installed first and their table is part of the output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from layers import SOLVER_COUNTS, LayerTimer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--input", required=True)
    parser.add_argument("--project", action="store_true")
    parser.add_argument("--store", default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    timer = LayerTimer().install() if args.trace else None
    import repro
    from repro import CheckConfig, Session
    from repro.logic.terms import intern_stats

    config = CheckConfig(store_path=args.store)
    session = Session(config)
    start = time.perf_counter()
    if args.project:
        outcome = session.check_project(args.input)
        results = outcome.results
    else:
        results = [session.check_file(args.input)]
    check_s = time.perf_counter() - start

    stats = dict.fromkeys(SOLVER_COUNTS, 0)
    fixpoint = {"queries_issued": 0, "queries_pruned": 0, "rounds": 0}
    errors = []
    for result in results:
        if result.stats is not None:
            for key in stats:
                stats[key] += getattr(result.stats, key)
        if result.solve_stats is not None:
            for key in fixpoint:
                fixpoint[key] += getattr(result.solve_stats, key)
        errors.extend([d.code, d.span.line] for d in result.errors)
    interned = intern_stats()
    print(json.dumps({
        "module": repro.__file__,
        "ok": all(result.ok for result in results),
        "errors": errors,
        "check_s": check_s,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "stats": stats,
        "fixpoint": fixpoint,
        "intern": {"hits": interned["hits"], "misses": interned["misses"],
                   "live_terms": interned["live_terms"]},
        "layers": timer.table() if timer is not None else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
