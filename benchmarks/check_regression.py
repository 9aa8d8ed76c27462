#!/usr/bin/env python
"""Fail CI when a benchmark regresses against the checked-in baseline.

Usage::

    python benchmarks/check_regression.py BENCH_fixpoint.json \
        benchmarks/baseline.json [--threshold 0.25] [--time-factor 4.0] \
        [--incremental BENCH_incremental.json] [--modules BENCH_modules.json]

Compares the fixpoint report produced by ``python -m repro bench figure6``
against ``benchmarks/baseline.json``:

* **queries** — the worklist engine's solve-stage SMT query count is
  deterministic, so any increase beyond ``--threshold`` (default 25%) over
  the baseline fails the build.  A benchmark must also still issue fewer
  queries than the *naive* engine did at baseline time, otherwise the
  worklist scheduling has silently degenerated.
* **wall-clock** — CI machines are noisy, so time only fails the build past
  ``--time-factor`` (default 4x) of the baseline.
* a benchmark missing from the current report, or reported unsafe, fails.

With ``--incremental`` the edit-recheck report produced by
``python -m repro bench incremental`` is additionally gated against the
baseline's ``incremental`` section:

* every replayed edit must still verify,
* the comment-only edit must issue **zero** solver queries (the artifact
  layer must recognise an AST-identical document),
* the revert edit must issue zero queries (content-hash cache hit),
* the single-body edit must issue strictly fewer queries than the cold
  check, and no more than baseline ``warm_queries`` + ``--threshold``.

With ``--modules`` the module-graph report produced by
``python -m repro bench modules`` is gated against the baseline's
``modules`` section:

* every project edit must still verify,
* the body-only edit must re-check **exactly** the baseline number of
  modules (1 — the signature cut must stop at the module boundary) and
  warm-start inside the module,
* the signature edit must re-check exactly the edited module plus its
  transitive dependents,
* the cold build's query count is gated like the fixpoint queries.

With ``--store`` the persistent-store report produced by
``python -m repro bench store`` is gated against the baseline's ``store``
section:

* both the cold and the store-warm run must verify with **byte-identical**
  diagnostics and kappa solutions (``identical``),
* the store-warm run must issue exactly **zero** SMT queries and zero SAT
  searches on every benchmark (the whole point of the store),
* the cold run's query count is gated against the baseline like the
  fixpoint queries.

With ``--smt`` the engine-comparison report produced by
``python -m repro bench smt`` is gated against the baseline's ``smt``
section:

* both engines must verify every benchmark with **byte-identical**
  diagnostics and kappa solutions (``identical``),
* the incremental engine must issue **strictly fewer** SAT searches
  (``sat_calls``) than the fresh engine on every benchmark,
* the incremental ``sat_calls`` count is gated against the baseline like
  the fixpoint queries (it is deterministic).

With ``--serve`` the load-generator report produced by
``python -m repro bench serve`` is gated against the baseline's ``serve``
section:

* the concurrent run's diagnostics must be **byte-identical** to a
  sequential single-client replay of the same edits (``identical``) and
  every surviving check must verify (``safe``),
* at least one check must have been cancelled by a superseding edit
  (queued or in flight) — the supersession machinery must stay observable,
* no client thread may have died (``error`` per tenant),
* p99 latency is gated at ``--time-factor`` times the baseline and
  throughput at baseline divided by ``--time-factor`` (latency percentiles
  are wall-clock and CI machines are noisy, hence the generous factor).

With ``--cache`` the shared-cache fleet report produced by
``python -m repro bench cache`` is gated against the baseline's ``cache``
section:

* every fleet worker must verify with **byte-identical** diagnostics and
  kappa solutions against the sequential replay (``identical``),
* every warm worker must issue exactly **zero** queries and SAT searches,
  and the whole fleet's SAT total must equal the one cold worker's
  (``sat_budget_ok`` — shared caching makes fleet cost independent of
  fleet size),
* the fault-injection phase must have injected faults, counted degraded
  operations client-side, and still produced identical verdicts,
* the cold worker's query count is gated against the baseline like the
  fixpoint queries.

With ``--obs`` the tracing-overhead report produced by
``python -m repro bench obs`` is gated against the baseline's ``obs``
section:

* traced and untraced runs must verify with **byte-identical** diagnostics
  and kappa solutions (enabling the tracer must never change a verdict),
* the traced runs must collect at least ``min_events`` spans (the
  instrumentation must not silently go dark),
* the estimated disabled-tracer overhead — the measured no-op span cost
  times the span count of a traced run, as a fraction of the untraced
  wall-clock — must stay under ``off_overhead_pct_max`` (2%).

With ``--speed`` the raw-speed report produced by
``python -m repro bench speed`` is gated against the baseline's ``speed``
section:

* every benchmark (and module project) must verify in both engine
  configurations with **byte-identical** diagnostics and kappa solutions
  (``identical`` — the reference configuration is the differential oracle
  for the hash-cons/memoisation layer and the integer LIA arithmetic),
* the fast configuration must create **strictly fewer** term objects than
  the reference configuration allocates, per benchmark,
* the whole sweep's ``speedup`` (reference wall-clock over fast wall-clock,
  measured in the same process, so machine noise largely cancels) must
  reach the baseline's ``min_speedup``.

To refresh the baseline after an intentional change, run the bench locally
and copy the new numbers in (see README "Performance & benchmarking").
"""

from __future__ import annotations

import argparse
import json
import sys


def check_incremental(report: dict, baseline: dict, threshold: float) -> list:
    """Failures of the incremental (edit-recheck) report vs the baseline."""
    failures = []
    current = report.get("benchmarks", {})
    for name, base in sorted(baseline.items()):
        entry = current.get(name)
        if entry is None:
            failures.append(f"{name}: missing from the incremental report")
            continue
        if not entry.get("safe", False):
            failures.append(f"{name}: an edit re-check no longer verifies")
        edits = {edit["label"]: edit for edit in entry.get("edits", [])}
        for label in ("comment", "revert"):
            edit = edits.get(label)
            if edit is None:
                failures.append(f"{name}: {label} edit missing")
            elif edit["queries"] != 0:
                failures.append(
                    f"{name}: {label} edit issued {edit['queries']} solver "
                    f"queries (expected 0 — reuse has degenerated)")
        body = edits.get("body")
        cold = entry.get("cold", {}).get("queries", 0)
        if body is None:
            failures.append(f"{name}: body edit missing")
            continue
        if not body.get("warm", False):
            failures.append(f"{name}: body edit did not warm-start")
        if cold and body["queries"] >= cold:
            failures.append(
                f"{name}: body edit issued {body['queries']} queries, not "
                f"fewer than the cold check's {cold}")
        allowed = base["warm_queries"] * (1.0 + threshold)
        # small counts wobble with solver-cache layout; allow a few extras
        if body["queries"] > max(allowed, base["warm_queries"] + 5):
            failures.append(
                f"{name}: body edit issued {body['queries']} queries, "
                f"baseline {base['warm_queries']} (+{threshold:.0%} allowed)")
    return failures


def check_modules(report: dict, baseline: dict, threshold: float) -> list:
    """Failures of the module-graph (project edit) report vs the baseline."""
    failures = []
    current = report.get("benchmarks", {})
    for name, base in sorted(baseline.items()):
        entry = current.get(name)
        if entry is None:
            failures.append(f"{name}: missing from the modules report")
            continue
        if not entry.get("safe", False):
            failures.append(f"{name}: a project edit no longer verifies")
        if entry.get("modules") != base["modules"]:
            failures.append(
                f"{name}: {entry.get('modules')} modules in the split, "
                f"baseline {base['modules']}")
        body = entry.get("body_edit", {})
        if body.get("rechecked") != base["body_rechecked"]:
            failures.append(
                f"{name}: body-only edit re-checked {body.get('rechecked')} "
                f"module(s), expected exactly {base['body_rechecked']} — "
                "the signature cut has degenerated")
        if not body.get("warm", False):
            failures.append(f"{name}: body edit did not warm-start inside "
                            "the module")
        sig = entry.get("sig_edit", {})
        if sig.get("rechecked") != base["sig_rechecked"]:
            failures.append(
                f"{name}: signature edit re-checked {sig.get('rechecked')} "
                f"module(s), expected {base['sig_rechecked']} (the module "
                "plus its transitive dependents)")
        cold = entry.get("cold", {}).get("queries", 0)
        allowed = base["cold_queries"] * (1.0 + threshold)
        if cold > max(allowed, base["cold_queries"] + 5):
            failures.append(
                f"{name}: cold project build issued {cold} queries, "
                f"baseline {base['cold_queries']} (+{threshold:.0%} allowed)")
        if cold and body.get("queries", 0) >= cold:
            failures.append(
                f"{name}: body edit issued {body.get('queries')} queries, "
                f"not fewer than the cold build's {cold}")
    return failures


def check_store(report: dict, baseline: dict, threshold: float) -> list:
    """Failures of the persistent-store (cold vs warm) report vs baseline."""
    failures = []
    current = report.get("benchmarks", {})
    for name, base in sorted(baseline.items()):
        entry = current.get(name)
        if entry is None:
            failures.append(f"{name}: missing from the store report")
            continue
        if not entry.get("safe", False):
            failures.append(f"{name}: no longer verifies (cold or "
                            "store-warm run)")
        if not entry.get("identical", False):
            failures.append(
                f"{name}: cold and store-warm runs disagree (diagnostics "
                "or kappa solutions differ) — the store replay is UNSOUND, "
                "fix before merging")
        warm = entry.get("warm", {})
        for counter in ("queries", "sat_calls"):
            count = warm.get(counter, -1)
            if count != 0:
                failures.append(
                    f"{name}: store-warm run issued {count} {counter} "
                    "(expected exactly 0 — the replay has degenerated)")
        cold = entry.get("cold", {}).get("queries", 0)
        allowed = base["cold_queries"] * (1.0 + threshold)
        if cold > max(allowed, base["cold_queries"] + 5):
            failures.append(
                f"{name}: cold run issued {cold} queries, baseline "
                f"{base['cold_queries']} (+{threshold:.0%} allowed)")
    return failures


def check_smt(report: dict, baseline: dict, threshold: float) -> list:
    """Failures of the SMT engine-comparison report vs the baseline."""
    failures = []
    current = report.get("benchmarks", {})
    for name, base in sorted(baseline.items()):
        entry = current.get(name)
        if entry is None:
            failures.append(f"{name}: missing from the smt report")
            continue
        if not entry.get("safe", False):
            failures.append(f"{name}: no longer verifies under both "
                            "SMT modes")
        if not entry.get("identical", False):
            failures.append(
                f"{name}: incremental and fresh engines disagree "
                "(diagnostics or kappa solutions differ) — the context "
                "layer is UNSOUND or incomplete, fix before merging")
        fresh = entry.get("fresh", {}).get("sat_calls", 0)
        incr = entry.get("incremental", {}).get("sat_calls", 0)
        if fresh and incr >= fresh:
            failures.append(
                f"{name}: incremental engine issued {incr} SAT searches, "
                f"not fewer than the fresh engine's {fresh}")
        allowed = base["incremental_sat_calls"] * (1.0 + threshold)
        if incr > max(allowed, base["incremental_sat_calls"] + 5):
            failures.append(
                f"{name}: incremental engine issued {incr} SAT searches, "
                f"baseline {base['incremental_sat_calls']} "
                f"(+{threshold:.0%} allowed)")
    return failures


def check_serve(report: dict, baseline: dict, time_factor: float) -> list:
    """Failures of the serve load-generator report vs the baseline."""
    failures = []
    if not baseline:
        return ["serve: baseline has no 'serve' section"]
    if not report.get("identical", False):
        failures.append(
            "serve: concurrent diagnostics differ from the sequential "
            "single-client replay — tenant isolation or cancellation is "
            "UNSOUND, fix before merging")
    if not report.get("safe", False):
        failures.append("serve: a replayed check no longer verifies")
    cancelled = (report.get("cancelled_queued", 0)
                 + report.get("cancelled_inflight", 0))
    if cancelled < 1:
        failures.append(
            "serve: no check was cancelled by a superseding edit "
            "(expected at least 1 — supersession has gone unobservable)")
    for name, row in sorted(report.get("tenants", {}).items()):
        if row.get("error"):
            failures.append(f"serve: client {name} died: {row['error']}")
    p99 = report.get("p99_ms", 0.0)
    if p99 > baseline["p99_ms"] * time_factor:
        failures.append(
            f"serve: p99 latency {p99:.0f}ms, baseline "
            f"{baseline['p99_ms']:.0f}ms (x{time_factor:g} allowed)")
    throughput = report.get("throughput_cps", 0.0)
    floor = baseline["throughput_cps"] / time_factor
    if throughput < floor:
        failures.append(
            f"serve: throughput {throughput:.2f} checks/s, baseline "
            f"{baseline['throughput_cps']:.2f} (floor {floor:.2f})")
    return failures


def check_cache(report: dict, baseline: dict, threshold: float) -> list:
    """Failures of the shared-cache fleet report vs the baseline."""
    failures = []
    if not baseline:
        return ["cache: baseline has no 'cache' section"]
    if not report.get("identical", False):
        failures.append(
            "cache: a fleet worker's diagnostics differ from the "
            "sequential replay — shared-cache replay is UNSOUND, fix "
            "before merging")
    if not report.get("safe", False):
        failures.append("cache: a fleet worker no longer verifies")
    if not report.get("warm_zero", False):
        failures.append(
            "cache: a warm worker issued solver queries or SAT searches "
            "(expected exactly 0 — the shared replay has degenerated)")
    if not report.get("sat_budget_ok", False):
        totals = report.get("totals", {})
        failures.append(
            f"cache: fleet spent {totals.get('fleet_sat_calls')} SAT "
            f"searches, expected exactly one cold worker's "
            f"{totals.get('cold_sat_calls')}")
    cold = report.get("totals", {}).get("cold_queries", 0)
    allowed = baseline["cold_queries"] * (1.0 + threshold)
    if cold > max(allowed, baseline["cold_queries"] + 5):
        failures.append(
            f"cache: cold worker issued {cold} queries, baseline "
            f"{baseline['cold_queries']} (+{threshold:.0%} allowed)")
    fault = report.get("fault")
    if fault is None:
        failures.append("cache: fault-injection phase missing from report")
    else:
        if not fault.get("identical", False):
            failures.append(
                "cache: verdicts under fault injection differ from the "
                "sequential replay — degraded paths are UNSOUND, fix "
                "before merging")
        if not fault.get("safe", False):
            failures.append("cache: a fault-phase worker no longer verifies")
        if fault.get("injected_ops", 0) < 1:
            failures.append(
                "cache: the fault server injected no faults (the "
                "degradation paths went unexercised)")
        if fault.get("degraded_ops", 0) < 1:
            failures.append(
                "cache: no degraded operations were counted client-side "
                "(expected remote_errors/degraded counters > 0)")
    return failures


def check_speed(report: dict, baseline: dict) -> list:
    """Failures of the raw-speed report vs the baseline."""
    failures = []
    if not baseline:
        return ["speed: baseline has no 'speed' section"]
    current = report.get("benchmarks", {})
    for name in sorted(baseline.get("benchmarks", [])):
        entry = current.get(name)
        if entry is None:
            failures.append(f"{name}: missing from the speed report")
            continue
        if not entry.get("safe", False):
            failures.append(f"{name}: no longer verifies under both engine "
                            "configurations")
        if not entry.get("identical", False):
            failures.append(
                f"{name}: fast and reference configurations disagree "
                "(diagnostics or kappa solutions differ) — memoisation or "
                "integer LIA is UNSOUND, fix before merging")
        allocated = entry.get("speed", {}).get("allocations", -1)
        reference = entry.get("baseline", {}).get("allocations", 0)
        if allocated < 0 or allocated >= reference:
            failures.append(
                f"{name}: fast configuration created {allocated} term "
                f"objects, not strictly fewer than the reference's "
                f"{reference} allocations — hash-consing has degenerated")
    totals = report.get("totals", {})
    speedup = totals.get("speedup", 0.0)
    floor = baseline.get("min_speedup", 1.3)
    if speedup < floor:
        failures.append(
            f"speed: {speedup:.2f}x wall-clock speedup over the reference "
            f"configuration, expected at least {floor:g}x (both phases run "
            "in the same process, so machine noise cancels)")
    return failures


def check_obs(report: dict, baseline: dict) -> list:
    """Failures of the tracing-overhead report vs the baseline."""
    failures = []
    if not baseline:
        return ["obs: baseline has no 'obs' section"]
    if not report.get("safe", False):
        failures.append("obs: a benchmark no longer verifies under tracing")
    if not report.get("identical", False):
        failures.append(
            "obs: traced and untraced runs disagree (diagnostics or kappa "
            "solutions differ) — the instrumentation changes verdicts, fix "
            "before merging")
    totals = report.get("totals", {})
    off_pct = totals.get("off_overhead_pct", 100.0)
    ceiling = baseline.get("off_overhead_pct_max", 2.0)
    if off_pct >= ceiling:
        failures.append(
            f"obs: disabled-tracer overhead {off_pct:.3f}% of untraced "
            f"wall-clock, ceiling {ceiling:g}% — the no-op span path has "
            "grown too expensive")
    if totals.get("events", 0) < baseline.get("min_events", 1):
        failures.append(
            f"obs: traced runs collected {totals.get('events', 0)} spans, "
            f"expected at least {baseline.get('min_events', 1)} — the "
            "instrumentation has gone dark")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", help="BENCH_fixpoint.json from the bench run")
    parser.add_argument("baseline", help="benchmarks/baseline.json")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed fractional query-count increase "
                             "(default: 0.25)")
    parser.add_argument("--time-factor", type=float, default=4.0,
                        help="allowed wall-clock multiple of the baseline "
                             "(default: 4.0; generous because CI is noisy)")
    parser.add_argument("--incremental", metavar="FILE", default=None,
                        help="also gate BENCH_incremental.json against the "
                             "baseline's 'incremental' section")
    parser.add_argument("--modules", metavar="FILE", default=None,
                        help="also gate BENCH_modules.json against the "
                             "baseline's 'modules' section")
    parser.add_argument("--smt", metavar="FILE", default=None,
                        help="also gate BENCH_smt.json against the "
                             "baseline's 'smt' section")
    parser.add_argument("--store", metavar="FILE", default=None,
                        help="also gate BENCH_store.json against the "
                             "baseline's 'store' section")
    parser.add_argument("--serve", metavar="FILE", default=None,
                        help="also gate BENCH_serve.json against the "
                             "baseline's 'serve' section")
    parser.add_argument("--cache", metavar="FILE", default=None,
                        help="also gate BENCH_cache.json against the "
                             "baseline's 'cache' section")
    parser.add_argument("--obs", metavar="FILE", default=None,
                        help="also gate BENCH_obs.json against the "
                             "baseline's 'obs' section (disabled-tracer "
                             "overhead must stay under the ceiling)")
    parser.add_argument("--speed", metavar="FILE", default=None,
                        help="also gate BENCH_speed.json against the "
                             "baseline's 'speed' section (byte-identical "
                             "verdicts, strictly fewer allocations, and the "
                             "minimum wall-clock speedup)")
    args = parser.parse_args(argv)

    with open(args.report) as f:
        report = json.load(f)
    with open(args.baseline) as f:
        baseline = json.load(f)

    current = report.get("benchmarks", {})
    failures = []
    for name, base in sorted(baseline.get("benchmarks", {}).items()):
        entry = current.get(name)
        if entry is None:
            failures.append(f"{name}: missing from the current report")
            continue
        if not entry.get("safe", False):
            failures.append(f"{name}: no longer verifies (unsafe)")
        queries = entry["worklist"]["queries"]
        allowed = base["worklist_queries"] * (1.0 + args.threshold)
        if queries > allowed:
            failures.append(
                f"{name}: {queries} solve queries, baseline "
                f"{base['worklist_queries']} (+{args.threshold:.0%} allowed)")
        if queries >= base["naive_queries"] > 0:
            failures.append(
                f"{name}: {queries} solve queries is no better than the "
                f"naive engine's baseline {base['naive_queries']}")
        seconds = entry["worklist"]["time_seconds"]
        if seconds > base["time_seconds"] * args.time_factor:
            failures.append(
                f"{name}: {seconds:.2f}s, baseline {base['time_seconds']:.2f}s "
                f"(x{args.time_factor:g} allowed)")

    if args.incremental is not None:
        with open(args.incremental) as f:
            incremental_report = json.load(f)
        failures.extend(check_incremental(
            incremental_report, baseline.get("incremental", {}),
            args.threshold))

    if args.modules is not None:
        with open(args.modules) as f:
            modules_report = json.load(f)
        failures.extend(check_modules(
            modules_report, baseline.get("modules", {}), args.threshold))

    if args.smt is not None:
        with open(args.smt) as f:
            smt_report = json.load(f)
        failures.extend(check_smt(
            smt_report, baseline.get("smt", {}), args.threshold))

    if args.store is not None:
        with open(args.store) as f:
            store_report = json.load(f)
        failures.extend(check_store(
            store_report, baseline.get("store", {}), args.threshold))

    if args.serve is not None:
        with open(args.serve) as f:
            serve_report = json.load(f)
        failures.extend(check_serve(
            serve_report, baseline.get("serve", {}), args.time_factor))

    if args.cache is not None:
        with open(args.cache) as f:
            cache_report = json.load(f)
        failures.extend(check_cache(
            cache_report, baseline.get("cache", {}), args.threshold))

    if args.obs is not None:
        with open(args.obs) as f:
            obs_report = json.load(f)
        failures.extend(check_obs(obs_report, baseline.get("obs", {})))

    if args.speed is not None:
        with open(args.speed) as f:
            speed_report = json.load(f)
        failures.extend(check_speed(speed_report, baseline.get("speed", {})))

    if failures:
        print("benchmark regression(s) against "
              f"{args.baseline}:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    names = ", ".join(sorted(baseline.get("benchmarks", {})))
    print(f"no regressions: {names}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
