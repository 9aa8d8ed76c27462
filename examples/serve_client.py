#!/usr/bin/env python3
"""Talking to the multi-tenant check server over ``repro-serve/3``.

Start a server in one terminal::

    python -m repro serve --tcp --port 7345

then run this driver against it::

    python examples/serve_client.py --port 7345

The driver exercises the protocol end to end: ``hello`` (capability
discovery from the method registry), a ``check``/``update`` pair showing
the warm re-check, a superseding pipelined edit whose stale predecessor
the server answers with ``cancelled``, and the ``stats`` counters the
server keeps per tenant.  With ``--shutdown`` it stops the server when
done (CI's socket smoke test does; leave it off to keep the server up).

Without a running server this example starts one in-process on a
background thread, so it also works standalone::

    python examples/serve_client.py
"""

import argparse

from repro.client import Client

SOURCE = """
type idx<a> = {v: number | 0 <= v && v < len(a)};
spec get :: (a: number[], i: idx<a>) => number;
function get(a, i) { return a[i]; }
"""

EDIT = SOURCE.replace("return a[i];", "var x = a[i]; return x;")


def drive(client: Client) -> None:
    hello = client.hello()
    print(f"server speaks {hello.protocol} (tenant {hello.tenant!r})")
    print(f"methods: {', '.join(hello.methods)}")

    check = client.check("example.rsc", SOURCE)
    print(f"\ncheck:  {check.status} in {check.time_seconds:.2f}s "
          f"({check.queries} solver queries)")
    assert check.ok, check.diagnostics

    update = client.update("example.rsc", EDIT)
    print(f"update: {update.status} in {update.time_seconds:.2f}s "
          f"(warm={update.warm}, {update.queries} queries)")

    # Pipelined supersession: submit a probe edit and immediately replace
    # it.  The server cancels the stale check instead of finishing it.
    probe = client.submit("update", uri="example.rsc", text=SOURCE + "//x\n")
    final = client.submit("update", uri="example.rsc", text=SOURCE)
    stale, fresh = client.wait(probe), client.wait(final)
    state = ("cancelled: " + stale.error_message if not stale.ok
             else "finished before the supersession landed")
    print(f"\nsuperseded edit {probe}: {state}")
    assert fresh.ok, fresh.error_message

    stats = client.stats()
    totals = stats.totals
    print(f"\nstats: {totals['requests_served']} requests, "
          f"{totals['checks_run']} checks, "
          f"{totals['cancelled_queued']} + {totals['cancelled_inflight']} "
          f"cancelled (queued + in-flight) across "
          f"{totals['tenants']} tenant(s)")
    for name, entry in sorted(stats.tenants.items()):
        latency = entry["latency"]
        print(f"  {name}: {entry['checks_run']} checks, "
              f"p50 {latency['p50_ms']:.1f}ms / p99 {latency['p99_ms']:.1f}ms")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1",
                        help="server host (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=None,
                        help="port of a running `repro serve --tcp` server; "
                             "omitted, an in-process server is started")
    parser.add_argument("--tenant", default="example",
                        help="tenant name to check under (default: example)")
    parser.add_argument("--shutdown", action="store_true",
                        help="stop the server when done")
    args = parser.parse_args()

    if args.port is not None:
        with Client.connect(args.host, args.port,
                            tenant=args.tenant, timeout=300) as client:
            drive(client)
            if args.shutdown:
                client.shutdown()
                print("\nserver shut down")
    else:
        from repro.service.server import AsyncCheckServer
        from repro.wire import ServerThread
        print("no --port given: starting an in-process server\n")
        with ServerThread(AsyncCheckServer()) as server:
            with Client.connect(server.host, server.port,
                                tenant=args.tenant, timeout=300) as client:
                drive(client)
                client.shutdown()

    print("\nserve_client: OK")


if __name__ == "__main__":
    main()
