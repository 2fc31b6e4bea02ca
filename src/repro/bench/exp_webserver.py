"""R-F3: web-server throughput vs client concurrency — both loops.

The server is the protected party; clients model remote browsers.
Two measurement disciplines from the same seed:

* **closed loop** (the paper's style): each client issues its next
  request only after the previous response arrived.  Throughput is
  requests completed per million virtual cycles; the *implied* mean
  latency is concurrency / throughput (Little's law).
* **open loop** (:mod:`repro.serve.loadgen`): arrivals are fixed in
  advance by a seeded Poisson schedule; latency is measured from each
  request's *intended* arrival.

The gap between them is **coordinated omission**: a closed-loop client
stops offering load the moment the server queues, so its numbers
contain service time only.  The open-loop p95/p99 at a comparable
offered rate include the queueing delay the closed loop silently
discards — that difference is reported explicitly here, per
concurrency level.

Expected shape (paper, Apache): moderate constant-factor overhead from
the per-request syscall trail (accept/read/open/read/write ×
marshalling), flat-ish in concurrency because the single-CPU machine
is server-bound in both configurations; the open-loop tail multiplies
that constant factor through the queue.
"""

import hashlib
from typing import Dict

from repro.apps.webserver import WebServer
from repro.bench.runner import fresh_machine
from repro.bench.tables import Series, Table
from repro.serve.loadgen import LoadSpec, run_open_loop

CLIENT_COUNTS = (1, 2, 4, 8)
REQUESTS_PER_CLIENT = 4
FILE_SIZE = 8 * 1024
DOC_PATH = "/www/index.bin"

#: Open-loop leg: same seed for every concurrency level, mean gap
#: chosen near the closed-loop service rate so queues actually form.
OPEN_SEED = 3
OPEN_MEAN_GAP = 15_000


def _seed_document(machine) -> None:
    vfs = machine.kernel.vfs
    inode = vfs.create_file(DOC_PATH)
    payload = (hashlib.sha256(b"document").digest() * (FILE_SIZE // 32))
    machine.kernel.fs.write(inode, 0, payload[:FILE_SIZE])


def _throughput(server_cloaked: bool, clients: int) -> float:
    machine = fresh_machine(cloaked=False,
                            programs=("webclient",))
    # The server is registered separately so only *it* is cloaked.
    machine.register(WebServer, cloaked=server_cloaked)
    _seed_document(machine)
    vfs = machine.kernel.vfs
    vfs.mkfifo("/srv/req")
    for cid in range(clients):
        vfs.mkfifo(f"/srv/rsp{cid}")

    total_requests = clients * REQUESTS_PER_CLIENT
    snap = machine.cycles.snapshot()
    for cid in range(clients):
        machine.spawn("webclient",
                      (str(cid), str(REQUESTS_PER_CLIENT), DOC_PATH))
    server = machine.spawn("webserver", (str(total_requests),))
    machine.run()
    served_line = machine.kernel.console.text_of(server.pid)
    if f"served {total_requests}" not in served_line:
        raise RuntimeError(f"server under-served: {served_line!r}")
    cycles = machine.cycles.since(snap).total
    return total_requests / (cycles / 1_000_000.0)


def _open_loop(server_cloaked: bool, connections: int) -> Dict:
    spec = LoadSpec(
        app="webserver",
        requests=connections * REQUESTS_PER_CLIENT,
        mean_gap=OPEN_MEAN_GAP,
        arrival="poisson",
        connections=connections,
        keys=4,
        file_size=FILE_SIZE,
        seed=OPEN_SEED,
    )
    result = run_open_loop(spec, cloaked=server_cloaked)
    if result["completed"] != spec.requests:
        raise RuntimeError(
            f"open loop under-completed: {result['completed']}"
            f"/{spec.requests}")
    return result


def run(verbose: bool = True) -> Dict:
    closed = Series(
        "R-F3: web-server throughput vs concurrency "
        "(requests / Mcycle, closed loop)",
        "clients",
        ["native server", "cloaked server"],
    )
    open_series = Series(
        "R-F3: open-loop latency vs concurrency (cycles; same seed, "
        "Poisson arrivals)",
        "connections",
        ["native p50", "native p95", "cloaked p50", "cloaked p95"],
    )
    gap = Table(
        "R-F3: coordinated-omission gap (closed-loop implied mean vs "
        "open-loop p95, native server, cycles)",
        ["clients", "closed implied", "open p95", "hidden queueing x"],
    )
    for clients in CLIENT_COUNTS:
        native_tp = _throughput(False, clients)
        cloaked_tp = _throughput(True, clients)
        closed.add_point(clients, native_tp, cloaked_tp)

        native_open = _open_loop(False, clients)
        cloaked_open = _open_loop(True, clients)
        open_series.add_point(
            clients,
            native_open["latency"]["p50"],
            native_open["latency"]["p95"],
            cloaked_open["latency"]["p50"],
            cloaked_open["latency"]["p95"],
        )
        # Little's law on the closed-loop figures: mean latency =
        # concurrency / throughput.  The open-loop p95 at the same
        # concurrency includes the queueing the closed loop omits.
        implied = round(clients * 1_000_000.0 / native_tp, 1)
        p95 = native_open["latency"]["p95"]
        gap.add_row(clients, implied, p95,
                    round(p95 / implied, 2) if implied else 0.0)

    if verbose:
        closed.show()
        open_series.show()
        gap.show()
        print("coordinated omission: the closed-loop client waits for "
              "each response before sending again, so server queueing "
              "suppresses *offered load* instead of appearing as "
              "latency; the open-loop schedule keeps offering, and the "
              "tail shows what clients would actually experience.")
    return {"closed": closed, "open": open_series, "gap": gap}
