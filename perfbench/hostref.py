"""Fixed reference work that measures how fast the host is right now.

Wall time on a shared host drifts with whatever else the host runs: on a
2-CPU container the same code and seed ran 1.6x to 2.1x faster half an hour
later, on every workload.  The benchmark times a reference alongside its passes and
reports its timings in reference seconds, so a drift in host speed cancels
while a change in the program does not (the references share no code with
it).  There are two references, one per kind of bottleneck:

- ``compute``: the two hot loops the search and the simulator spend their
  time in — random playouts over a list-based state, and a heap-ordered
  event queue driving generator processes.
- ``echo``: a closed loop of request/reply exchanges with an asyncio server
  thread over a unix socket, one connection per exchange, JSON lines on the
  wire.  A busy host slows the job service mostly through thread wake-ups
  and socket round trips, which the compute reference does not see: over a
  contended stretch, service pass time over the echo time varied half as
  much as over the compute time.

Run as a script (``python3 perfbench/hostref.py compute|echo DIR``), it prints
the time of one run; the benchmark runs it that way, in interpreters that
never import the program.  ``DIR`` is where the echo socket lives.
"""

from __future__ import annotations

import asyncio
import heapq
import json
import os
import random
import socket
import sys
import threading
import time
from typing import Callable, Dict, Iterator

__all__ = ["QUIET_S", "REFERENCES", "compute_seconds", "echo_seconds"]

#: What each reference takes on a quiet 2-CPU x86-64 host with CPython 3.11;
#: reported times are scaled to a host of this speed.  The echo figure is
#: derived from service-mix's quiet pass time and its busy-host ratio to the
#: echo time, as that host was never quiet while the echo reference existed.
QUIET_S = {"compute": 0.10, "echo": 0.09}

ECHO_EXCHANGES = 600


def _process(pid: int) -> Iterator[float]:
    n = 0
    while True:
        n += 1
        yield n * 0.5 + pid


def compute_seconds(workdir: str) -> float:
    """Wall time of one run of the fixed reference computation."""
    start = time.perf_counter()
    rng = random.Random(12345)
    total = 0
    for _ in range(1500):
        board = list(range(64))
        while board:
            move = board.pop(rng.randrange(len(board)))
            total += move & 7
            if move % 5 == 0 and board:
                board.pop()
    processes = {pid: _process(pid) for pid in range(64)}
    heap = [(0.0, pid, pid) for pid in range(64)]
    seq = len(heap)
    fired: Dict[int, int] = {}
    for _ in range(200_000):
        when, _, pid = heapq.heappop(heap)
        fired[pid] = fired.get(pid, 0) + 1
        seq += 1
        heapq.heappush(heap, (when + next(processes[pid]), seq, pid))
    elapsed = time.perf_counter() - start
    if total <= 0 or sum(fired.values()) != 200_000:
        raise RuntimeError("reference computation went wrong")
    return elapsed


async def _echo(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    request = json.loads(await reader.readline())
    writer.write(json.dumps({"echo": request}).encode() + b"\n")
    await writer.drain()
    writer.close()


def echo_seconds(workdir: str) -> float:
    """Wall time of a fixed number of request/reply exchanges over a unix socket."""
    path = os.path.join(workdir, f"hostref-{os.getpid()}.sock")
    listener = socket.socket(socket.AF_UNIX)
    listener.bind(path)
    listener.listen(16)
    loop = asyncio.new_event_loop()

    def serve() -> None:
        server = loop.run_until_complete(asyncio.start_unix_server(_echo, sock=listener))
        loop.run_forever()
        server.close()
        loop.run_until_complete(server.wait_closed())
        loop.close()

    thread = threading.Thread(target=serve)
    thread.start()
    try:
        start = time.perf_counter()
        for i in range(ECHO_EXCHANGES):
            with socket.socket(socket.AF_UNIX) as sock:
                sock.connect(path)
                sock.sendall(json.dumps({"op": "run", "seq": i}).encode() + b"\n")
                reply = b""
                while not reply.endswith(b"\n"):
                    chunk = sock.recv(4096)
                    if not chunk:
                        raise RuntimeError("echo reference: connection closed early")
                    reply += chunk
            if json.loads(reply)["echo"]["seq"] != i:
                raise RuntimeError("echo reference: wrong reply")
        return time.perf_counter() - start
    finally:
        loop.call_soon_threadsafe(loop.stop)
        thread.join()
        os.unlink(path)


REFERENCES: Dict[str, Callable[[str], float]] = {"compute": compute_seconds,
                                                 "echo": echo_seconds}


if __name__ == "__main__":
    sys.stdout.write(f"{REFERENCES[sys.argv[1]](sys.argv[2])!r}\n")
