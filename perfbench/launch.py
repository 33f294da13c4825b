"""Starts CLI processes for the benchmark (run.py), reaps them, and times
the calibration work.

A child's ru_maxrss includes the resident size of the process it was
spawned from, so run.py, whose heap holds the outputs it checks, does
not spawn the CLI itself: this small process does. The calibration work
runs in a child forked from it for each call, so that it starts from the
same small heap every time and leaves this process as small as it was.

Started by harness.Launcher with one end of a SOCK_SEQPACKET socket pair
as argv[1]. A message that carries three file descriptors is a JSON argv,
started with them as stdin, stdout and stderr; the reply is the pid. The
message b"reference" runs reference() in a forked child and replies with
its seconds. Any other message is a pid to reap; the reply is
[exit code, ru_maxrss in KiB]. An empty message (run.py closed its end)
stops the launcher.
"""

import json
import os
import socket
import sys
from time import perf_counter


def reference() -> float:
    """Seconds for a fixed piece of interpreter work that, like the CLI,
    allocates and touches some tens of MB: it slows down with the shared
    machine as the CLI does."""
    t0 = perf_counter()
    table = {}
    total = 0
    for i in range(200_000):
        total += i * i
        table[i] = total
    ",".join([str(v) for v in table.values()])
    return perf_counter() - t0


def _forked_reference() -> bytes:
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        os.write(write_end, repr(reference()).encode())
        os._exit(0)
    os.close(write_end)
    with open(read_end, "rb") as pipe:
        seconds = pipe.read()
    os.waitpid(pid, 0)
    return seconds


def main() -> None:
    sock = socket.socket(fileno=int(sys.argv[1]))
    os.set_inheritable(sock.fileno(), False)
    while True:
        message, fds, _, _ = socket.recv_fds(sock, 1 << 16, 3)
        if not message:
            return
        if fds:
            argv = json.loads(message)
            actions = [(os.POSIX_SPAWN_DUP2, fd, target) for fd, target in zip(fds, (0, 1, 2))]
            try:
                pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
            finally:
                for fd in fds:
                    os.close(fd)
            sock.send(str(pid).encode())
        elif message == b"reference":
            sock.send(_forked_reference())
        else:
            _, status, usage = os.wait4(int(message), 0)
            sock.send(json.dumps([os.waitstatus_to_exitcode(status), usage.ru_maxrss]).encode())


if __name__ == "__main__":
    main()
