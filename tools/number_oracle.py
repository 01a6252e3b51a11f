#!/usr/bin/env python3
"""Check the daemon's decimal reader against Python's float().

Usage, with a daemon listening on SOCKET (`cloudia serve --socket SOCKET`):

    python3 tools/number_oracle.py SOCKET [SEED]

Sends one advise frame whose costs spell about 200 latencies in random
decimal forms: shortest and %.17g text, long mantissas, the exact
expansion of a double, integer mantissas with exponents, leading zeros,
and values at or next to the midpoint between two adjacent doubles.
The reply's fingerprint must equal FNV-1a-64 over n and the
little-endian bytes of float(s) for every cell, row by row, as
Lat_matrix.fingerprint computes it. Python's float() is correctly
rounded, so a mismatch is a bug in the reader. Exits non-zero on one.
"""

import json
import math
import random
import socket
import struct
import sys
from decimal import Decimal, getcontext

getcontext().prec = 1200
N = 15


def exact(d):
    """Every digit of a double or Decimal, in positional notation."""
    return format(Decimal(d), "f")


def spell(rng, v):
    """One of several decimal spellings of a value near [v] > 0."""
    kind = rng.randrange(9)
    if kind == 0:
        return repr(v)
    if kind == 1:
        return "%.17g" % v
    if kind == 2:
        return "%.25E" % v
    if kind == 3:
        return exact(v)
    if kind == 4:
        k = rng.randrange(15, 40)
        return "%de-%d" % (int(Decimal(v) * 10 ** k), k)
    if kind == 5:
        return "000" + ("%.12f" % v) + "00e+0"
    # the midpoint between v and the next double up: a tie, or just
    # above or below it
    mid = (Decimal(v) + Decimal(math.nextafter(v, math.inf))) / 2
    if kind == 6:
        return exact(mid)
    tiny = Decimal(10) ** -(rng.randrange(25, 40))
    return exact(mid + tiny if kind == 7 else mid - tiny)


def fnv1a64(n, cells):
    h = 0xCBF29CE484222325
    for byte in struct.pack("<q", n) + b"".join(struct.pack("<d", c) for c in cells):
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def recv_frame(sock):
    def exactly(k):
        buf = b""
        while len(buf) < k:
            chunk = sock.recv(k - len(buf))
            if not chunk:
                raise EOFError("daemon closed the connection")
            buf += chunk
        return buf

    (length,) = struct.unpack(">I", exactly(4))
    return json.loads(exactly(length))


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    rng = random.Random(int(sys.argv[2]) if len(sys.argv) == 3 else 1)
    text = [["0" if i == j else spell(rng, rng.uniform(0.05, 50.0)) for j in range(N)]
            for i in range(N)]
    job = {
        "id": "number-oracle", "tenant": "ci", "seed": 1, "solver": "greedy",
        "objective": "longest-link", "budget": 5,
        "graph": {"n": 3, "edges": [[0, 1], [1, 2]]},
        "costs": "COSTS",
    }
    doc = json.dumps({"type": "advise", "job": job}, separators=(",", ":"))
    # the spellings go in verbatim: json.dumps would respell them
    costs = "[" + ",".join("[" + ",".join(row) + "]" for row in text) + "]"
    payload = doc.replace('"COSTS"', costs).encode()
    want = "%016x" % fnv1a64(N, [float(s) for row in text for s in row])
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.connect(sys.argv[1])
        sock.sendall(struct.pack(">I", len(payload)) + payload)
        reply = recv_frame(sock)
    print("spellings:", N * (N - 1), "fingerprint:", reply.get("fingerprint"), "expected:", want)
    if reply.get("type") != "result":
        sys.exit("expected a result reply, got %r" % reply)
    if reply["fingerprint"] != want:
        sys.exit("fingerprint mismatch: the reader disagrees with float()")


if __name__ == "__main__":
    main()
