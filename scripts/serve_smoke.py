#!/usr/bin/env python3
"""End-to-end smoke test for the htp_serve daemon.

Starts the daemon on a throwaway AF_UNIX socket, sends the same partition
request twice over one connection (cold cache, then warm), and checks the
contracts docs/server.md promises:

* both responses report status "ok" with matching echoed ids;
* the cold request misses every cache tier and the warm one hits them;
* the top-level ``deterministic`` sections of the two responses are
  byte-identical (cache state must never leak into results);
* the partition the daemon returns is byte-identical to what ``htp_cli
  --out`` writes for the same request and seed — the two binaries drive
  the same session pipeline and must never drift apart;
* the ECO warm-start path keeps the same parity (docs/incremental.md): a
  request carrying ``emit_warm_state`` returns the warm-start document, an
  empty-delta resume from it reports ``warm_source`` "state" with zero
  warm injections and returns the cold partition byte for byte, and the
  daemon's warm partition is byte-identical to what ``htp_cli
  --warm-start`` writes from the same state file;
* a hostile line of 200k nested '[' gets an error response, and the
  daemon keeps serving: the next request's partition is still
  byte-identical to htp_cli's;
* so does a line one byte over the daemon's line cap (64 MiB), whose bytes
  the daemon drops through the next newline;
* ping answers inline and shutdown terminates the daemon cleanly.

Usage (CI and ctest run exactly this):

    python3 scripts/serve_smoke.py --serve build/src/tools/htp_serve \\
        --cli build/src/tools/htp_cli

Stdlib only.
"""

import argparse
import json
import pathlib
import socket
import subprocess
import sys
import tempfile
import time

REQUEST = {
    "circuit": "c1355",
    "height": 3,
    "iterations": 1,
    "seed": 1,
}
CLI_ARGS = [
    "--circuit", "c1355", "--height", "3", "--iterations", "1", "--seed", "1",
]
# kMaxRequestLineBytes in src/server/protocol.hpp.
MAX_LINE_BYTES = 64 << 20


def recv_line(sock):
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = sock.recv(65536)
        if not chunk:
            raise RuntimeError(f"daemon closed the connection early: {buf!r}")
        buf += chunk
    return json.loads(buf)


def deterministic_slice(response):
    # Key order is part of the wire format, so a plain re-dump with
    # preserved order compares the section byte for byte.
    return json.dumps(response["deterministic"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--serve", required=True, help="htp_serve binary")
    parser.add_argument("--cli", required=True, help="htp_cli binary")
    parser.add_argument(
        "--timeout", type=float, default=120.0,
        help="overall deadline in seconds (default 120)")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        sock_path = tmp / "htp.sock"
        daemon = subprocess.Popen(
            [args.serve, "--socket", str(sock_path), "--threads", "1"])
        try:
            deadline = time.monotonic() + args.timeout
            while not sock_path.exists():
                if time.monotonic() > deadline:
                    raise RuntimeError("daemon never created its socket")
                if daemon.poll() is not None:
                    raise RuntimeError(
                        f"daemon exited early with {daemon.returncode}")
                time.sleep(0.05)

            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(args.timeout)
            sock.connect(str(sock_path))

            sock.sendall(json.dumps({"op": "ping", "id": "p"}).encode()
                         + b"\n")
            ping = recv_line(sock)
            assert ping["status"] == "ok" and ping["op"] == "ping", ping

            responses = []
            for request_id in ("cold", "warm"):
                request = dict(REQUEST, id=request_id)
                sock.sendall(json.dumps(request).encode() + b"\n")
                response = recv_line(sock)
                assert response["status"] == "ok", response
                assert response["id"] == request_id, response
                responses.append(response)
            cold, warm = responses

            assert cold["cache"]["netlist"] == "miss", cold["cache"]
            assert cold["cache"]["metric"]["hits"] == 0, cold["cache"]
            assert cold["cache"]["metric"]["misses"] > 0, cold["cache"]
            assert warm["cache"]["netlist"] == "hit", warm["cache"]
            assert warm["cache"]["metric"]["misses"] == 0, warm["cache"]
            assert warm["cache"]["metric"]["hits"] > 0, warm["cache"]
            print(f"cache: cold missed, warm hit "
                  f"({warm['cache']['metric']['hits']} metric hits)")

            cold_det = deterministic_slice(cold)
            warm_det = deterministic_slice(warm)
            assert cold_det == warm_det, (
                "deterministic sections differ between cold and warm:\n"
                f"  cold: {cold_det[:200]}...\n  warm: {warm_det[:200]}...")
            print("determinism: cold and warm deterministic sections are "
                  "byte-identical")

            out_file = tmp / "cli.part"
            subprocess.run(
                [args.cli, *CLI_ARGS, "--out", str(out_file)],
                check=True, stdout=subprocess.DEVNULL)
            cli_partition = out_file.read_text()
            serve_partition = cold["deterministic"]["partition"]
            assert serve_partition == cli_partition, (
                "daemon partition differs from htp_cli --out for the same "
                "request and seed")
            print(f"parity: daemon partition is byte-identical to htp_cli "
                  f"({len(cli_partition)} bytes)")

            # ECO warm-start parity: emit the state, resume from it, and
            # check the daemon's warm run against htp_cli --warm-start.
            emit_request = dict(REQUEST, id="emit", emit_warm_state=True)
            sock.sendall(json.dumps(emit_request).encode() + b"\n")
            emitted = recv_line(sock)
            assert emitted["status"] == "ok", emitted
            warm_state = emitted["deterministic"]["warm_state"]
            assert warm_state.startswith("htp-warm-start v1"), warm_state[:40]

            eco_request = dict(REQUEST, id="eco", warm_text=warm_state)
            sock.sendall(json.dumps(eco_request).encode() + b"\n")
            eco = recv_line(sock)
            assert eco["status"] == "ok", eco
            eco_summary = eco["deterministic"]["result"]["eco"]
            assert eco_summary["warm_source"] == "state", eco_summary
            assert not eco_summary["full_rebuild"], eco_summary
            assert eco_summary["warm_injections"] == 0, eco_summary
            assert eco["deterministic"]["partition"] == serve_partition, (
                "empty-delta warm resume is not byte-identical to the cold "
                "partition")

            state_file = tmp / "state.warm"
            state_file.write_text(warm_state)
            warm_out = tmp / "cli_warm.part"
            subprocess.run(
                [args.cli, *CLI_ARGS, "--warm-start", str(state_file),
                 "--out", str(warm_out)],
                check=True, stdout=subprocess.DEVNULL)
            assert eco["deterministic"]["partition"] == warm_out.read_text(), (
                "daemon warm partition differs from htp_cli --warm-start "
                "for the same state and seed")
            print("eco: daemon warm resume matches htp_cli --warm-start "
                  f"(reused {eco_summary['blocks_reused']} blocks, "
                  f"0 warm injections)")

            # Survival: a line nested far past the parser's depth cap must
            # get an ordinary error response, and the daemon must go on
            # answering valid requests with the same bytes.
            sock.sendall(b"[" * 200000 + b"\n")
            hostile = recv_line(sock)
            assert hostile["status"] == "error", hostile
            assert "nesting" in hostile["error"], hostile
            sock.sendall(json.dumps(dict(REQUEST, id="after")).encode()
                         + b"\n")
            after = recv_line(sock)
            assert after["status"] == "ok", after
            assert after["deterministic"]["partition"] == cli_partition, (
                "partition after the hostile line differs from htp_cli")
            print("survival: deep nesting answered with an error; the next "
                  "request still matches htp_cli byte for byte")

            # Survival: a line over the cap is answered with an error (the
            # daemon buffers no more than the cap), and the request after
            # it is answered with the same bytes as before.
            sock.sendall(b"x" * (MAX_LINE_BYTES + 1) + b"\n")
            oversized = recv_line(sock)
            assert oversized["status"] == "error", oversized
            assert "line exceeds" in oversized["error"], oversized
            sock.sendall(json.dumps(dict(REQUEST, id="after")).encode()
                         + b"\n")
            after_cap = recv_line(sock)
            assert after_cap["status"] == "ok", after_cap
            assert deterministic_slice(after_cap) == deterministic_slice(
                after), "response after the oversized line differs"
            print("survival: oversized line answered with an error; the next "
                  "deterministic section is byte-identical")

            sock.sendall(b'{"op":"shutdown"}\n')
            bye = recv_line(sock)
            assert bye["status"] == "ok" and bye["op"] == "shutdown", bye
            sock.close()
            if daemon.wait(timeout=args.timeout) != 0:
                raise RuntimeError(
                    f"daemon exited with {daemon.returncode} after shutdown")
            print("shutdown: daemon exited cleanly")
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
    print("serve smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
