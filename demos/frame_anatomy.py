"""Walk through the binary layout of a few protocol frames.

Run it directly; it prints annotated hex dumps plus the authentication
policy that applies to each message class in the three crypto modes.
"""

from pbftkit.crypto import (AuthScheme, CryptoMode, MessageClass, classify,
                            required_auth)
from pbftkit.wire import (MessageKind, PrePrepareBody, Request, WireEnvelope,
                          encode, request_envelope)


def dump(label, frame):
    print(f"{label} ({len(frame)} bytes)")
    for off in range(0, len(frame), 16):
        chunk = frame[off:off + 16]
        print(f"  {off:04x}  {chunk.hex(' ')}")
    print()


def main():
    req = Request(client_id=7, request_id=1, payload=b"transfer 5")
    dump("REQUEST frame", encode(request_envelope(req)))

    body = PrePrepareBody((req,))
    env = WireEnvelope(MessageKind.PRE_PREPARE, view=0, seq=1, sender=0,
                       payload=body.encode())
    dump("PRE_PREPARE frame", encode(env))
    print("batch digest:", body.digest.hex())
    print()

    prep = WireEnvelope(MessageKind.PREPARE, 0, 1, 2, body.digest,
                        auths=((0, b"\x00" * 32),))
    dump("PREPARE frame with one MAC slot", encode(prep))

    print("required authenticator by (mode, class):")
    for mode in CryptoMode:
        for cls in MessageClass:
            print(f"  {mode.name:<17} {cls.name:<21} "
                  f"{required_auth(mode, cls).name}")
    print()
    print("a PREPARE is classified as", classify(MessageKind.PREPARE).name)


if __name__ == "__main__":
    main()
