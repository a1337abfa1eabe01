"""Clean twin of ``ipa_taint_flagged``: every cross-call flow sanitized.

Same call shapes as the flagged corpus -- helpers, returns, attribute
round-trips -- but every decrypted value passes through an encrypt step
(directly or through a wrapper whose *summary* proves it sanitizes), so
the interprocedural pass must stay silent.
"""


def encrypt_tensor(value):
    return ("ciphertext", value)


def protect(value):
    # Not an ``encrypt*`` name: only its computed summary (clean return
    # for tainted input) tells the analysis this sanitizes.
    return encrypt_tensor(value)


def relay(channel, payload):
    channel.send(payload)


def forward(channel, engine, share):
    plain = engine.decrypt_share(share)
    relay(channel, protect(plain))  # sanitized before the helper


def fetch(engine, blob):
    return engine.decrypt(blob)


def publish(channel, engine, blob):
    channel.send(encrypt_tensor(fetch(engine, blob)))  # sanitized


class Accumulator:
    def __init__(self):
        self.buf = None

    def stash(self, value):
        self.buf = value

    def flush(self, channel):
        channel.send(self.buf)


def round_trip(channel, engine, share):
    acc = Accumulator()
    acc.stash(protect(engine.decrypt_share(share)))  # stores ciphertext
    acc.flush(channel)


def put(box, value):
    box.held = value


def publish_boxed(channel, engine, box, share):
    put(box, protect(engine.decrypt_share(share)))  # stores ciphertext
    channel.send(box)
