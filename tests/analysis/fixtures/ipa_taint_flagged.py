"""Interprocedural plaintext leaks the per-module pass provably misses.

Every sink call here receives only parameters or attributes, so the
intraprocedural rule (which starts parameters clean and never follows
calls) finds nothing in this file; each marked line is reachable only
by composing per-function summaries across call edges.
"""


def relay(channel, payload):
    channel.send(payload)  # the sink lives inside the helper


def forward(channel, engine, share):
    plain = engine.decrypt_share(share)
    relay(channel, plain)  # flagged -- decrypt -> helper -> send


def hop(channel, value):
    relay(channel, value)


def forward_deep(channel, engine, share):
    plain = engine.decrypt_share(share)
    hop(channel, plain)  # flagged -- two-hop path through helpers


def forward_boxed(channel, engine, share):
    boxed = {"value": engine.decrypt_share(share)}
    relay(channel, boxed["value"])  # flagged -- container round-trip


def fetch(engine, blob):
    return engine.decrypt(blob)  # tainted-return summary


def publish(channel, engine, blob):
    plain = fetch(engine, blob)
    channel.send(plain)  # flagged -- taint arrives via a return value


class Accumulator:
    def __init__(self):
        self.buf = None

    def stash(self, value):
        self.buf = value  # parameter-dependent attribute write

    def flush(self, channel):
        channel.send(self.buf)  # flagged -- attribute holds plaintext


def round_trip(channel, engine, share):
    acc = Accumulator()
    acc.stash(engine.decrypt_share(share))  # grounds the attribute taint
    acc.flush(channel)



def put(box, value):
    box.held = value  # parameter-to-parameter store


def publish_boxed(channel, engine, box, share):
    put(box, engine.decrypt_share(share))  # the callee fills the box
    channel.send(box)  # flagged -- box holds what put() stored


def put_first(items, value):
    items[0] = value  # an item store into a parameter


def publish_items(channel, engine, items, share):
    put_first(items, engine.decrypt_share(share))
    channel.send(items)  # flagged -- items holds what put_first() stored


def fill(box, engine, blob):
    box.held = engine.decrypt(blob)  # stored whatever the caller passes


def publish_filled(channel, engine, box, blob):
    fill(box, engine, blob)
    channel.send(box)  # flagged -- fill() left plaintext in box
