"""Work counters: what the program did, counted where it does it.

The paper's claims are about work (Sec. IV, Eqs. 9-13).  The code doing
that work adds to one process-wide counter, :data:`WORK`, under the
names below; nothing resets or disables it, and :func:`counted` gives
the counts one block added.  A count goes up on the thread that asked
for the work: what a job on ``run_pair``'s worker counts, the caller
adds when it collects the job.  A number an object already keeps (a
device's launches, a ledger's operations) is read there.
"""

from collections import Counter
from contextlib import contextmanager
from typing import Iterator

#: Batches of words entered into libcrypto, and the words they held;
#: products of resident batches taken inside it (``mulmod_batch``'s
#: library route); callables handed to ``run_pair``'s worker thread.
CONVERSIONS = "native.conversions"
WORDS_ENTERED = "native.words_entered"
RESIDENT_PRODUCTS = "native.resident_products"
WORKER_SUBMISSIONS = "native.worker_submissions"
#: Library powers (calls into ``BN_mod_exp_mont_consttime``, two per
#: call into its ``_x2`` pair); library calls that ran two powers;
#: Montgomery contexts set up, each living as long as its owner holds it.
POWMODS = "native.powmods"
POWER_PAIRS = "native.power_pairs"
MONTGOMERY_CONTEXTS = "native.montgomery_contexts"
#: Paillier obfuscators computed, by either key (``r^n mod n^2``, or a
#: key holder's ``sigma(r)^n mod n^2``).
OBFUSCATORS = "crypto.obfuscators"
#: Slot codecs constructed; codecs looked up for a layout; guard-bit
#: widths derived from a party count; tensor metas built.
CODECS_BUILT = "quantization.codecs_built"
CODEC_LOOKUPS = "quantization.codec_lookups"
OVERFLOW_BITS = "quantization.overflow_bits"
METAS_BUILT = "tensor.metas_built"
#: Launch shapes priced by the GPU cost model (price-memo misses).
LAUNCH_PRICES = "gpu.launch_prices"
#: Journaled tensor frames decoded; round-state digests taken; journal
#: images parsed; journals compacted to a checkpoint; standby
#: coordinators built; records replayed by a coordinator built over a
#: journal.
FRAMES_DECODED = "federation.frames_decoded"
DIGESTS = "federation.digests"
JOURNAL_PARSES = "federation.journal_parses"
CHECKPOINTS = "federation.checkpoints"
STANDBYS_BUILT = "federation.standbys_built"
RECORDS_REPLAYED = "federation.records_replayed"

#: Work done in this process so far, by the names above.
WORK: Counter = Counter()


@contextmanager
def counted() -> Iterator[Counter]:
    """The counts the ``with`` block added, filled in when it ends."""
    before = WORK.copy()
    added: Counter = Counter()
    try:
        yield added
    finally:
        added.update(WORK - before)
