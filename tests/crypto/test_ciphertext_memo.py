"""A ciphertext serializes once, and the memo is invisible.

``Ciphertext.serialize`` keeps its bytes beside the fields of the frozen
value.  The memo must never change what the value *is*: not its
equality, not its ``repr``, not its pickle, not what
``dataclasses.replace`` builds from it, and not what a fabric worker
sends back.
"""

import dataclasses
import pickle

from repro.crypto import bgv
from repro.runtime import TaskFabric


def _serialize_task(context, ct: bgv.Ciphertext) -> tuple[bgv.Ciphertext, bytes]:
    return ct, ct.serialize()


def _ciphertexts(public_key, rng, count=4):
    fresh = [bgv.encrypt_monomial(public_key, i, rng) for i in range(count)]
    return fresh + [bgv.multiply(fresh[0], fresh[1])]


def test_memo_is_not_pickled_compared_or_shown(public_key, rng):
    ct = bgv.multiply(
        bgv.encrypt_monomial(public_key, 2, rng),
        bgv.encrypt_monomial(public_key, 3, rng),
    )
    twin = pickle.loads(pickle.dumps(ct))
    before = (len(pickle.dumps(ct)), repr(ct))
    encoded = ct.serialize()
    assert ct.serialize() is encoded  # encoded once
    assert (len(pickle.dumps(ct)), repr(ct)) == before
    assert ct == twin and hash(ct) == hash(twin)
    assert pickle.loads(pickle.dumps(ct)).serialize() == encoded
    assert bgv.Ciphertext.deserialize(encoded, ct.profile).components == (
        ct.components
    )


def test_replace_builds_a_value_without_the_memo(public_key, rng):
    ct = bgv.encrypt_monomial(public_key, 5, rng)
    ct.serialize()
    shifted = dataclasses.replace(ct, components=bgv.shift(ct, 1).components)
    assert "_encoded" not in vars(shifted)
    assert shifted.serialize() != ct.serialize()
    assert shifted.serialize() == bgv.shift(ct, 1).serialize()
    retagged = dataclasses.replace(ct, noise_bits=ct.noise_bits + 1)
    assert "_encoded" not in vars(retagged)
    assert retagged.serialize() == ct.serialize()


def test_fabric_worker_returns_identical_bytes(public_key, rng):
    cts = _ciphertexts(public_key, rng)
    for ct in cts[::2]:
        ct.serialize()  # some memoized before they ship, some not
    with TaskFabric(workers=2, chunk_size=1) as fabric:
        results = fabric.map(_serialize_task, cts, label="test.serialize")
        assert fabric.last_out_of_process
    for ct, (returned, encoded) in zip(cts, results):
        assert returned == ct
        assert encoded == ct.serialize()
        assert returned.serialize() == encoded
