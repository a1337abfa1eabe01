"""FLBooster's user-facing APIs (paper Sec. IV-D, Table I).

Array-oriented multi-precision arithmetic plus the Paillier / RSA facades,
exactly the surface of the paper's Table I:

>>> from repro.api.he import FlBooster
>>> fl = FlBooster()
>>> fl.add([1, 2], [3, 4])
[4, 6]
>>> pri, pub = fl.paillier.key_gen(128)
>>> c = fl.paillier.encrypt(pub, [5, 6])
>>> fl.paillier.decrypt(pri, fl.paillier.add(pub, c, c))
[10, 12]
"""
