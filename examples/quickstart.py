"""Quickstart: FLBooster's Table I APIs in two minutes.

Run:  python examples/quickstart.py

Covers the developer surface the paper ships: array arithmetic, modular
operations on the (simulated) GPU, and the Paillier / RSA homomorphic
APIs.
"""

from repro.api.he import FlBooster


def main() -> None:
    fl = FlBooster(seed=42)

    # --- Fundamental array operations -------------------------------
    print("add([1,2,3], [10,20,30])    =", fl.add([1, 2, 3], [10, 20, 30]))
    print("mul([2,3], [8,9])           =", fl.mul([2, 3], [8, 9]))
    print("mod([100, 101], 7)          =", fl.mod([100, 101], 7))
    print("mod_inv([3, 5], 7)          =", fl.mod_inv([3, 5], 7))
    print("mod_pow([2, 3], [10, 4], 1009) =",
          fl.mod_pow([2, 3], [10, 4], 1009))

    # --- Paillier: additively homomorphic ---------------------------
    pri, pub = fl.paillier.key_gen(1024)
    print(f"\nPaillier keypair generated ({pub.key_bits} bits)")

    gradients = [17, 25, 42]
    encrypted = fl.paillier.encrypt(pub, gradients)
    print(f"encrypted {gradients} -> {len(encrypted)} ciphertexts of "
          f"{pub.ciphertext_bytes()} bytes each")

    doubled = fl.paillier.add(pub, encrypted, encrypted)
    print("decrypt(c + c) =", fl.paillier.decrypt(pri, doubled))

    # --- RSA: multiplicatively homomorphic --------------------------
    rsa_pri, rsa_pub = fl.rsa.key_gen(1024)
    c1 = fl.rsa.encrypt(rsa_pub, [6, 10])
    c2 = fl.rsa.encrypt(rsa_pub, [7, 10])
    print("\nRSA decrypt(c1 * c2) =",
          fl.rsa.decrypt(rsa_pri, fl.rsa.mul(rsa_pub, c1, c2)))

    # --- What the simulated GPU saw ---------------------------------
    device = fl.kernels.device
    print(f"\nsimulated GPU: {device.launches} kernel launches, "
          f"mean SM utilization {device.mean_sm_utilization():.0%}, "
          f"{device.total_seconds * 1e3:.2f} ms modelled compute")


if __name__ == "__main__":
    main()
