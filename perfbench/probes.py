"""Isolated per-call timings on fixed demo-profile inputs, plus the bundled
scenarios.  Context for the traced run only; nothing here is gated.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import time

from ibetrust import ake, ibe, sim

# sha256 of SimReport.to_json() for the bundled scenarios at their own
# seeds; a change here means the report bytes changed
BUNDLED_DIGESTS = {
    "demo": "b65d68281b7d1c3286757486de3b5a30c91398ef5e76f8370ef2561998b9439f",
    "attacks": "8054ccab1363a7382848d7aca5ce9fb70852b3d5891de89252e4dd1e3009bfda",
}


def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / 1e6


def layer_probes() -> list[tuple[str, float, str]]:
    """(name, median ms per call, note) for each layer on fixed inputs."""
    params, master = ibe.setup(ibe.SecurityConfig.from_profile("demo", seed=1))
    curve = params.curve
    P, sP = params.generator, params.master_pub
    x = (P[0] * 7 + 3) % params.p
    scalar = params.q - 3  # a 160-bit scalar
    rng = random.Random(1)
    key_a = ibe.extract(params, master, "node-001")
    key_b = ibe.extract(params, master, "node-002")
    message = bytes(range(16))
    ct = ibe.encrypt(params, "node-002", message, rng=rng)
    msg, _ = ake.initiate(params, "node-001", key_a, "node-002", rng)
    probes = [
        ("pow(x, -1, p)", lambda: pow(x, -1, params.p), 2000),
        ("Curve.add", lambda: curve.add(P, sP), 2000),
        ("Curve.mul (160-bit)", lambda: curve.mul(scalar, P), 10),
        ("ibe.hash_to_point", lambda: ibe.hash_to_point(params, "node-001"), 10),
        ("Curve.pairing", lambda: curve.pairing(P, sP), 10),
        ("ibe.encrypt (1 block)", lambda: ibe.encrypt(params, "node-002", message, rng=rng), 5),
        ("ibe.decrypt (1 block)", lambda: ibe.decrypt(params, key_b, ct), 5),
        ("ake.initiate", lambda: ake.initiate(params, "node-001", key_a, "node-002", rng), 5),
        ("ake.respond", lambda: ake.respond(params, key_b, msg), 5),
    ]
    return [(name, _median_ms(fn, reps), f"median of {reps}") for name, fn, reps in probes]


def bundled_runs() -> list[tuple[str, float, str]]:
    """(name, ms for run + to_json, digest verdict) for each bundled scenario."""
    out = []
    for name in sorted(BUNDLED_DIGESTS):
        scenario = sim.load_scenario(name)
        t0 = time.perf_counter_ns()
        text = sim.run(scenario).to_json()
        ms = (time.perf_counter_ns() - t0) / 1e6
        digest = hashlib.sha256(text.encode()).hexdigest()
        verdict = "unchanged" if digest == BUNDLED_DIGESTS[name] else f"CHANGED {digest[:16]}"
        out.append((f"bundled {name}", ms, f"report digest {verdict}"))
    return out
