"""The benchmark's workloads: which filter runs on which generated stream.

Every stream comes from kaf's own generators. A run of seed S makes R
rounds; round r trains on the stream of seed 1000 S + r, and the `kaf run`
of that round uses the same stream config, so its trial 0 sees exactly the
samples the online phase saw. Distinct streams per round average out how
much a single stream's admission path moves the large-K figures.
"""

from __future__ import annotations

from dataclasses import dataclass

GAUSS = {"family": "gaussian", "sigma": 1.0}
WARMUP_STEPS = 50
HELDOUT = 3000           # held-out points per prediction pass
SMOKE_HELDOUT = 200

ROUND_SEEDS = 1000
# Held-out points come from the same generator, under the seed of a round
# that no run reaches.
HELDOUT_ROUND = ROUND_SEEDS - 1


@dataclass(frozen=True)
class Workload:
    name: str
    filter: dict          # FilterConfig JSON, as `kaf run` reads it
    generator: str
    embed_L: int
    noise_std: float
    length: int           # generated samples per round
    k_target: int | None  # stop the online phase once K reaches this
    predict_passes: int   # passes over the held-out block per round
    round_s: float        # wall seconds of one round with its checks: rounds = seconds / round_s
    ref_matrix: int       # side of the matrix the reference loop streams (refclock)
    smoke_length: int

    def stream(self, seed: int, length: int) -> dict:
        """StreamConfig JSON, as `kaf run` reads it."""
        return {"generator": self.generator, "length": length,
                "noise_std": self.noise_std, "seed": seed, "embed_L": self.embed_L}

    def rounds(self, seconds: float, smoke: bool) -> int:
        return 1 if smoke else max(1, round(seconds / self.round_s))


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="krls_large_k",
            filter={"kind": "krls-ald-reg", "kernel": GAUSS, "lambda": 0.1, "delta": 0.01},
            generator="nonlinear_sysid", embed_L=3, noise_std=0.0,
            length=4000, k_target=500, predict_passes=6, round_s=12.0,
            ref_matrix=1024,
            smoke_length=300,
        ),
        Workload(
            name="krls_small_k",
            filter={"kind": "krls-ald-reg", "kernel": GAUSS, "lambda": 0.1, "delta": 0.01},
            generator="noisy_sinc", embed_L=1, noise_std=0.1,
            length=20000, k_target=None, predict_passes=20, round_s=8.0,
            ref_matrix=512,
            smoke_length=2000,
        ),
        Workload(
            name="klms_growing",
            filter={"kind": "klms", "kernel": GAUSS, "eta": 0.2},
            generator="nonlinear_sysid", embed_L=3, noise_std=0.0,
            length=16000, k_target=None, predict_passes=1, round_s=13.0,
            ref_matrix=512,
            smoke_length=1500,
        ),
    )
}


def round_seed(seed: int, r: int) -> int:
    return ROUND_SEEDS * seed + r


def build(kaf, w: Workload, U, d):
    """A fresh filter holding the stream's first sample."""
    fc = kaf.FilterConfig.from_json(w.filter)
    return kaf.experiments.build_filter(fc, U[0], d[0], w.embed_L)


def prepare(kaf, w: Workload, seed: int, smoke: bool, rounds: int = 1):
    """The benchmark's set-up: every round's stream, the held-out block, and a
    filter warmed up on the first stream. Returns (streams, heldout)."""
    def gen(r, length):
        return kaf.generate(kaf.StreamConfig.from_json(w.stream(round_seed(seed, r), length)))

    streams = [gen(r, w.smoke_length if smoke else w.length) for r in range(rounds)]
    heldout = gen(HELDOUT_ROUND, SMOKE_HELDOUT if smoke else HELDOUT)
    U, d = streams[0]
    warm = build(kaf, w, U, d)
    for i in range(1, WARMUP_STEPS + 1):
        warm.step(U[i], d[i])
    warm.predict(heldout[0][0])
    return streams, heldout
