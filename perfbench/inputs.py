"""Seeded inputs for the benchmark's workloads.

Every generator takes the workload seed and returns plain tuples; it
imports neither bf2p nor anything outside the standard library, so the
program under test only ever sees the generated counts.  Each workload
is a fixed layout of regime slots, and the seed draws the counts inside
each slot, so two seeds exercise the same regimes with different data.
"""

from __future__ import annotations

import random

#: Counts (y1, n1, y2, n2).
Data = tuple[int, int, int, int]

#: Study ids of synthetic studies start here, after the bundled corpus.
SYNTHETIC_ID0 = 1001

#: ROADMAP item-3 extremes and their event-swapped mirrors, fixed across
#: seeds.  bf2p raises NumericalError on the first of each pair for every
#: LT-based cell; see known_failures.json.
EXTREME_PAIRS: tuple[tuple[Data, Data], ...] = (
    ((10**6, 10**6, 10**6, 10**6), (0, 10**6, 0, 10**6)),
    ((10**7, 10**7, 0, 10**7), (0, 10**7, 10**7, 10**7)),
)


def mirror(d: Data) -> Data:
    """Event swap y -> n - y in both groups; every Bayes factor is invariant."""
    y1, n1, y2, n2 = d
    return (n1 - y1, n1, n2 - y2, n2)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _count(rng: random.Random, n: int, p: float, spread: float = 0.3) -> int:
    """A count near n * p, jittered by +/- spread, kept strictly inside (0, n)."""
    y = round(n * p * rng.uniform(1.0 - spread, 1.0 + spread))
    return min(max(y, 1), n - 1)


def _size(rng: random.Random, n: int) -> int:
    return round(n * rng.uniform(0.9, 1.1))


def sweep_lt_studies(seed: int) -> tuple[list[tuple[int, str, Data]], list[tuple[int, int]]]:
    """Synthetic studies for ``sweep_lt`` and the (original, mirror) id pairs.

    Regimes: rare events at large n (like corpus ids 1-12), common
    events, boundary counts y in {0, n}, event-swapped mirrors of two
    studies of each regime, and the fixed extremes with their mirrors.
    """
    rng = _rng("sweep_lt", seed)
    rare = []
    for n, p in ((600, 0.03), (1500, 0.02), (3000, 0.012), (5000, 0.008), (7000, 0.006), (9000, 0.005)):
        n1, n2 = _size(rng, n), _size(rng, n)
        rare.append((_count(rng, n1, p), n1, _count(rng, n2, p), n2))
    common = []
    for n, p in ((60, 0.5), (120, 0.3), (250, 0.4), (400, 0.25), (700, 0.35), (1000, 0.45)):
        n1, n2 = _size(rng, n), _size(rng, n)
        common.append((_count(rng, n1, p), n1, _count(rng, n2, p), n2))
    n = [_size(rng, m) for m in (40, 80, 30, 20, 12, 300)]
    boundary = [
        (0, n[0], _count(rng, n[0], 0.1), n[0]),
        (n[1], n[1], _count(rng, n[1], 0.8), n[1]),
        (0, n[2], 0, n[2]),
        (n[3], n[3], n[3], n[3]),
        (0, n[4], n[4], n[4]),  # complete separation at small n
        (0, n[5], _count(rng, n[5], 0.01), n[5]),
    ]
    originals = rare + common + boundary
    studies: list[tuple[int, str, Data]] = []
    pairs: list[tuple[int, int]] = []

    def add(label: str, d: Data) -> int:
        sid = SYNTHETIC_ID0 + len(studies)
        studies.append((sid, label, d))
        return sid

    ids = [add(f"{kind}-{i}", d) for kind, group in (("rare", rare), ("common", common), ("boundary", boundary)) for i, d in enumerate(group)]
    for idx in (0, 3, 6, 9, 12, 13):
        pairs.append((ids[idx], add(f"mirror-{idx}", mirror(originals[idx]))))
    for k, (d, m) in enumerate(EXTREME_PAIRS):
        pairs.append((add(f"extreme-{k}", d), add(f"extreme-{k}-mirror", m)))
    return studies, pairs


#: Fixed panel of moderate-n studies for ``sweep_depib``, the same for
#: every seed, as the bundled corpus is for ``sweep_lt``.  The adaptive
#: 2-D quadrature's cost changes by up to 40% between neighbouring
#: counts, so a fully seeded batch would make the pass time depend on
#: the seed more than on the program.
DEPIB_PANEL: tuple[Data, ...] = ((4, 16, 6, 16), (9, 20, 7, 20), (0, 16, 3, 16), (8, 12, 12, 12))


def sweep_depib_studies(seed: int) -> list[tuple[int, str, Data]]:
    """The fixed panel plus two seeded small studies, one with y1 = 0.

    Three of the six studies have a count at 0 or n, so the clamped
    wedges and the H0 1-D quadrature both run.
    """
    rng = _rng("sweep_depib", seed)
    n = 10
    seeded = [
        (_count(rng, n, 0.3), n, _count(rng, n, 0.4), n),
        (0, n, _count(rng, n, 0.25), n),
    ]
    studies = list(DEPIB_PANEL) + seeded
    return [(SYNTHETIC_ID0 + i, f"depib-{i}", d) for i, d in enumerate(studies)]


#: The six commands of one ``cli_session`` cycle, in order.
CLI_KINDS = ("bf-ib", "bf-lt", "avg", "posterior-lt", "priors-eta", "priors-correlation")


def cli_commands(seed: int, cycles: int) -> list[tuple[str, Data | None, list[str]]]:
    """``cycles`` cycles of (kind, counts, argv) for ``python -m bf2p.cli``.

    Each cycle draws one study, rotating through rare-event, common-event
    and boundary-count regimes; the two ``priors`` commands take no
    counts, and the correlation command gets a seeded ``--seed``.
    """
    rng = _rng("cli_session", seed)
    out = []
    for c in range(cycles):
        regime = c % 3
        if regime == 0:
            n1, n2 = _size(rng, 3000), _size(rng, 3000)
            d = (_count(rng, n1, 0.01), n1, _count(rng, n2, 0.01), n2)
        elif regime == 1:
            n1, n2 = _size(rng, 200), _size(rng, 200)
            d = (_count(rng, n1, 0.35), n1, _count(rng, n2, 0.35), n2)
        else:
            n1, n2 = _size(rng, 40), _size(rng, 40)
            d = (0, n1, _count(rng, n2, 0.1), n2)
        counts = ["--y1", str(d[0]), "--n1", str(d[1]), "--y2", str(d[2]), "--n2", str(d[3])]
        out += [
            ("bf-ib", d, ["bf", *counts, "--method", "ib", "--format", "json"]),
            ("bf-lt", d, ["bf", *counts, "--method", "lt", "--format", "json"]),
            ("avg", d, ["avg", *counts, "--format", "json"]),
            ("posterior-lt", d, ["posterior", *counts, "--method", "lt"]),
            ("priors-eta", None, ["priors", "--config", "lt", "--quantity", "eta"]),
            (
                "priors-correlation",
                None,
                ["priors", "--config", "lt", "--quantity", "correlation", "--seed", str(rng.randrange(2**31))],
            ),
        ]
    return out
