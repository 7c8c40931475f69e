"""Benchmark inputs and the reference evaluation that checks the program.

The CSV inputs come from the benchmark's own numpy generator, keyed by the
workload seed, never from ``aumcf.simulation``: a planned change to the
simulation streams must leave these files byte-identical. Times are written
with four decimals, so event times tie with each other and with deaths and
the program's tie handling is part of what the check covers.

``reference_arm`` evaluates the README's Stieltjes sum
``theta = sum over u <= tau of (tau - u) * S_D(u-) * dN(u) / Y(u)`` with a
plain loop over the distinct times, sharing no code with the program.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np

TAU = 2.0
HORIZON = 3.0
EVENT_TYPES = (1, 2, 3)
TYPE_PROBS = (0.5, 0.3, 0.2)
# rates for arm 1 and arm 2; arm 2 has fewer recurrent events
EVENT_RATE = (1.2, 0.9)
# recurrent events per subject in arm 1 and arm 2, about the means that
# Poisson counts at the rates above give: an arm's total is fixed, so that
# inputs from different seeds are the same size
EVENTS_PER_SUBJECT = (1.55, 1.16)
DEATH_RATE = 0.3
CENSOR_RATE = 0.3
FRAILTY_VARIANCE = 1.0

HEADER = "id,time,status,arm,event_type,w1,w2"


def make_study_csv(n_per_arm: int, seed: int) -> tuple[bytes, dict]:
    """A two-arm recurrent-event CSV plus the arrays it encodes.

    Returns the CSV bytes and, per arm, the parsed follow-up times, terminal
    flags, event times and event types (read back from the written text, so
    the reference sees exactly the numbers the program parses).
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0xA0CF,)))
    lines = [HEADER]
    arms = {}
    for arm in (1, 2):
        n = n_per_arm
        w = rng.standard_normal((n, 2))
        frailty = rng.gamma(1.0 / FRAILTY_VARIANCE, FRAILTY_VARIANCE, n)
        death = rng.exponential(1.0 / (DEATH_RATE * frailty * np.exp(-0.5 * w[:, 0])))
        censor = np.minimum(rng.exponential(1.0 / CENSOR_RATE, n), HORIZON)
        follow_up = np.minimum(death, censor)
        terminal = death <= censor
        rate = EVENT_RATE[arm - 1] * frailty * np.exp(0.5 * w[:, 1])
        expected = rate * follow_up
        total = round(EVENTS_PER_SUBJECT[arm - 1] * n)
        counts = rng.multinomial(total, expected / expected.sum())
        owner = np.repeat(np.arange(n), counts)
        ev_time = rng.uniform(0.0, follow_up[owner])
        ev_time = ev_time[np.lexsort((ev_time, owner))]
        ev_type = rng.choice(EVENT_TYPES, size=owner.size, p=TYPE_PROBS)

        x_txt = [f"{v:.4f}" for v in follow_up]
        w_txt = [(f"{a:.6f}", f"{b:.6f}") for a, b in w]
        t_txt = [f"{v:.4f}" for v in ev_time]
        starts = np.concatenate(([0], np.cumsum(counts)))
        for i in range(n):
            sid = f"{arm}-{i:06d}"
            w1, w2 = w_txt[i]
            for k in range(starts[i], starts[i + 1]):
                lines.append(f"{sid},{t_txt[k]},1,{arm},{ev_type[k]},{w1},{w2}")
            lines.append(f"{sid},{x_txt[i]},{2 if terminal[i] else 0},{arm},,{w1},{w2}")
        arms[arm] = {
            "follow_up": [float(v) for v in x_txt],
            "terminal": terminal.tolist(),
            "event_times": [float(v) for v in t_txt],
            "event_types": ev_type.tolist(),
        }
    return ("\n".join(lines) + "\n").encode(), arms


def reference_arm(arm: dict, tau: float, event_type: int | None = None) -> dict:
    """Direct evaluation of theta, the MCF at tau and the KM curve at tau.

    Walks the distinct times in ascending order keeping Y(u), the number
    with follow-up >= u, and the Kaplan-Meier product S_D, which at an
    event time u still holds S_D(u-).
    """
    follow_up, terminal = arm["follow_up"], arm["terminal"]
    events = [
        t for t, k in zip(arm["event_times"], arm["event_types"])
        if t <= tau and (event_type is None or k == event_type)
    ]
    exits = Counter(follow_up)
    deaths = Counter(x for x, d in zip(follow_up, terminal) if d)
    d_n = Counter(events)
    at_risk = len(follow_up)
    surv, theta, mcf_tau = 1.0, 0.0, 0.0
    for u in sorted(set(exits) | set(d_n)):
        if u > tau:
            break
        if d_n[u]:
            jump = surv * d_n[u] / at_risk
            theta += (tau - u) * jump
            mcf_tau += jump
        if deaths[u]:
            surv *= 1.0 - deaths[u] / at_risk
        at_risk -= exits[u]
    return {"theta": theta, "mcf_tau": mcf_tau, "km_tau": surv}


def reference_study(arms: dict, tau: float, types: bool) -> dict:
    """Per-arm reference values, with the per-type thetas when ``types``."""
    out = {}
    for arm, data in arms.items():
        ref = reference_arm(data, tau)
        if types:
            ref["theta_by_type"] = {
                str(k): reference_arm(data, tau, k)["theta"] for k in EVENT_TYPES
            }
        out[str(arm)] = ref
    return out


def write_input(path, n_per_arm: int, seed: int, types: bool) -> dict:
    """Write the CSV for one run; return its hash, size and reference."""
    raw, arms = make_study_csv(n_per_arm, seed)
    with open(path, "wb") as fh:
        fh.write(raw)
    return {
        "path": str(path),
        "sha256": hashlib.sha256(raw).hexdigest(),
        "rows": raw.count(b"\n") - 1,
        "reference": reference_study(arms, TAU, types),
    }
