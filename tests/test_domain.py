"""One parameter domain: every entry point rejects a bad n_s, n_b or kappa
with the same message, from the checks in transmitters and target."""

import pytest

from gaussqi import highprec
from gaussqi.fock_oracle import thermal_fock
from gaussqi.reference import q_s_coherent_closed
from gaussqi.sweeps import SweepPlan
from gaussqi.target import TargetConfig, pair_stack
from gaussqi.transmitters import TransmitterSpec

NAN, INF = float("nan"), float("inf")
VALID = dict(n_s=1.0, n_b=1.0, kappa=0.1)

# Entry point -> (call taking n_s, n_b, kappa; the inputs it takes).
ENTRY_POINTS = {
    "TransmitterSpec/TargetConfig": (
        lambda n_s, n_b, kappa: (TransmitterSpec("coherent", n_s), TargetConfig(kappa, n_b)),
        ("n_s", "n_b", "kappa"),
    ),
    "SweepPlan": (
        lambda n_s, n_b, kappa: SweepPlan(n_s_grid=(n_s,), n_b_grid=(n_b,), kappa_grid=(kappa,)),
        ("n_s", "n_b", "kappa"),
    ),
    "pair_stack": (
        lambda n_s, n_b, kappa: pair_stack("tmss", n_s, n_b, kappa),
        ("n_s", "n_b", "kappa"),
    ),
    "highprec.log_q_s": (
        lambda n_s, n_b, kappa: highprec.log_q_s("coherent", n_s, n_b, kappa, 0.5),
        ("n_s", "n_b", "kappa"),
    ),
    # the closed form keeps its own kappa domain [0, 1), where kappa = 0 gives Q_s = 1
    "q_s_coherent_closed": (
        lambda n_s, n_b, kappa: q_s_coherent_closed(0.5, kappa, n_b, n_s),
        ("n_s", "n_b"),
    ),
    "thermal_fock": (lambda n_s, n_b, kappa: thermal_fock(n_b, 10), ("n_b",)),
}

BAD = [(name, value) for name in ("n_s", "n_b") for value in (-1.0, NAN, INF)] + [
    ("kappa", value) for value in (0.0, 1.0, -0.1, NAN)
]


def expected_message(name: str, value: float) -> str:
    if name == "kappa":
        return f"kappa must lie in (0, 1), got {value}"
    label = "n_signal" if name == "n_s" else name
    return f"{label} must be a finite non-negative number, got {value}"


def test_valid_point_passes_every_entry_point():
    for call, _ in ENTRY_POINTS.values():
        call(**VALID)


@pytest.mark.parametrize("name, value", BAD, ids=[f"{n}={v}" for n, v in BAD])
def test_every_entry_point_rejects_with_one_message(name, value):
    inputs = dict(VALID, **{name: value})
    messages = {}
    for entry, (call, takes) in ENTRY_POINTS.items():
        if name not in takes:
            continue
        with pytest.raises(ValueError) as info:
            call(**inputs)
        messages[entry] = str(info.value)
    assert set(messages.values()) == {expected_message(name, value)}, messages


KINDS_MESSAGE = "unknown transmitter kind 'laser'; expected one of ('vacuum', 'coherent', 'smsv', 'tmss')"
BAD_PROBES = [("laser", 1.0, KINDS_MESSAGE), ("vacuum", 0.5, "vacuum transmitter requires n_signal = 0")]


@pytest.mark.parametrize("kind, n_s, message", BAD_PROBES, ids=["unknown-kind", "vacuum-signal"])
def test_every_entry_point_rejects_a_bad_probe(kind, n_s, message):
    calls = [
        lambda: TransmitterSpec(kind, n_s),
        lambda: pair_stack(kind, n_s, 1.0, 0.1),
        lambda: highprec.log_q_s(kind, n_s, 1.0, 0.1, 0.5),
    ]
    if kind != "vacuum":  # a plan's vacuum rows ignore the n_s grid
        calls.append(lambda: SweepPlan(transmitters=(kind,), n_s_grid=(n_s,)))
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
