"""One parameter domain: every entry point rejects a bad n_s, n_b or kappa
with the same message, from the checks in transmitters and target; every
entry point that takes moments rejects non-finite ones; and chernoff_many
rejects, after that, a stack outside its standard form or unphysical.
chernoff_many checks every pair it is given, degenerate or not, and takes
means of its covariances' shape."""

import numpy as np
import pytest

from gaussqi import highprec
from gaussqi.divergence import _standard_parameters, chernoff_many, fidelity_many
from gaussqi.fock_oracle import thermal_fock
from gaussqi.reference import q_s_coherent_closed, williamson
from gaussqi.sweeps import SweepPlan
from gaussqi.symplectic import GaussianState, symplectic_eigenvalues
from gaussqi.target import TargetConfig, _degenerate, pair_stack
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


def _coherent_pair_stack():
    return pair_stack("coherent", [1.0], 1.0, 0.1)


def _with_degenerate(m0, c0, m1, c1):
    """The stack followed by a degenerate pair of its mode count (legacy, no signal)."""
    kind = "coherent" if c0.shape[-1] == 2 else "tmss"
    tail = pair_stack(kind, [0.0], 1.0, 0.1, "legacy")
    return tuple(np.concatenate((head, extra)) for head, extra in zip((m0, c0, m1, c1), tail))


def _spoil(array, value, entry):
    array = array.copy()
    array[entry] = value
    return array


# Moment entry point -> call taking (mean0, cov0, mean1, cov1) stacks of one pair.
MOMENT_ENTRY_POINTS = {
    "williamson": lambda m0, c0, m1, c1: williamson(c1),
    "symplectic_eigenvalues": lambda m0, c0, m1, c1: symplectic_eigenvalues(c1),
    "GaussianState": lambda m0, c0, m1, c1: GaussianState(m1[0], c1[0]),
    "chernoff_many": chernoff_many,
    # stacked before a degenerate pair, which the search masks out
    "chernoff_many flagged": lambda *stack: chernoff_many(*_with_degenerate(*stack)),
    # takes the parameters (a, b), the diagonal of a one-mode standard form
    "fidelity_many": lambda m0, c0, m1, c1: fidelity_many(
        m0, np.diagonal(c0, axis1=1, axis2=2), m1, np.diagonal(c1, axis1=1, axis2=2)),
}


@pytest.mark.parametrize("value", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", list(MOMENT_ENTRY_POINTS))
def test_every_moment_entry_point_rejects_non_finite_covariance(entry, value):
    m0, c0, m1, c1 = _coherent_pair_stack()
    with pytest.raises(ValueError, match="covariance must be finite"):
        MOMENT_ENTRY_POINTS[entry](m0, c0, m1, _spoil(c1, value, (0, 0, 0)))


@pytest.mark.parametrize("value", [NAN, INF], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "entry", ["GaussianState", "chernoff_many", "chernoff_many flagged", "fidelity_many"]
)
def test_every_pair_entry_point_rejects_non_finite_mean(entry, value):
    m0, c0, m1, c1 = _coherent_pair_stack()
    with pytest.raises(ValueError, match="must be finite"):
        MOMENT_ENTRY_POINTS[entry](m0, c0, _spoil(m1, value, (0, 1)), c1)
    # a bad reference mean is caught as well
    if entry != "GaussianState":
        with pytest.raises(ValueError, match="means must be finite"):
            MOMENT_ENTRY_POINTS[entry](_spoil(m0, value, (0, 0)), c0, m1, c1)


def _tmss_pair_stack():
    return pair_stack("tmss", [1.0], 1.0, 0.1)


def _correlate(cov, i, j, value=0.1):
    cov = cov.copy()
    cov[:, i, j] = cov[:, j, i] = value
    return cov


# Stacks that break the standard form of chernoff_many, as (mean0, cov0, mean1, cov1).
NOT_STANDARD = {
    "one-mode q-p correlation": lambda m0, c0, m1, c1: (m0, c0, m1, _correlate(c1, 0, 1)),
    "two-mode q-p correlation": lambda m0, c0, m1, c1: (m0, c0, m1, _correlate(c1, 0, 3)),
    "two-mode unequal q entries": lambda m0, c0, m1, c1: (m0, _correlate(c0, 0, 0, 2.0), m1, c1),
    "two-mode unequal means": lambda m0, c0, m1, c1: (m0, c0, _spoil(m1, 0.1, (0, 2)), c1),
}


@pytest.mark.parametrize("case", list(NOT_STANDARD))
def test_chernoff_many_rejects_a_stack_not_in_standard_form(case):
    stack = NOT_STANDARD[case](*(_coherent_pair_stack() if case.startswith("one")
                                 else _tmss_pair_stack()))
    for moments in (stack, _with_degenerate(*stack)):
        with pytest.raises(ValueError, match="pair 0 is not in standard form"):
            chernoff_many(*moments)


def test_standard_form_error_names_the_callers_pair():
    # Pair 0 (no signal, legacy) is degenerate; the index counts it all the same.
    m0, c0, m1, c1 = pair_stack("coherent", [0.0, 1.0], 1.0, 0.1, "legacy")
    assert _degenerate(*_standard_parameters(m0, c0, m1, c1)).tolist() == [True, False]
    c1[1, 0, 1] = c1[1, 1, 0] = 0.1
    with pytest.raises(ValueError, match="pair 1 is not in standard form"):
        chernoff_many(m0, c0, m1, c1)


def test_chernoff_many_checks_finiteness_before_the_standard_form():
    m0, c0, m1, c1 = _tmss_pair_stack()
    for wrap in (lambda *stack: stack, _with_degenerate):
        with pytest.raises(ValueError, match="covariance must be finite"):
            chernoff_many(*wrap(m0, c0, m1, _correlate(c1, 0, 1, NAN)))
        with pytest.raises(ValueError, match="means must be finite"):
            chernoff_many(*wrap(m0, c0, _spoil(m1, NAN, (0, 2)), c1))


@pytest.mark.parametrize("kind, scale", [("coherent", 0.1), ("coherent", -1.0), ("tmss", 0.1)])
def test_chernoff_many_rejects_an_unphysical_standard_form(kind, scale):
    # 0.1 I has symplectic eigenvalues 0.1; -I is not positive definite.
    m0, c0, m1, c1 = _coherent_pair_stack() if kind == "coherent" else _tmss_pair_stack()
    bad = scale * np.eye(c1.shape[-1])[None]
    # The last stack's pair is degenerate, one unphysical state twice, and
    # is rejected all the same.
    for moments in ((m0, c0, m1, bad), _with_degenerate(m0, c0, m1, bad), (m1, bad, m1, bad)):
        with pytest.raises(ValueError, match="unphysical covariance"):
            chernoff_many(*moments)


def test_chernoff_many_takes_means_of_its_covariances_shape():
    m0, c0, m1, c1 = _coherent_pair_stack()
    assert chernoff_many(m0, c0, m1, c1)[0].xi == pytest.approx(0.01847, rel=1e-3)
    # Length-1 means would broadcast over both quadratures (xi = 0.03626);
    # a 2-pair mean stack over 1 pair of covariances would give one result.
    for means in ((m0[:, 0], m1[:, 0]), (np.concatenate((m0, m0)), np.concatenate((m1, m1)))):
        with pytest.raises(ValueError, match="means of shapes .* do not match covariances"):
            chernoff_many(means[0], c0, means[1], c1)


def test_chernoff_many_rejects_a_mode_mismatch():
    m0, c0, _, _ = _coherent_pair_stack()
    _, _, m1, c1 = _tmss_pair_stack()
    with pytest.raises(ValueError, match="mode mismatch: 1 vs 2"):
        chernoff_many(m0, c0, m1, c1)


def test_chernoff_many_rejects_a_three_mode_stack():
    # Finite, symmetric and physical, but no standard form has three modes;
    # the degenerate pair (vacuum twice) is rejected all the same.
    mean, vacuum = np.zeros((1, 6)), 0.5 * np.eye(6)[None]
    for cov1 in (vacuum, 2.0 * vacuum):
        with pytest.raises(ValueError, match="pair 0 is not in standard form"):
            chernoff_many(mean, vacuum, mean, cov1)
