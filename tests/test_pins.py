"""End-to-end byte pins of the four runners.

Each test hashes, over a fixed grid of seeds, keys and amplitudes (with
zero and negative-zero parts), every final state byte for byte (keys, and
float.hex of both parts of every amplitude, so the sign of zero counts),
the fidelity in float.hex and the report's as_dict().  A runner that raises
contributes its exception type and message.  The digests were generated
from the code before the code-space merge plan and the fused final
correction of apply_monomial existed, so they hold those paths to the
results of the combine/_coalesce and two-pass routes they replaced.
"""

import hashlib
import json

import pytest

from hqec.protocol import (
    KeyRegister,
    run_demo_circuit,
    run_logical_t_protocol,
    run_storage_protocol,
    run_transversal_t_protocol,
)
from hqec.rng import SplitMix64
from hqec.states import SparseState, unit_amplitudes

SEEDS = (0, 3, 11)
KEYS = ((0, 0), (0, 1), (1, 0), (1, 1))
AMPLITUDES = (
    (0.6, 0.8),
    (complex(-0.6, 0.0), complex(0.0, -0.8)),
    (complex(-0.0, 0.6), complex(0.8, -0.0)),
    (complex(1.0, 0.0), complex(0.0, 0.0)),
    (complex(-0.0, -0.0), complex(0.0, -1.0)),
    (complex(-0.0, 1.0), complex(-0.0, -0.0)),
    (complex(1.0, 1.0), complex(-1.0, 0.5)),
    (complex(0.3, -0.0), complex(-0.0, -0.9)),
    (complex(1e-300, 0.6), complex(-0.8, 1e-300)),
)
STORAGE_ERRORS = {
    "bit_flip": (None, "XII", "IXI", "IIZ", "IYI"),
    "phase_flip": (None, "ZII", "IZI", "IIX", "IYI"),
    "shor": (None, "XIIIIIIII", "IIIIZIIII", "IIIIIIIIY"),
    "steane": (None, "XIIIIII", "IIZIIII", "IIIIIIY"),
    "rm15": (None, "X" + "I" * 14, "I" * 7 + "Z" + "I" * 7, "I" * 14 + "Y"),
}


def _state_text(state) -> str:
    if state is None:
        return "none"
    terms = " ".join(f"{k:x}:{a.real.hex()},{a.imag.hex()}" for k, a in zip(state.keys, state.amps))
    return f"{state.n}|{terms}"


def _report_text(report) -> str:
    return "\n".join([
        _state_text(report.final_state),
        report.fidelity.hex(),
        json.dumps(report.as_dict(), sort_keys=True),
    ])


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _guarded(fn):
    try:
        return fn()
    except (ValueError, ArithmeticError) as exc:
        return f"raised {type(exc).__name__}: {exc}"


def _t_runner_lines(runner):
    for seed in SEEDS:
        for key in KEYS:
            for amps in AMPLITUDES:
                yield _guarded(lambda: _report_text(runner(amps, key, SplitMix64(seed))))


def test_transversal_t_pin():
    assert _digest(_t_runner_lines(run_transversal_t_protocol)) == (
        "f80d9cab7bf08c182174ed039c811cc1686b36d7dcac443db17ebd2d6a911504")


def test_logical_t_pin():
    assert _digest(_t_runner_lines(run_logical_t_protocol)) == (
        "2b84028a2ffedc75d6a022698b4648fa330dfee4ee56ead32c3a7bef40b52be6")


def _demo_lines():
    states = [None] + [SparseState(2, range(4), unit_amplitudes(a + tuple(reversed(a)))) for a in AMPLITUDES]
    for seed in SEEDS:
        for key in KEYS:
            for state in states:
                def run():
                    report, decrypted, expected = run_demo_circuit(
                        SplitMix64(seed), KeyRegister.uniform(2, *key), state)
                    return "\n".join([_state_text(decrypted), _state_text(expected), report.fidelity.hex(),
                                      json.dumps(report.as_dict(), sort_keys=True)])
                yield _guarded(run)


def test_demo_pin():
    assert _digest(_demo_lines()) == "0c2ef5491081674ab347d86427fe9618510ac9d649c821d0c6dffd48e10dc4be"


def _storage_lines(name):
    for key in KEYS:
        for amps in AMPLITUDES:
            for error in STORAGE_ERRORS[name]:
                yield _guarded(lambda: _report_text(run_storage_protocol(name, amps, key, error)))


STORAGE_DIGESTS = {
    "bit_flip": "c2b133631862228136c1c733c89ca5ce60245b7630def0eed8db73478d66b4e2",
    "phase_flip": "c2dec9f3fb05c4c5d4fb72f28878a6bdfd8fd1bbe6ee1a8541cfda4e07c0a35d",
    "shor": "1727515fc4ad7ed0ff9b793117837daf985dd9dfbd9af7a999305e481b1498ab",
    "steane": "009ab3a08578af3c199c8ee236c7c994f5ae2cd2b3006c412ec197dab59517e1",
    "rm15": "950de956239219380aa8d76748056f425cc868c4884320b479bd1208b0b0dc12",
}


@pytest.mark.parametrize("name", sorted(STORAGE_DIGESTS))
def test_storage_pin(name):
    assert _digest(_storage_lines(name)) == STORAGE_DIGESTS[name]
