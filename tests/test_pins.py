"""End-to-end byte pins of the four runners and of the diagonal-gate action.

Each runner test hashes, over a fixed grid of seeds, keys and amplitudes (with
zero and negative-zero parts), every final state byte for byte (keys, and
float.hex of both parts of every amplitude, so the sign of zero counts),
the fidelity in float.hex and the report's as_dict().  A runner that raises
contributes its exception type and message.  The digests were generated
from the code before the code-space merge plan and the fused final
correction of apply_monomial existed, so they hold those paths to the
results of the combine/_coalesce and two-pass routes they replaced.
The wide storage pin runs every compatible builtin and two code files
(a ZZ chain with a negated link, a qubit-permuted steane) under every
single error, two weight-2 errors, a phased error and one of the wrong
size; its digest was generated while the runner still read each syndrome
bit back from the state.  It moved once since, when codes.syndrome took
over the width check of the wrong-size error: only those 56 lines changed,
from "dimension mismatch: operator on N+1, state on N" to "error acts on
N+1 qubits, code has N".  The wide teleport pin runs both T runners under
every key at 16 seeds, sampled and forced, on amplitudes with signed-zero
parts, and the demo at the same seeds on its own random state and keys and
on a signed-zero state; its digest was generated before run_circuit
checked every gate's qubit range ahead of the first gate.  The two pins of
the transversal-T runner were regenerated when its correction's global
phase became exact ([1.0, 0.0] for rm15): with that phase rounded to the
nearest power of i, the code before the change gives the same digests.

The diagonal-action pin hashes compat.diagonal_gate_action's leakage and
logical phases in float.hex (or the message it raises) on the builtin code
spaces, on seeded code texts shaped like the benchmark's cold codes
(permuted steane, rm15 and shor; steane and shor with one qubit conjugated
by H; ZZ chains with a negated first link), and on hand-built rotated bases
a|0> + b e^(i phi)|1>, -b e^(-i phi)|0> + a|1>, some at angles whose terms
fall near PRUNE_TOL (refused, unless their amplitudes are i^e / sqrt(N), as
bases of other amplitudes), for every phase of PHASES (e^(i pi/8), no power
of omega, is refused).  Its digest was generated from the exact
omega-exponent counts; every value in it is within 1.1e-15 of the float
projection route that they replaced, with the same verdict.  It moved once
since, when a basis of other amplitudes got its own refusal message in place
of "projection span is not orthonormal": with the old message put back in
those lines, the digest is the one before.
"""

import cmath
import hashlib
import json
import math
import random

import pytest

from hqec import BUILTIN_NAMES
from hqec.codes import CodeSpace, builtin_code, logical_codewords, parse_code_text
from hqec.compat import OMEGA, ProtocolError, diagonal_gate_action
from hqec.protocol import (
    KeyRegister,
    run_demo_circuit,
    run_logical_t_protocol,
    run_storage_protocol,
    run_transversal_t_protocol,
)
from hqec.rng import SplitMix64
from hqec.states import SparseState, unit_amplitudes
from oracles import basis_state, combine

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
    except (ValueError, ArithmeticError, ProtocolError) as exc:
        return f"raised {type(exc).__name__}: {exc}"


def _t_runner_lines(runner):
    for seed in SEEDS:
        for key in KEYS:
            for amps in AMPLITUDES:
                yield _guarded(lambda: _report_text(runner(amps, key, SplitMix64(seed))))


def test_transversal_t_pin():
    assert _digest(_t_runner_lines(run_transversal_t_protocol)) == (
        "b5ee81954cb5520635ecca0c9d27dae7b99f8a8c63b633c6d6534ed99dbdd61e")


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


WIDE_AMPLITUDES = ((0.6, 0.8), (complex(-0.0, 0.6), complex(0.8, -0.0)))
STORAGE_CODE_TEXTS = (
    # the 8-qubit ZZ chain with its first link negated
    "8 1\n-ZZIIIIII\nIZZIIIII\nIIZZIIII\nIIIZZIII\nIIIIZZII\nIIIIIZZI\nIIIIIIZZ\nXXXXXXXX\nZIIIIIII\n",
    # steane with its qubits permuted
    "7 1\nIXXIXIX\nXIIXXIX\nIXIXIXX\nZIZIIZZ\nZZIIZZI\nZZZZIII\nXXXXXXX\nZZZZZZZ\n",
)


def _wide_errors(n: int):
    """No error, every single X, Y and Z, two weight-2 errors, one with a
    -i prefix and one of the wrong size."""
    yield None
    for q in range(n):
        for letter in "XYZ":
            yield "I" * q + letter + "I" * (n - q - 1)
    yield "XX" + "I" * (n - 2)
    yield "Z" + "I" * (n - 2) + "Y"
    yield "-iIY" + "I" * (n - 2)
    yield "X" * (n + 1)


def _storage_wide_lines():
    codes = sorted(STORAGE_ERRORS) + [parse_code_text(text, f"file{i}") for i, text in enumerate(STORAGE_CODE_TEXTS)]
    for code in codes:
        n = builtin_code(code).n if isinstance(code, str) else code.n
        for key in KEYS:
            for amps in WIDE_AMPLITUDES:
                for error in _wide_errors(n):
                    yield _guarded(lambda: _report_text(run_storage_protocol(code, amps, key, error)))


def test_storage_wide_pin():
    assert _digest(_storage_wide_lines()) == (
        "0fde1bd70bb97706f9f216b89d12c6bcaf05fac658f2e61c00735b198a7ee6d2")


WIDE_SEEDS = range(16)
WIDE_T_AMPLITUDES = (
    (-0.6, 0.8j),
    (complex(-0.6, -0.0), complex(-0.0, 0.8)),
    (complex(0.28, -0.0), complex(-0.96, 0.0)),
)


def _forced_pairs(seed: int, count: int) -> list:
    """count outcome pairs drawn from a generator of its own, seeded apart from the run's."""
    draw = SplitMix64(1000 + seed)
    return [divmod(draw.next_u64() & 3, 2) for _ in range(count)]


def _teleport_wide_lines():
    # both T runners under every key, sampled and forced, then the demo on
    # its own random state and keys and on a state with signed-zero parts
    for seed in WIDE_SEEDS:
        for key in KEYS:
            for amps in WIDE_T_AMPLITUDES:
                yield _guarded(lambda: _report_text(run_transversal_t_protocol(amps, key, SplitMix64(seed))))
                yield _guarded(lambda: _report_text(
                    run_transversal_t_protocol(amps, key, SplitMix64(seed), _forced_pairs(seed, 15))))
                yield _guarded(lambda: _report_text(run_logical_t_protocol(amps, key, SplitMix64(seed))))
                yield _guarded(lambda: _report_text(
                    run_logical_t_protocol(amps, key, SplitMix64(seed), _forced_pairs(seed, 1)[0])))
    signed = SparseState(2, range(4), unit_amplitudes((complex(-0.6, -0.0), complex(-0.0, 0.8), 0.0,
                                                       complex(0.0, -0.0))))
    for seed in WIDE_SEEDS:
        for keys in (None, KeyRegister.uniform(2, seed & 1, seed >> 1 & 1)):
            for state in (None, signed):
                for forced in (None, _forced_pairs(seed, 2)):
                    def run():
                        report, decrypted, expected = run_demo_circuit(SplitMix64(seed), keys, state, forced)
                        return "\n".join([_state_text(decrypted), _state_text(expected), report.fidelity.hex(),
                                          json.dumps(report.as_dict(), sort_keys=True)])
                    yield _guarded(run)


def test_teleport_wide_pin():
    assert _digest(_teleport_wide_lines()) == (
        "488e49f690e3f50abad370be654be4bfe0a51d23b7d2f954c388841cde1f3f81")


PHASES = (OMEGA, OMEGA.conjugate(), -1j, 1j, 1.0, -1.0, cmath.exp(1j * cmath.pi / 8))
ANGLES = (0.0, 1e-13, 1e-12, 3e-12, 1e-11, 1e-6, 0.3, math.pi / 4, math.pi / 4 - 1e-13, math.pi / 4 + 1e-12,
          math.pi / 2 - 1e-13)
TWISTS = (0.0, 0.7, math.pi / 2, math.pi)


def _action_text(space, phase) -> str:
    def run():
        da = diagonal_gate_action(space, phase)
        phases = da.logical_phases
        shown = "none" if phases is None else " ".join(f"{p.real.hex()},{p.imag.hex()}" for p in phases)
        return f"{da.leakage.hex()} {shown}"
    return _guarded(run)


def _signed_product(a: str, b: str) -> str:
    """Product of two signed X-only or two signed Z-only Pauli strings."""
    sign = "-" if a.startswith("-") != b.startswith("-") else ""
    a, b = a.lstrip("-"), b.lstrip("-")
    return sign + "".join("I" if p == q else (p if q == "I" else q) for p, q in zip(a, b))


def _cold_text(rng, gens, lx: str, lz: str, hadamard: bool = False) -> str:
    """A code text with qubits permuted, each generator times a random subset
    of the later ones of its own type, and one qubit conjugated by H if asked."""
    n = len(lx)
    perm = list(range(n))
    rng.shuffle(perm)

    def permuted(text):
        sign, body = ("-", text[1:]) if text.startswith("-") else ("", text)
        out = [""] * n
        for q, ch in enumerate(body):
            out[perm[q]] = ch
        return sign + "".join(out)

    gens = [permuted(g) for g in gens]
    lx, lz = permuted(lx), permuted(lz)
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if len(set(gens[i] + gens[j]) - set("-I")) == 1 and rng.random() < 0.5:
                gens[i] = _signed_product(gens[i], gens[j])
    if hadamard:
        q, swap = rng.randrange(n), {"X": "Z", "Z": "X"}

        def conj(text):
            cut = len(text) - n
            return text[:cut + q] + swap.get(text[cut + q], text[cut + q]) + text[cut + q + 1:]

        gens, lx, lz = [conj(g) for g in gens], conj(lx), conj(lz)
    return "\n".join([f"{n} 1", *gens, lx, lz]) + "\n"


def _cold_spaces():
    for name, hadamard in (("steane", False), ("rm15", False), ("shor", False), ("steane", True), ("shor", True)):
        code = builtin_code(name)
        gens = [g.to_string() for g in code.generators]
        for seed in range(7):
            text = _cold_text(random.Random(seed), gens, code.logical_x[0].to_string(),
                              code.logical_z[0].to_string(), hadamard)
            yield logical_codewords(parse_code_text(text))
    for n in (8, 10):
        chain = [("-" if i == 0 else "") + "I" * i + "ZZ" + "I" * (n - i - 2) for i in range(n - 1)]
        for seed in range(7):
            text = _cold_text(random.Random(seed), chain, "X" * n, "Z" + "I" * (n - 1))
            yield logical_codewords(parse_code_text(text))


def _rotated_spaces():
    code = builtin_code("bit_flip")
    pairs = [(basis_state(1, 0), basis_state(1, 1)), (basis_state(2, 0), basis_state(2, 3))]
    pairs += [logical_codewords(builtin_code(name)).basis for name in ("bit_flip", "steane")]
    for zero, one in pairs:
        for theta in ANGLES:
            for phi in TWISTS:
                a, b = complex(math.cos(theta)), math.sin(theta) * cmath.exp(1j * phi)
                yield CodeSpace(code, (combine([zero, one], [a, b]), combine([zero, one], [-b.conjugate(), a])))
    zero, one = pairs[2]
    yield CodeSpace(code, (zero.scaled(1.5), basis_state(4, 0)))  # not orthonormal before the size check
    yield CodeSpace(code, (zero, basis_state(4, 0)))  # a size mismatch
    yield CodeSpace(code, (zero, zero))


def _diagonal_lines():
    spaces = [logical_codewords(builtin_code(name)) for name in BUILTIN_NAMES]
    for space in spaces + list(_cold_spaces()) + list(_rotated_spaces()):
        for phase in PHASES:
            yield _action_text(space, phase)


def test_diagonal_action_pin():
    assert _digest(_diagonal_lines()) == (
        "7b97e59c2f4b7c9b1ea9a8ab6af5951b53f9381147b1a039c4df0894ff7f03c5")
