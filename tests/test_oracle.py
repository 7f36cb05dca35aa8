"""State-vector oracle tests, including the symbolic-equivalence sweeps."""

import functools
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapqkd import oracle, verify
from swapqkd.bell import ALL_LABELS, BellLabel, PairTable, PauliOp, swap_rule
from swapqkd.rng import ChosenDraws

labels = st.sampled_from(ALL_LABELS)

RSQRT2 = 1 / np.sqrt(2)


def lab(s: str) -> BellLabel:
    return BellLabel.from_string(s)


PREPARE_ERROR = ("need 1 to 4 pairs of distinct qubits and one label code 0-3 per pair for "
                 "each state; got ")


def from_table(table: PairTable) -> oracle.StateVector:
    """`oracle.prepare` on the table's pairs: their qubit layout and label codes."""
    pairs = table.pairs()
    return oracle.prepare([(a, b) for a, b, _ in pairs], [label.index for *_, label in pairs])


def bell_projector_set(state: oracle.StateVector, a: int, b: int) -> tuple[np.ndarray, ...]:
    """The four Bell projectors on (a, b), extended by identity elsewhere.

    Returned as dense 2^n x 2^n matrices in label order. They are mutually
    orthogonal, idempotent, and sum to the identity; the cheaper contraction
    path used by `oracle.oracle_bsm` is checked against them in `TestProjectors`.
    """
    n = state.n_qubits
    pa, pb = state.position(a), state.position(b)
    rest = 2 ** (n - 2)
    out = []
    for label in ALL_LABELS:
        v = oracle.BELL_VECTORS[label]
        full = np.kron(np.outer(v, v.conj()), np.eye(rest, dtype=complex))
        out.append(_restore_axis_order(full, n, pa, pb))
    return tuple(out)


def _restore_axis_order(full: np.ndarray, n: int, pa: int, pb: int) -> np.ndarray:
    """Rewrite a matrix built for axis order (pa, pb, rest...) in natural order."""
    order = [pa, pb] + [i for i in range(n) if i not in (pa, pb)]
    t = full.reshape([2] * (2 * n))
    # kron axis k (rows and columns alike) is natural axis order[k]
    src = list(range(2 * n))
    dst = order + [n + q for q in order]
    return np.moveaxis(t, src, dst).reshape(2**n, 2**n)


class TestPrepare:
    def test_plus_correlation_amplitudes(self):
        state = from_table(PairTable([(1, 2, lab("00"))]))
        np.testing.assert_allclose(state.amplitudes, [RSQRT2, 0, 0, RSQRT2], atol=1e-15)

    def test_singlet_amplitudes(self):
        state = from_table(PairTable([(1, 2, lab("11"))]))
        np.testing.assert_allclose(state.amplitudes, [0, RSQRT2, -RSQRT2, 0], atol=1e-15)

    def test_two_pair_product(self):
        state = from_table(PairTable([(1, 2, lab("00")), (3, 4, lab("00"))]))
        assert state.qubit_order == (1, 2, 3, 4)
        expected = np.zeros(16)
        expected[[0b0000, 0b0011, 0b1100, 0b1111]] = 0.5
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)

    def test_normalized(self):
        state = from_table(
            PairTable([(1, 2, lab("10")), (3, 5, lab("01")), (4, 6, lab("11"))])
        )
        assert abs(state.norm() - 1.0) < 1e-12

    def test_too_many_pairs_rejected(self):
        pairs = PairTable([(i, i + 1, lab("00")) for i in range(1, 11, 2)])
        with pytest.raises(ValueError) as caught:
            from_table(pairs)
        assert str(caught.value) == PREPARE_ERROR + (
            "pairs ((1, 2), (3, 4), (5, 6), (7, 8), (9, 10)) and int64 codes of shape (5,)")

    def test_empty_rejected(self):
        with pytest.raises(ValueError) as caught:
            from_table(PairTable())
        assert str(caught.value) == PREPARE_ERROR + "pairs () and float64 codes of shape (0,)"

    @pytest.mark.parametrize("pairs", [1, 2])
    def test_equals_kron_of_bell_vectors(self, pairs):
        """Every code tuple of 1 and 2 pairs, one state at a time and as one
        stack, on qubits that are neither sorted nor adjacent."""
        layout = [(5, 2), (8, 3)][:pairs]
        tuples = list(itertools.product(range(4), repeat=pairs))
        kron = [functools.reduce(np.kron, [oracle.BELL_VECTORS[ALL_LABELS[c]] for c in codes])
                for codes in tuples]
        stack = oracle.prepare(layout, tuples)
        assert stack.qubit_order == (5, 2, 8, 3)[: 2 * pairs]
        np.testing.assert_array_equal(stack.amplitudes, kron)
        for codes, expected in zip(tuples, kron):
            state = oracle.prepare(layout, codes)
            assert state.qubit_order == stack.qubit_order
            np.testing.assert_array_equal(state.amplitudes, expected)

    @pytest.mark.parametrize("layout, codes, got", [
        ([(1, 2), (2, 3)], [0, 0], "pairs ((1, 2), (2, 3)) and int64 codes of shape (2,)"),
        ([(1, 2, 3)], [0], "pairs ((1, 2, 3),) and int64 codes of shape (1,)"),
        ([(1,)], [0], "pairs ((1,),) and int64 codes of shape (1,)"),
        ([(1, 2), (3, 4)], [0], "pairs ((1, 2), (3, 4)) and int64 codes of shape (1,)"),
        ([(1, 2)], [[0, 1]], "pairs ((1, 2),) and int64 codes of shape (1, 2)"),
        ([(1, 2)], 0, "pairs ((1, 2),) and int64 codes of shape ()"),
        ([(1, 2)], [[[0]]], "pairs ((1, 2),) and int64 codes of shape (1, 1, 1)"),
        ([(1, 2)], [4], "pairs ((1, 2),) and int64 codes of shape (1,)"),
        ([(1, 2)], [-1], "pairs ((1, 2),) and int64 codes of shape (1,)"),
        ([(1, 2)], [1.0], "pairs ((1, 2),) and float64 codes of shape (1,)"),
        ([(1, 2)], [True], "pairs ((1, 2),) and bool codes of shape (1,)"),
        ([(1, 2)], [lab("01")], "pairs ((1, 2),) and object codes of shape (1,)"),
    ], ids=["shared-qubit", "triple", "single", "too-few-codes", "too-many-codes", "scalar",
            "three-axes", "code-4", "code-minus-1", "float", "bool", "label"])
    def test_bad_input_rejected(self, layout, codes, got):
        with pytest.raises(ValueError) as caught:
            oracle.prepare(layout, codes)
        assert str(caught.value) == PREPARE_ERROR + got


class TestOracleBsm:
    def test_cross_pair_outcomes_equiprobable(self):
        state = from_table(PairTable([(1, 2, lab("11")), (3, 4, lab("01"))]))
        for label in ALL_LABELS:
            outcome, post, probs = oracle.oracle_bsm(state, 1, 3, force=label)
            assert outcome is label
            np.testing.assert_allclose(probs, [0.25] * 4, atol=1e-12)
            assert oracle.bell_label_of(post, 1, 3) is label

    def test_eigenstate_readout(self):
        state = from_table(PairTable([(6, 8, lab("10"))]))
        outcome, post, probs = oracle.oracle_bsm(state, 6, 8, force=lab("10"))
        assert outcome is lab("10")
        np.testing.assert_allclose(probs, [0, 0, 1, 0], atol=1e-12)
        np.testing.assert_allclose(post.amplitudes, state.amplitudes, atol=1e-12)

    def test_forced_branch_collapses_partners(self):
        state = from_table(PairTable([(1, 2, lab("11")), (3, 4, lab("01"))]))
        _, post, _ = oracle.oracle_bsm(state, 1, 3, force=lab("00"))
        assert oracle.bell_label_of(post, 1, 3) == lab("00")
        assert oracle.bell_label_of(post, 2, 4) == lab("10")
        assert abs(post.norm() - 1.0) < 1e-12

    def test_zero_probability_branch_rejected(self):
        state = from_table(PairTable([(6, 8, lab("10"))]))
        with pytest.raises(oracle.ZeroProbabilityBranch):
            oracle.oracle_bsm(state, 6, 8, force=lab("00"))

    def test_needs_a_forced_outcome(self):
        state = from_table(PairTable([(1, 2, lab("11")), (3, 4, lab("01"))]))
        with pytest.raises(TypeError, match="force"):
            oracle.oracle_bsm(state, 1, 3)

    def test_unknown_qubit_rejected(self):
        state = from_table(PairTable([(1, 2, lab("00"))]))
        with pytest.raises(ValueError, match="not in this state"):
            oracle.oracle_bsm(state, 1, 9, force=lab("00"))


class TestBellLabelReadback:
    @pytest.mark.parametrize("text", ["00", "01", "10", "11"])
    def test_prepared_pair_reads_back(self, text):
        state = from_table(PairTable([(1, 2, lab(text))]))
        assert oracle.bell_label_of(state, 1, 2) == lab(text)

    def test_cross_pair_is_not_a_bell_pair(self):
        state = from_table(PairTable([(1, 2, lab("00")), (3, 4, lab("00"))]))
        assert oracle.bell_label_of(state, 1, 3) is None

    def test_qubit_order_agnostic(self):
        state = from_table(PairTable([(1, 2, lab("10"))]))
        # swapping the queried order keeps the same label (symmetric states)
        assert oracle.bell_label_of(state, 2, 1) == lab("10")


class TestOraclePauli:
    def test_bit_flip_moves_plus_correlation(self):
        state = from_table(PairTable([(1, 2, lab("00"))]))
        moved = oracle.oracle_apply_pauli(state, 2, PauliOp.X)
        assert oracle.bell_label_of(moved, 1, 2) == lab("10")

    def test_phase_flip_moves_plus_correlation(self):
        state = from_table(PairTable([(1, 2, lab("00"))]))
        moved = oracle.oracle_apply_pauli(state, 2, PauliOp.Z)
        assert oracle.bell_label_of(moved, 1, 2) == lab("01")

    def test_identity_is_identity(self):
        state = from_table(PairTable([(1, 2, lab("00"))]))
        moved = oracle.oracle_apply_pauli(state, 2, PauliOp.I)
        np.testing.assert_allclose(moved.amplitudes, state.amplitudes, atol=1e-15)

    @given(labels, st.sampled_from(list(PauliOp)), st.sampled_from([1, 2]))
    @settings(max_examples=40, deadline=None)
    def test_norm_preserved(self, label, op, qubit):
        state = from_table(PairTable([(1, 2, label)]))
        moved = oracle.oracle_apply_pauli(state, qubit, op)
        assert abs(moved.norm() - 1.0) < 1e-12


class TestProjectors:
    @pytest.mark.parametrize("pair", [(1, 3), (2, 4), (5, 6)])
    def test_projector_algebra(self, pair):
        state = from_table(
            PairTable([(1, 2, lab("11")), (3, 5, lab("10")), (4, 6, lab("10"))])
        )
        projectors = bell_projector_set(state, *pair)
        dim = 2 ** state.n_qubits
        np.testing.assert_allclose(sum(projectors), np.eye(dim), atol=1e-12)
        for i, p in enumerate(projectors):
            np.testing.assert_allclose(p @ p, p, atol=1e-12)
            for q in projectors[i + 1 :]:
                np.testing.assert_allclose(p @ q, np.zeros_like(p), atol=1e-12)

    def test_projector_weights_match_contraction_path(self):
        state = from_table(PairTable([(1, 2, lab("11")), (3, 4, lab("01"))]))
        projectors = bell_projector_set(state, 1, 3)
        direct = [
            float(np.real(np.vdot(state.amplitudes, p @ state.amplitudes)))
            for p in projectors
        ]
        _, _, weights = oracle.oracle_bsm(state, 1, 3, force=lab("00"))
        np.testing.assert_allclose(direct, weights, atol=1e-12)


def big_endian_bits(n: int) -> np.ndarray:
    """bits[i, p] is the bit of position p in basis index i; position 0 is
    the most significant bit, as the oracle's convention states."""
    return (np.arange(2**n)[:, None] >> (n - 1 - np.arange(n))) & 1


def reduced_density(state: oracle.StateVector, a: int, b: int) -> np.ndarray:
    """The 4 x 4 reduced density matrix of (a, b), row 2 * bit(a) + bit(b),
    tracing out the other qubits index by index."""
    n = state.n_qubits
    pa, pb = state.position(a), state.position(b)
    bits = big_endian_bits(n)
    rest = [p for p in range(n) if p not in (pa, pb)]
    m = np.zeros((4, 2 ** (n - 2)), dtype=complex)
    m[2 * bits[:, pa] + bits[:, pb], bits[:, rest] @ 2 ** np.arange(n - 2)] = state.amplitudes
    return m @ m.conj().T


def label_by_fidelity(state: oracle.StateVector, a: int, b: int, tol: float = 1e-9):
    """The first label whose fidelity against the reduced density matrix of
    (a, b) is at least 1 - tol, or None."""
    rho = reduced_density(state, a, b)
    for label in ALL_LABELS:
        v = oracle.BELL_VECTORS[label]
        if float(np.real(v.conj() @ rho @ v)) >= 1.0 - tol:
            return label
    return None


def pauli_operator(n: int, position: int, op: PauliOp) -> np.ndarray:
    """The 2^n x 2^n operator of `op` on `position`, identity elsewhere."""
    left = np.eye(2**position, dtype=complex)
    right = np.eye(2 ** (n - 1 - position), dtype=complex)
    return np.kron(np.kron(left, oracle.PAULI_MATRICES[op]), right)


class TestIndexConvention:
    """Every oracle call against dense matrices built the plain way, on
    tables of 1-4 pairs whose qubit ids are permuted and not adjacent, and
    on a generic state over the same qubit order."""

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_oracle_calls_equal_dense_matrices(self, data):
        n = data.draw(st.integers(1, 4), label="pairs")
        ids = data.draw(st.permutations(range(1, 9)), label="ids")[: 2 * n]
        table = PairTable([(ids[i], ids[i + 1], data.draw(labels)) for i in range(0, 2 * n, 2)])
        state = from_table(table)
        a, b = data.draw(st.permutations(ids), label="measured")[:2]
        op = data.draw(st.sampled_from(list(PauliOp)), label="op")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        amps = rng.normal(size=2 ** (2 * n)) + 1j * rng.normal(size=2 ** (2 * n))
        generic = oracle.StateVector(amps / np.linalg.norm(amps), state.qubit_order)
        for psi in (state, generic):
            vec = psi.amplitudes
            for label, projector in zip(ALL_LABELS, bell_projector_set(psi, a, b)):
                p = float(np.real(np.vdot(vec, projector @ vec)))
                if p < 1e-12:
                    with pytest.raises(oracle.ZeroProbabilityBranch):
                        oracle.oracle_bsm(psi, a, b, force=label)
                    continue
                _, post, weights = oracle.oracle_bsm(psi, a, b, force=label)
                assert weights[label.index] == pytest.approx(p, abs=1e-12)
                np.testing.assert_allclose(post.amplitudes, projector @ vec / np.sqrt(p),
                                           atol=1e-12)
                pairs = itertools.permutations(ids, 2) if psi is state else [(a, b), (b, a)]
                for x, y in pairs:
                    assert oracle.bell_label_of(post, x, y) == label_by_fidelity(post, x, y)
            for position, q in enumerate(psi.qubit_order):
                moved = oracle.oracle_apply_pauli(psi, q, op)
                np.testing.assert_allclose(
                    moved.amplitudes, pauli_operator(2 * n, position, op) @ vec, atol=1e-12)
        for x, y in itertools.permutations(ids, 2):
            assert oracle.bell_label_of(state, x, y) == label_by_fidelity(state, x, y)


def single_or_zero(call, *args, **kwargs):
    """`call`'s result, or None where it raises ZeroProbabilityBranch."""
    try:
        return call(*args, **kwargs)
    except oracle.ZeroProbabilityBranch:
        return None


class TestStacks:
    """A stack of k states on one qubit order against k single-state calls,
    on layouts of 1-4 pairs with permuted qubit ids. The stack mixes prepared
    Bell states, whose zero-weight branches must raise, with generic states."""

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_stacked_calls_equal_single_state_calls(self, data):
        n = data.draw(st.integers(1, 4), label="pairs")
        k = data.draw(st.integers(1, 5), label="states")
        ids = data.draw(st.permutations(range(1, 9)), label="ids")[: 2 * n]
        layout = list(zip(ids[::2], ids[1::2]))
        codes = data.draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                                   min_size=k, max_size=k), label="codes")
        prepared = oracle.prepare(layout, codes)
        assert prepared.amplitudes.shape == (k, 2 ** (2 * n))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        rows = []
        for each, row in zip(codes, prepared.amplitudes):
            single = oracle.prepare(layout, each)
            assert single.qubit_order == prepared.qubit_order
            np.testing.assert_allclose(row, single.amplitudes, atol=1e-12)
            if data.draw(st.booleans(), label="generic"):
                amps = rng.normal(size=row.size) + 1j * rng.normal(size=row.size)
                row = amps / np.linalg.norm(amps)
            rows.append(row)
        stack = oracle.StateVector(np.array(rows), prepared.qubit_order)
        states = [oracle.StateVector(row.copy(), stack.qubit_order) for row in rows]
        a, b = data.draw(st.permutations(ids), label="measured")[:2]
        op = data.draw(st.sampled_from(list(PauliOp)), label="op")
        forced = data.draw(st.lists(labels, min_size=k, max_size=k), label="forced")
        ops = data.draw(st.lists(st.sampled_from(list(PauliOp)), min_size=k, max_size=k),
                        label="ops")
        returned = [prepared]
        for force in [*ALL_LABELS, forced]:  # one label for every state, then one per state
            each = force if isinstance(force, list) else [force] * k
            singles = [single_or_zero(oracle.oracle_bsm, s, a, b, force=f)
                       for s, f in zip(states, each)]
            if None in singles:
                with pytest.raises(oracle.ZeroProbabilityBranch) as caught:
                    oracle.oracle_bsm(stack, a, b, force=force)
                named = re.fullmatch(rf"branch (\d\d) on \({a},{b}\) has probability \S+",
                                     str(caught.value))
                assert named and named[1] in {f.text for f, s in zip(each, singles) if s is None}
                continue
            outcome, post, weights = oracle.oracle_bsm(stack, a, b, force=force)
            assert outcome is force
            np.testing.assert_allclose(weights, [w for *_, w in singles], atol=1e-12)
            np.testing.assert_allclose(post.amplitudes, [p.amplitudes for _, p, _ in singles],
                                       atol=1e-12)
            for x, y in itertools.permutations(ids, 2):
                got = oracle.bell_label_of(post, x, y)
                assert got == tuple(oracle.bell_label_of(p, x, y) for _, p, _ in singles)
            returned.append(post)
        for x, y in itertools.permutations(ids, 2):
            got = oracle.bell_label_of(stack, x, y)
            assert got == tuple(oracle.bell_label_of(s, x, y) for s in states)
        for q, pauli in itertools.product(ids, (op, ops)):
            moved = oracle.oracle_apply_pauli(stack, q, pauli)
            each = pauli if isinstance(pauli, list) else [pauli] * k
            singles = [oracle.oracle_apply_pauli(s, q, o) for s, o in zip(states, each)]
            np.testing.assert_allclose(moved.amplitudes, [m.amplitudes for m in singles],
                                       atol=1e-12)
            norms = moved.norm()
            assert isinstance(norms, np.ndarray) and norms.shape == (k,)
            assert all(type(m.norm()) is float for m in singles)
            np.testing.assert_allclose(norms, [m.norm() for m in singles], atol=1e-12)
            for x, y in zip(ids[::2], ids[1::2]):
                got = oracle.bell_label_of(moved, x, y)
                assert got == tuple(oracle.bell_label_of(m, x, y) for m in singles)
            returned.append(moved)
        for s in returned:
            with pytest.raises(ValueError, match="read-only"):
                s.amplitudes[0, 0] = 0

    def test_per_state_sequence_of_another_length_rejected(self):
        stack = oracle.prepare([(1, 2)], [[label.index] for label in ALL_LABELS])
        single = oracle.prepare([(1, 2)], [0])
        for state, n in ((stack, 3), (stack, 5), (single, 1)):
            shape = re.escape(str(state.amplitudes.shape))
            with pytest.raises(ValueError, match=rf"^{n} forced outcomes for amplitudes {shape}$"):
                oracle.oracle_bsm(state, 1, 2, force=[lab("00")] * n)
            with pytest.raises(ValueError, match=rf"^{n} Pauli ops for amplitudes {shape}$"):
                oracle.oracle_apply_pauli(state, 1, [PauliOp.X] * n)

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError) as caught:
            oracle.prepare([(1, 2), (3, 4)], np.zeros((0, 2), dtype=int))
        assert str(caught.value) == (
            PREPARE_ERROR + "pairs ((1, 2), (3, 4)) and int64 codes of shape (0, 2)")


class TestReadOnly:
    def test_returned_states_are_read_only(self):
        state = from_table(PairTable([(1, 2, lab("11")), (3, 4, lab("01"))]))
        _, post, _ = oracle.oracle_bsm(state, 1, 3, force=lab("00"))
        moved = oracle.oracle_apply_pauli(post, 4, PauliOp.Y)
        for s in (state, post, moved):
            with pytest.raises(ValueError, match="read-only"):
                s.amplitudes[0] = 0


def per_state_swap_sweep(rule) -> list[str]:
    """The reference for `verify.check_swap_against_oracle`: one state per
    initial label pair, each measured and read back on its own."""
    problems = []
    for left, right in itertools.product(ALL_LABELS, repeat=2):
        state = from_table(PairTable([(1, 2, left), (3, 4, right)]))
        for outcome in ALL_LABELS:
            _, post, probs = oracle.oracle_bsm(state, 1, 3, force=outcome)
            if np.max(np.abs(probs - 0.25)) > 1e-12:
                problems.append(f"({left},{right},{outcome}): weights {probs.tolist()}")
            induced = oracle.bell_label_of(post, 2, 4)
            predicted = rule(left, right, outcome)
            if induced != predicted:
                problems.append(
                    f"({left},{right},{outcome}): oracle label "
                    f"{induced}, rule says {predicted}"
                )
    return problems


def per_state_pauli_sweep() -> list[str]:
    """The reference for `verify.check_pauli_semantics`: one state per label."""
    problems = []
    for label in ALL_LABELS:
        state = from_table(PairTable([(1, 2, label)]))
        for op in PauliOp:
            for q in (1, 2):
                moved = oracle.oracle_apply_pauli(state, q, op)
                got = oracle.bell_label_of(moved, 1, 2)
                want = op.apply(label)
                if got != want:
                    problems.append(f"{op.name} on qubit {q} of {label}: {got} != {want}")
                if abs(moved.norm() - 1.0) > 1e-12:
                    problems.append(f"{op.name} on {label}: norm {moved.norm()!r}")
    return problems


def corrupted_rule(case):
    """`swap_rule` with the outcome's x bit flipped on one (left, right,
    outcome) case, or on every case when `case` is None."""
    def rule(left, right, outcome):
        honest = swap_rule(left, right, outcome)
        wrong = case is None or (left, right, outcome) == case
        return honest ^ lab("10") if wrong else honest
    return rule


CASES = list(itertools.product(ALL_LABELS, repeat=3))
PAULI_CASES = list(itertools.product(ALL_LABELS, PauliOp))


class TestSymbolicEquivalence:
    def test_swap_rule_matches_oracle_on_all_64_cases(self):
        assert verify.check_swap_against_oracle() == []

    def test_swap_table_rows_reproduce(self):
        assert verify.check_swap_table() == []

    def test_pauli_toggles_match_oracle(self):
        assert verify.check_pauli_semantics() == []
        assert per_state_pauli_sweep() == []

    def test_run_all_counts(self):
        assert verify.run_all() == (64, 64, [])

    def test_run_all_builds_no_pair_table(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("the oracle sweep built a PairTable")

        monkeypatch.setattr(PairTable, "__init__", refuse)
        assert verify.run_all() == (64, 64, [])
        assert not hasattr(oracle, "PairTable") and not hasattr(verify, "PairTable")

    @pytest.mark.parametrize("case", [*CASES, None],
                             ids=[*("".join(map(str, c)) for c in CASES), "everywhere"])
    def test_stacked_sweep_equals_per_state_sweep(self, case):
        rule = corrupted_rule(case)
        problems = verify.check_swap_against_oracle(rule)
        assert problems == per_state_swap_sweep(rule)
        assert len(problems) == (64 if case is None else 1)

    def test_run_all_counts_cases_not_lines(self, monkeypatch):
        verified, cases, problems = verify.run_all(corrupted_rule(None))
        assert (verified, cases, len(problems)) == (0, 64, 80)
        verified, cases, problems = verify.run_all(corrupted_rule(CASES[37]))
        assert (verified, cases) == (63, 64)
        assert problems == verify.check_swap_table(corrupted_rule(CASES[37])) + [
            "(10,01,01): oracle label 10, rule says 00"]
        bsm = oracle.oracle_bsm

        def skewed(state, a, b, force):  # state 37 of the stack, case (10,01,01), skewed
            outcome, post, probs = bsm(state, a, b, force=force)
            probs = probs.copy()
            probs[37] = [0.5, 0.5, 0.0, 0.0]
            return outcome, post, probs

        monkeypatch.setattr(oracle, "oracle_bsm", skewed)
        verified, cases, problems = verify.run_all(corrupted_rule(CASES[37]))
        assert (verified, cases) == (63, 64)
        assert problems[-2:] == ["(10,01,01): weights [0.5, 0.5, 0.0, 0.0]",
                                 "(10,01,01): oracle label 10, rule says 00"]

    def test_stacked_pauli_sweep_equals_per_state_sweep(self, monkeypatch):
        apply = oracle.oracle_apply_pauli
        rotated = {PauliOp.I: PauliOp.I, PauliOp.X: PauliOp.Z, PauliOp.Z: PauliOp.Y,
                   PauliOp.Y: PauliOp.X}

        def rotating(state, q, op):  # a wrong Pauli for three ops, a norm off for one qubit
            if isinstance(op, PauliOp):  # a single call of the per-state reference
                moved = apply(state, q, rotated[op])
                return oracle.StateVector(moved.amplitudes * stretch(q, op), moved.qubit_order)
            moved = apply(state, q, [rotated[each] for each in op])  # one state per op
            scale = np.array([[stretch(q, each)] for each in op])
            return oracle.StateVector(moved.amplitudes * scale, moved.qubit_order)

        def stretch(q, op):
            return 1.5 if (q, op) == (2, PauliOp.Z) else 1.0

        monkeypatch.setattr(oracle, "oracle_apply_pauli", rotating)
        problems = verify.check_pauli_semantics()
        assert len(problems) == 4 * (6 + 1)
        assert problems == per_state_pauli_sweep()

    def test_weight_discrepancy_reported(self, monkeypatch):
        bsm, calls = oracle.oracle_bsm, []

        def skewed(state, a, b, **kwargs):
            outcome, post, probs = bsm(state, a, b, **kwargs)
            calls.append(outcome)
            if len(calls) == 1:  # state 0 of the stack, (00,00), under outcome 00
                probs = probs.copy()
                probs[0] = [0.5, 0.5, 0.0, 0.0]
            return outcome, post, probs

        monkeypatch.setattr(oracle, "oracle_bsm", skewed)
        assert verify.check_swap_against_oracle() == ["(00,00,00): weights [0.5, 0.5, 0.0, 0.0]"]

    def test_pauli_discrepancy_reported(self, monkeypatch):
        apply, skipped = oracle.oracle_apply_pauli, []

        def skipping_x(state, q, ops):  # the stack's (label, X) state keeps its amplitudes
            moved = apply(state, q, ops)
            i = PAULI_CASES.index((skipped[-1], PauliOp.X))
            assert ops[i] is PauliOp.X
            amps = moved.amplitudes.copy()
            amps[i] = state.amplitudes[i]
            return oracle.StateVector(amps, moved.qubit_order)

        monkeypatch.setattr(oracle, "oracle_apply_pauli", skipping_x)
        for label in ALL_LABELS:
            skipped.append(label)
            assert verify.check_pauli_semantics() == [
                f"X on qubit {q} of {label}: {label} != {PauliOp.X.apply(label)}" for q in (1, 2)
            ]

    def test_norm_discrepancy_reported(self, monkeypatch):
        apply, stretched_label, norms = oracle.oracle_apply_pauli, [], []

        def stretched(state, q, ops):  # the stack's (label, Y) state is stretched
            moved = apply(state, q, ops)
            i = PAULI_CASES.index((stretched_label[-1], PauliOp.Y))
            assert ops[i] is PauliOp.Y
            amps = moved.amplitudes.copy()
            amps[i] *= 1.5
            moved = oracle.StateVector(amps, moved.qubit_order)
            norms.append(moved.norm().tolist()[i])
            return moved

        monkeypatch.setattr(oracle, "oracle_apply_pauli", stretched)
        for label in ALL_LABELS:
            stretched_label.append(label)
            norms.clear()
            problems = verify.check_pauli_semantics()
            assert len(norms) == 2 and all(abs(norm - 1.5) < 1e-12 for norm in norms)
            assert problems == [f"Y on {label}: norm {norm!r}" for norm in norms]

    @given(
        st.lists(labels, min_size=2, max_size=4),
        st.integers(0, 7),
        st.integers(0, 7),
        labels,
        st.integers(0, 7),
        st.sampled_from(list(PauliOp)),
    )
    @settings(max_examples=50, deadline=None)
    def test_forced_measurement_agrees_with_symbolic_table(
        self, pair_labels, ia, ib, outcome, ip, op
    ):
        n = len(pair_labels)
        table = PairTable(
            [(2 * i + 1, 2 * i + 2, label) for i, label in enumerate(pair_labels)]
        )
        state = from_table(table)
        a = 2 * (ia % n) + 1
        b = 2 * (ib % n) + 2
        if table.are_partners(a, b):
            outcome = table.label(a)
        _, post, _ = oracle.oracle_bsm(state, a, b, force=outcome)
        symbolic = table.copy()
        assert symbolic.bsm(a, b, ChosenDraws([outcome.index])) == outcome
        # rotate one pair through its high qubit: both ends must see the new label
        _, high, _ = symbolic.pairs()[ip % n]
        symbolic.apply_pauli(high, op)
        post = oracle.oracle_apply_pauli(post, high, op)
        for q in symbolic.qubits():
            assert symbolic.label(q) is symbolic.label(symbolic.partner(q))
        for x, y, expected in symbolic.pairs():
            assert oracle.bell_label_of(post, x, y) == expected
        assert abs(post.norm() - 1.0) < 1e-12
