"""Unit tests for the symbolic Bell-pair algebra."""

import copy
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapqkd.bell import (
    ALL_LABELS,
    BellLabel,
    PairTable,
    PauliOp,
    pauli_correction,
    swap_rule,
)
from swapqkd.knowledge import Party
from swapqkd.rng import ChosenDraws, stream
from swapqkd.verify import SWAP_TABLE_ROWS, check_swap_table

labels = st.sampled_from(ALL_LABELS)
paulis = st.sampled_from(list(PauliOp))


def lab(s: str) -> BellLabel:
    return BellLabel.from_string(s)


class TestBellLabel:
    def test_exactly_four_values(self):
        assert len(ALL_LABELS) == 4
        assert len(set(ALL_LABELS)) == 4
        assert [str(l) for l in ALL_LABELS] == ["00", "01", "10", "11"]

    @pytest.mark.parametrize("text", ["00", "01", "10", "11"])
    def test_string_round_trip(self, text):
        assert str(lab(text)) == text
        assert ALL_LABELS[lab(text).index] is lab(text)

    @pytest.mark.parametrize("bad", ["0", "012", "2a", "ab", ""])
    def test_bad_strings_rejected(self, bad):
        with pytest.raises(ValueError):
            BellLabel.from_string(bad)

    def test_bad_bits_rejected(self):
        with pytest.raises(ValueError):
            BellLabel(2, 0)

    @given(labels, labels)
    def test_xor_componentwise(self, a, b):
        assert a ^ b == BellLabel(a.x ^ b.x, a.z ^ b.z)

    @given(labels, labels, labels)
    def test_xor_associative(self, a, b, c):
        assert (a ^ b) ^ c == a ^ (b ^ c)


class TestInterning:
    """There are four label objects; every way of naming a label returns one."""

    @pytest.mark.parametrize("x, z", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_constructor_returns_the_interned_label(self, x, z):
        label = BellLabel(x, z)
        assert label is ALL_LABELS[(x << 1) | z]
        assert label is BellLabel.from_string(f"{x}{z}")
        assert (label.x, label.z, label.index) == (x, z, (x << 1) | z)

    @pytest.mark.parametrize("bits", [(2, 0), (0, -1), (1, 2), ("1", 0)])
    def test_bad_bits_raise_value_error(self, bits):
        with pytest.raises(ValueError, match="label bits must be 0 or 1"):
            BellLabel(*bits)

    @pytest.mark.parametrize("name", ["x", "z", "index", "other"])
    def test_attributes_cannot_be_set_or_deleted(self, name):
        label = ALL_LABELS[1]
        with pytest.raises(AttributeError):
            setattr(label, name, 0)
        with pytest.raises(AttributeError):
            delattr(label, name)
        assert (label.x, label.z, label.index) == (0, 1, 1)

    @pytest.mark.parametrize("label", ALL_LABELS, ids=str)
    def test_pickle_and_copies_return_the_same_object(self, label):
        assert pickle.loads(pickle.dumps(label)) is label
        assert copy.copy(label) is label
        assert copy.deepcopy(label) is label
        assert copy.deepcopy([label, (label,)])[1][0] is label

    def test_dict_keys_look_up_as_before(self):
        by_label = {label: str(label) for label in ALL_LABELS}
        assert all(by_label[lab(text)] == text for text in ("00", "01", "10", "11"))
        by_op = {op: op.name for op in PauliOp}
        assert [by_op[PauliOp[name]] for name in "IXZY"] == list("IXZY")
        assert by_op[PauliOp((1, 1))] == "Y"
        by_party = {party: party.value for party in Party}
        assert by_party[Party("eve")] == "eve" and by_party[Party.ALICE] == "alice"
        assert len({*ALL_LABELS, *ALL_LABELS}) == 4

    def test_pauli_toggle_is_the_index_of_its_bits(self):
        for op in PauliOp:
            dx, dz = op.value
            assert op.toggle == (dx << 1) | dz
            for label in ALL_LABELS:
                assert op.apply(label) is BellLabel(label.x ^ dx, label.z ^ dz)

    def test_repr(self):
        assert repr(ALL_LABELS[2]) == "BellLabel(x=1, z=0)"


class TestSwapRule:
    def test_known_walkthrough(self):
        # measuring across a 11-pair and a 01-pair, reading 00, leaves 10
        assert swap_rule(lab("11"), lab("01"), lab("00")) == lab("10")

    def test_all_zero(self):
        assert swap_rule(lab("00"), lab("00"), lab("00")) == lab("00")

    def test_oracle_derived_case(self):
        # frozen from the dense-oracle sweep (verify.check_swap_against_oracle)
        assert swap_rule(lab("10"), lab("10"), lab("01")) == lab("01")

    def test_four_digit_xor_conserved(self):
        # the measured outcome and the induced label always XOR back to the inputs
        for left, right, outcome in itertools.product(ALL_LABELS, repeat=3):
            assert swap_rule(left, right, outcome) ^ outcome == left ^ right

    def test_row_reproduction(self):
        assert check_swap_table() == []

    def test_rows_partition_all_sixteen_entries(self):
        seen = set().union(*SWAP_TABLE_ROWS)
        assert len(seen) == 16
        assert all(len(row) == 4 for row in SWAP_TABLE_ROWS)


class TestBsm:
    def test_partner_readout_is_deterministic(self):
        table = PairTable([(6, 8, lab("10"))])
        for _ in range(3):
            assert table.bsm(6, 8) == lab("10")
        assert table.pairs() == [(6, 8, lab("10"))]

    def test_partner_readout_ignores_order(self):
        table = PairTable([(6, 8, lab("10"))])
        assert table.bsm(8, 6) == lab("10")

    def test_forced_swap_walkthrough(self):
        table = PairTable([(1, 2, lab("11")), (3, 4, lab("01"))])
        outcome = table.bsm(1, 3, ChosenDraws([lab("00").index]))
        assert outcome == lab("00")
        assert table.pairs() == [(1, 3, lab("00")), (2, 4, lab("10"))]
        # every branch: the induced pair conserves the XOR of all four labels
        for left, right, forced in itertools.product(ALL_LABELS, repeat=3):
            table = PairTable([(1, 2, left), (3, 4, right)])
            assert table.bsm(1, 3, ChosenDraws([forced.index])) == forced
            assert table.pairs() == [(1, 3, forced), (2, 4, left ^ right ^ forced)]

    def test_unknown_qubit(self):
        table = PairTable([(1, 2, lab("00"))])
        with pytest.raises(ValueError, match="not paired"):
            table.bsm(1, 9)
        with pytest.raises(ValueError, match="not paired"):
            table.bsm(9, 1)

    def test_swap_without_randomness_rejected(self):
        table = PairTable([(1, 2, lab("00")), (3, 4, lab("00"))])
        with pytest.raises(ValueError, match="random stream"):
            table.bsm(1, 3)

    def test_outcomes_uniform(self):
        # 3-sigma binomial bound at 40000 trials: 0.25 +/- 0.0065
        trials = 40_000
        rng = stream(2024)
        counts = {label: 0 for label in ALL_LABELS}
        for _ in range(trials):
            table = PairTable([(1, 2, lab("11")), (3, 4, lab("01"))])
            counts[table.bsm(1, 3, rng)] += 1
        tol = 3 * (0.25 * 0.75 / trials) ** 0.5
        for label, count in counts.items():
            assert abs(count / trials - 0.25) <= tol, f"{label}: {count / trials}"


class TestPauliCorrection:
    def test_identity_case(self):
        assert pauli_correction(lab("11"), lab("11")) is PauliOp.I

    def test_phase_flip_case(self):
        # oracle-derived: a single phase flip moves 10 to 11
        assert pauli_correction(lab("10"), lab("11")) is PauliOp.Z

    def test_both_toggles_case(self):
        assert pauli_correction(lab("01"), lab("10")) is PauliOp.Y

    @given(labels, labels)
    def test_correction_reaches_target(self, current, target):
        assert pauli_correction(current, target).apply(current) == target

    @given(labels, labels)
    def test_forward_and_back_compose_to_identity(self, a, b):
        there = pauli_correction(a, b)
        back = pauli_correction(b, a)
        assert back.apply(there.apply(a)) == a

    def test_toggle_table(self):
        base = lab("00")
        assert PauliOp.I.apply(base) == lab("00")
        assert PauliOp.X.apply(base) == lab("10")
        assert PauliOp.Z.apply(base) == lab("01")
        assert PauliOp.Y.apply(base) == lab("11")


class TestApplyPauli:
    def test_phase_toggle(self):
        table = PairTable([(1, 3, lab("10"))])
        table.apply_pauli(1, PauliOp.Z)
        assert table.pairs() == [(1, 3, lab("11"))]

    def test_identity_leaves_table(self):
        table = PairTable([(1, 3, lab("10"))])
        table.apply_pauli(1, PauliOp.I)
        assert table.pairs() == [(1, 3, lab("10"))]

    def test_either_qubit_equivalent(self):
        table = PairTable([(1, 3, lab("01"))])
        table.apply_pauli(3, PauliOp.Y)
        assert table.pairs() == [(1, 3, lab("10"))]

    def test_other_pairs_untouched(self):
        table = PairTable([(1, 2, lab("00")), (3, 4, lab("01"))])
        table.apply_pauli(4, PauliOp.X)
        assert table.pairs() == [(1, 2, lab("00")), (3, 4, lab("11"))]

    def test_unpaired_qubit_rejected(self):
        table = PairTable([(1, 2, lab("00"))])
        with pytest.raises(ValueError, match="not paired"):
            table.apply_pauli(5, PauliOp.X)


class TestPairTableInvariants:
    def test_disjointness_enforced(self):
        table = PairTable([(1, 2, lab("00"))])
        with pytest.raises(ValueError, match="already paired"):
            table.add_pair(2, 3, lab("00"))

    def test_self_pairing_rejected(self):
        with pytest.raises(ValueError, match="itself"):
            PairTable([(1, 1, lab("00"))])

    @given(
        st.lists(labels, min_size=3, max_size=4),
        st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), labels), max_size=30),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_preserved_by_any_op_sequence(self, pair_labels, ops, pyrandom):
        qubits = list(range(1, 2 * len(pair_labels) + 1))
        pyrandom.shuffle(qubits)
        table = PairTable(
            [
                (qubits[2 * i], qubits[2 * i + 1], label)
                for i, label in enumerate(pair_labels)
            ]
        )
        n = len(qubits)
        for a_idx, b_idx, outcome in ops:
            a, b = qubits[a_idx % n], qubits[b_idx % n]
            if a == b:
                table.apply_pauli(a, PauliOp.X)
            elif table.are_partners(a, b):
                table.bsm(a, b)
            else:
                table.bsm(a, b, ChosenDraws([outcome.index]))
            # the partition survives every operation
            assert table.qubits() == set(qubits)
            assert len(table) * 2 == n
            for q in qubits:
                assert table.partner(table.partner(q)) == q
